"""Explicit-rebalancing reference for the Monte Carlo estimator, for tests only.

``simulate_prices`` rebuilds one path's price trajectories, for the
projects it draws shocks for, from its Philox stream, and ``simulate_bank``
steps one bank's book along them: mark to the new prices, then restore
equal per-project value without injecting or withdrawing anything.  The
library's estimator reaches the same terminal value in closed form (the
book's per-step gross return is the mean of the held projects' gross
returns), so this slow route checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from levdiv import DomainError, SimConfig, path_rng
from serial_estimator import drawn_projects


def simulate_prices(config: SimConfig, path_index: int, initial_price: float = 1.0) -> np.ndarray:
    """Price trajectories, shape (steps + 1, drawn_projects(config)), via
    exact log-Euler stepping from ``initial_price``: all N projects under
    random selection, the held prefix under a fixed overlap.

    Deterministic given (config.seed, path_index).
    """
    m = config.market
    dt = config.dt
    width = drawn_projects(config)
    xi = path_rng(config.seed, path_index).standard_normal((config.steps_per_horizon, width))
    growth = np.exp((m.drift - 0.5 * m.sigma**2) * dt + m.sigma * math.sqrt(dt) * xi)
    out = np.empty((config.steps_per_horizon + 1, width))
    out[0] = initial_price
    np.cumprod(growth, axis=0, out=growth)
    out[1:] = initial_price * growth
    return out


@dataclass
class PortfolioState:
    """Holdings x_il(t) and prices during one bank's path.

    ``advance`` first marks the book to the new prices (which changes the
    total), then restores equal per-project value without injecting or
    withdrawing anything.
    """

    units: np.ndarray
    prices: np.ndarray
    holdings: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.holdings = np.flatnonzero(self.units)
        if self.holdings.size == 0:
            raise DomainError("portfolio must hold at least one project")

    @classmethod
    def equal_weight(
        cls, initial_assets: float, holdings: np.ndarray, prices: np.ndarray
    ) -> "PortfolioState":
        holdings = np.asarray(holdings, dtype=int)
        if holdings.size == 0 or np.unique(holdings).size != holdings.size:
            raise DomainError("holdings must be a non-empty set of distinct projects")
        units = np.zeros(prices.shape[0])
        units[holdings] = (initial_assets / holdings.size) / prices[holdings]
        return cls(units=units, prices=prices.copy())

    @property
    def asset_value(self) -> float:
        return float(self.units[self.holdings] @ self.prices[self.holdings])

    @property
    def per_project_values(self) -> np.ndarray:
        return self.units[self.holdings] * self.prices[self.holdings]

    def advance(self, new_prices: np.ndarray) -> None:
        self.prices = new_prices
        if self.holdings.size > 1:  # rebalancing one project is the identity
            total = self.asset_value
            self.units[self.holdings] = (total / self.holdings.size) / new_prices[self.holdings]


def simulate_bank(prices: np.ndarray, holdings: np.ndarray) -> float:
    """Terminal asset value of one bank with unit initial assets, stepping
    the explicit rebalancing rule along the given price trajectories."""
    state = PortfolioState.equal_weight(1.0, holdings, prices[0])
    for t in range(1, prices.shape[0]):
        state.advance(prices[t])
    return state.asset_value
