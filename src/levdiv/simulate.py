"""Brute-force Monte Carlo cross-check of the analytic default probabilities.

Two banks hold equally weighted, periodically rebalanced portfolios drawn
from N independent GBM projects.  Per path the simulator draws exact
per-step GBM increments, applies the contrarian rebalancing rule (sell
winners, buy losers, total value unchanged), and records individual and
joint defaults a_i(T) <= f_i * a_i(0).

Randomness is counter-based: path p of a run with seed s consumes the
Philox stream keyed (s, p), so every path is reproducible in isolation
and results do not depend on chunking or evaluation order.  Stream 0
carries the price shocks in fixed (step, project) order; stream 1 carries
the random project selection, when enabled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError
from .merton import BankStrategy, MarketParams

# Chunk size is a pure function of the config (never of the environment), so
# the floating-point reduction order is reproducible for identical configs.
_CHUNK_BUDGET = 8_000_000  # doubles per chunk block, ~64 MB


def _chunk_size(steps: int, market_size: int) -> int:
    return max(1, min(4096, _CHUNK_BUDGET // (steps * market_size)))


@dataclass(frozen=True)
class FixedOverlap:
    """The two banks share exactly `shared` projects."""

    shared: int


@dataclass(frozen=True)
class RandomSelection:
    """Each bank draws its projects uniformly without replacement, per path."""


OverlapMode = Union[FixedOverlap, RandomSelection]


@dataclass(frozen=True)
class SimConfig:
    market: MarketParams
    strategies: tuple[BankStrategy, BankStrategy]
    overlap: OverlapMode = RandomSelection()
    paths: int = 100_000
    steps_per_horizon: int = 250
    seed: int = 0
    initial_price: float = 1.0
    initial_assets: float = 1.0

    def __post_init__(self) -> None:
        n1, n2 = (s.diversification for s in self.strategies)
        N = self.market.market_size
        if n1 > N or n2 > N:
            raise ConfigError(f"diversification ({n1}, {n2}) exceeds market size {N}")
        if isinstance(self.overlap, FixedOverlap):
            k = self.overlap.shared
            lo, hi = max(0, n1 + n2 - N), min(n1, n2)
            if not isinstance(k, int) or not lo <= k <= hi:
                raise ConfigError(
                    f"shared project count {k!r} must lie in [{lo}, {hi}] "
                    f"for n1={n1}, n2={n2}, N={N}"
                )
        elif not isinstance(self.overlap, RandomSelection):
            raise ConfigError(f"unknown overlap mode {self.overlap!r}")
        if not isinstance(self.paths, int) or self.paths < 1:
            raise ConfigError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not isinstance(self.steps_per_horizon, int) or self.steps_per_horizon < 1:
            raise ConfigError(f"steps_per_horizon must be >= 1, got {self.steps_per_horizon!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.initial_price <= 0.0 or self.initial_assets <= 0.0:
            raise ConfigError("initial price and assets must be positive")

    @property
    def dt(self) -> float:
        return self.market.horizon / self.steps_per_horizon


def path_rng(seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, path_index), one counter block per stream."""
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=stream << 128, key=key))


def simulate_prices(config: SimConfig, path_index: int) -> np.ndarray:
    """Price trajectories, shape (steps + 1, N), via exact log-Euler stepping.

    Deterministic given (config.seed, path_index).
    """
    m = config.market
    dt = config.dt
    xi = path_rng(config.seed, path_index).standard_normal(
        (config.steps_per_horizon, m.market_size)
    )
    growth = np.exp((m.drift - 0.5 * m.sigma**2) * dt + m.sigma * math.sqrt(dt) * xi)
    out = np.empty((config.steps_per_horizon + 1, m.market_size))
    out[0] = config.initial_price
    np.cumprod(growth, axis=0, out=growth)
    out[1:] = config.initial_price * growth
    return out


@dataclass(frozen=True)
class SimResult:
    """Estimated default frequencies with binomial standard errors."""

    pd1_hat: float
    pd2_hat: float
    joint_pd_hat: float
    se_pd1: float
    se_pd2: float
    se_joint: float
    realized_correlation: float
    paths_used: int
    seed_used: int
    terminal_values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pd1_hat": self.pd1_hat,
                "pd2_hat": self.pd2_hat,
                "joint_pd_hat": self.joint_pd_hat,
                "se_pd1": self.se_pd1,
                "se_pd2": self.se_pd2,
                "se_joint": self.se_joint,
                "realized_correlation": self.realized_correlation,
                "paths_used": self.paths_used,
                "seed_used": self.seed_used,
            },
            indent=2,
        )


def fixed_holdings(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic holdings with exactly k shared projects: bank 1 takes
    [0, n1), bank 2 takes [n1 - k, n1 - k + n2)."""
    if not isinstance(config.overlap, FixedOverlap):
        raise ConfigError("fixed_holdings requires FixedOverlap mode")
    n1, n2 = (s.diversification for s in config.strategies)
    k = config.overlap.shared
    return np.arange(n1), np.arange(n1 - k, n1 - k + n2)


def select_holdings(config: SimConfig, path_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path holdings for both banks (sorted project indices)."""
    n1, n2 = (s.diversification for s in config.strategies)
    if isinstance(config.overlap, FixedOverlap):
        return fixed_holdings(config)
    rng = path_rng(config.seed, path_index, stream=1)
    N = config.market.market_size
    h1 = np.sort(rng.permutation(N)[:n1])
    h2 = np.sort(rng.permutation(N)[:n2])
    return h1, h2


def estimate_default_probs(config: SimConfig, collect_terminals: bool = False) -> SimResult:
    """Estimate individual and joint default frequencies.

    Paths are processed in index order with a chunk size that depends only
    on the config, and each path's shocks come from its own keyed stream,
    so identical configs produce bitwise-identical results.
    """
    m = config.market
    steps, N = config.steps_per_horizon, m.market_size
    dt = config.dt
    drift_term = (m.drift - 0.5 * m.sigma**2) * dt
    vol_term = m.sigma * math.sqrt(dt)
    log_limits = (
        math.log(config.strategies[0].leverage),
        math.log(config.strategies[1].leverage),
    )
    random_mode = isinstance(config.overlap, RandomSelection)
    if not random_mode:
        h_fixed = fixed_holdings(config)

    n_def = np.zeros(2, dtype=np.int64)
    n_joint = 0
    # pooled per-step log-return moments, accumulated in chunk order
    s_x = s_y = s_xx = s_yy = s_xy = 0.0
    n_obs = 0
    terminals = np.empty((config.paths, 2)) if collect_terminals else None

    chunk = _chunk_size(steps, N)
    xi = np.empty((chunk, steps, N))
    for start in range(0, config.paths, chunk):
        size = min(chunk, config.paths - start)
        block = xi[:size]
        for i in range(size):
            path_rng(config.seed, start + i).standard_normal((steps, N), out=block[i])
        growth = np.exp(drift_term + vol_term * block)

        if random_mode:
            idx1 = np.empty((size, config.strategies[0].diversification), dtype=int)
            idx2 = np.empty((size, config.strategies[1].diversification), dtype=int)
            for i in range(size):
                idx1[i], idx2[i] = select_holdings(config, start + i)
            indices = (idx1, idx2)

        rets = []
        for bank in (0, 1):
            if random_mode:
                held = np.take_along_axis(growth, indices[bank][:, None, :], axis=2)
            else:
                held = growth[:, :, h_fixed[bank]]
            rets.append(np.log(held.mean(axis=2)))

        logfac1 = rets[0].sum(axis=1)
        logfac2 = rets[1].sum(axis=1)
        d1 = logfac1 <= log_limits[0]
        d2 = logfac2 <= log_limits[1]
        n_def[0] += int(d1.sum())
        n_def[1] += int(d2.sum())
        n_joint += int((d1 & d2).sum())
        s_x += float(rets[0].sum())
        s_y += float(rets[1].sum())
        s_xx += float((rets[0] * rets[0]).sum())
        s_yy += float((rets[1] * rets[1]).sum())
        s_xy += float((rets[0] * rets[1]).sum())
        n_obs += size * steps
        if terminals is not None:
            terminals[start : start + size, 0] = config.initial_assets * np.exp(logfac1)
            terminals[start : start + size, 1] = config.initial_assets * np.exp(logfac2)

    paths = config.paths
    p1, p2, pj = n_def[0] / paths, n_def[1] / paths, n_joint / paths
    var_x = s_xx / n_obs - (s_x / n_obs) ** 2
    var_y = s_yy / n_obs - (s_y / n_obs) ** 2
    cov = s_xy / n_obs - (s_x / n_obs) * (s_y / n_obs)
    denom = math.sqrt(var_x * var_y) if var_x > 0 and var_y > 0 else 0.0
    corr = cov / denom if denom > 0 else float("nan")

    def se(p: float) -> float:
        return math.sqrt(p * (1.0 - p) / paths)

    return SimResult(
        pd1_hat=float(p1),
        pd2_hat=float(p2),
        joint_pd_hat=float(pj),
        se_pd1=se(p1),
        se_pd2=se(p2),
        se_joint=se(pj),
        realized_correlation=float(corr),
        paths_used=paths,
        seed_used=config.seed,
        terminal_values=terminals,
    )
