"""Joint default probability and the leverage-diversification regime map.

The systemic default probability of two identical banks (leverage f,
diversification n, market of N projects) is Phi2(z, z, n/N).  Raising
leverage from a normal level f_n to an abnormal level f_a raises it by

    delta_phi2 = Phi2(z(f_a), z(f_a), n/N) - Phi2(z(f_n), z(f_n), n/N) >= 0.

A cell (N, n, chi) is "safe" when that increase is at most epsilon_safe,
and the critical diversification n* is the smallest n whose whole suffix
[n, N] is safe (a cumulative AND from n = N downward, so minimality of
the boundary is established by construction).  There may be no such n;
that outcome is reported as None, not an error.

A regime sweep is held as columns: ``SweepResult`` keeps read-only arrays
``market_size``, ``n``, ``chi`` and ``delta_phi2`` with one entry per cell,
sorted by (N, chi, n), and ``risky`` is derived as delta_phi2 > epsilon_safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, is_int
from .gaussian import DEFAULT_GRID, GridSpec, binorm_cdf
from .merton import BankStrategy, MarketParams, asset_correlation, z_score

EPSILON_SAFE = 1e-6

@dataclass(frozen=True)
class LeverageScenario:
    """A normal/abnormal leverage pair; f_abnormal > f_normal strictly."""

    f_normal: float
    f_abnormal: float

    def __post_init__(self) -> None:
        for name, f in (("f_normal", self.f_normal), ("f_abnormal", self.f_abnormal)):
            if not math.isfinite(f) or not 0.0 < f < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {f!r}")
        if self.f_abnormal <= self.f_normal:
            raise DomainError(
                f"need f_abnormal > f_normal, got {self.f_abnormal} <= {self.f_normal}"
            )

    @property
    def delta_f(self) -> float:
        return self.f_abnormal - self.f_normal


# both routes keep the differential above this: the Gauss-Legendre oracle is
# within about 2e-16 of Phi2, and the grid tabulation is monotone in z
_DELTA_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A regime sweep as read-only columns, one entry per (N, n, chi) cell
    sorted by (N, chi, n), plus the per-(N, chi) critical levels."""

    scenario: LeverageScenario
    mu: float
    epsilon_safe: float
    market_size: np.ndarray
    n: np.ndarray
    chi: np.ndarray
    delta_phi2: np.ndarray
    critical_n: dict[tuple[int, float], int | None]

    @property
    def risky(self) -> np.ndarray:
        return self.delta_phi2 > self.epsilon_safe

    def risky_fraction(self, market_size: int) -> float:
        at = self.market_size == market_size
        if not at.any():
            raise DomainError(f"no cells for market size {market_size}")
        return int(self.risky[at].sum()) / int(at.sum())

    def market_sizes(self) -> list[int]:
        return np.unique(self.market_size).tolist()

    def _rows(self):
        """(N, n, chi, delta_phi2, regime label) of each cell as Python values."""
        labels = np.where(self.risky, "risky", "safe").tolist()
        columns = (self.market_size, self.n, self.chi, self.delta_phi2)
        return zip(*(col.tolist() for col in columns), labels)

    def to_csv(self) -> str:
        """The cells as csv.writer's bytes (no field ever needs quoting).

        The text is built per column, with one shortest-round-trip ``repr``
        per float: each distinct chi is formatted once and reused, the two
        regime labels are constants, and delta_phi2 takes a ``repr`` per
        cell.  One join interleaves the columns.
        """
        chis, chi_at = np.unique(self.chi, return_inverse=True)
        chi_text = [f"{chi!r}," for chi in chis.tolist()]
        labels = (",safe\r\n", ",risky\r\n")
        parts = [""] * (4 * self.n.size)
        parts[0::4] = [f"{size},{n}," for size, n in zip(self.market_size.tolist(), self.n.tolist())]
        parts[1::4] = map(chi_text.__getitem__, chi_at.tolist())
        parts[2::4] = map(repr, self.delta_phi2.tolist())
        parts[3::4] = map(labels.__getitem__, self.risky.tolist())
        return "N,n,chi,delta_phi2,regime\r\n" + "".join(parts)

    def to_json(self) -> str:
        cells: dict[int, list] = {size: [] for size in self.market_sizes()}
        for size, n, chi, d, label in self._rows():
            cells[size].append({"n": n, "chi": chi, "delta_phi2": d, "regime": label})
        by_n = {
            str(size): {
                "cells": rows,
                "critical_n_by_chi": {
                    repr(chi): self.critical_n[(n_, chi)] for (n_, chi) in sorted(self.critical_n) if n_ == size
                },
            }
            for size, rows in cells.items()
        }
        doc = {
            "scenario": {
                "f_normal": self.scenario.f_normal,
                "f_abnormal": self.scenario.f_abnormal,
            },
            "mu": self.mu,
            "epsilon_safe": self.epsilon_safe,
            "markets": by_n,
        }
        return json.dumps(doc, indent=2)


def systemic_pd(
    strategy: BankStrategy,
    market: MarketParams,
    method: str = "oracle",
    grid_spec: GridSpec = DEFAULT_GRID,
) -> float:
    """Joint default probability Phi2(z, z, n/N) of two banks using the
    same strategy on the same market."""
    z = z_score(strategy, market)
    rho = asset_correlation(strategy.diversification, market)
    return binorm_cdf(z, z, rho, method=method, spec=grid_spec)


def delta_phi2(
    scenario: LeverageScenario,
    n: int,
    market: MarketParams,
    method: str = "oracle",
    grid_spec: GridSpec = DEFAULT_GRID,
) -> float:
    """Increase in systemic default probability caused by moving from the
    normal to the abnormal leverage; nonnegative up to method tolerance."""
    _, deltas = _delta_tables([scenario], [market.market_size], [n], [market], method, grid_spec)
    return float(deltas[0, 0, 0])


Blocks = list[tuple[int, list[int]]]  # (N, ascending n values) per market size


def _delta_tables(
    scenarios: Sequence[LeverageScenario],
    market_sizes: Sequence[int],
    n_values: Sequence[int] | None,
    markets: Sequence[MarketParams],
    method: str,
    grid_spec: GridSpec,
) -> tuple[Blocks, np.ndarray]:
    """Check the box up front; return its blocks and delta_phi2 of shape
    (scenario, cell, market) from one Phi2 call, for every sweep, critical
    level and drift scan.  Markets give chi, drift and horizon; cells give N."""
    if not market_sizes:
        raise ConfigError("market_sizes must be non-empty")
    blocks = []
    for size in market_sizes:
        if not is_int(size) or size < 1:
            raise ConfigError(f"market sizes must be integers >= 1, got {size!r}")
        ns = sorted(n_values) if n_values is not None else list(range(1, size + 1))
        for n in ns:
            if not is_int(n) or not 1 <= n <= size:
                raise DomainError(f"invalid cell (N={size}, n={n!r}): need 1 <= n <= N")
        blocks.append((size, ns))
    chi = np.array([m.chi for m in markets])
    if not (chi > 0.0).all():
        raise DomainError("delta_phi2 requires chi > 0 (sigma > 0 and T > 0)")
    levels = sorted({f for s in scenarios for f in (s.f_normal, s.f_abnormal)})
    offset = [[math.log(1.0 / f) + m.drift * m.horizon for m in markets] for f in levels]
    n = np.array([n for _, ns in blocks for n in ns], dtype=float)[:, None]
    size = np.array([size for size, ns in blocks for _ in ns], dtype=float)[:, None]
    z = -(np.array(offset)[:, None, :] - chi / n) / np.sqrt(2.0 * chi / n)
    pd = dict(zip(levels, binorm_cdf(z, z, n / size, method=method, spec=grid_spec)))
    return blocks, np.stack([pd[s.f_abnormal] - pd[s.f_normal] for s in scenarios])


def _critical(blocks: Blocks, labels: Sequence, deltas: np.ndarray, epsilon_safe: float) -> dict:
    """{(N, label): n*} for each block and labelled column of a (cell,
    market) delta table: n* is the smallest n of the block whose whole
    suffix is safe, or None, from a reversed cumulative AND over n."""
    if not (math.isfinite(epsilon_safe) and epsilon_safe >= 0.0):
        raise DomainError(f"epsilon_safe must be finite and >= 0, got {epsilon_safe!r}")
    out = {}
    ends = np.cumsum([len(ns) for _, ns in blocks])
    for (size, ns), d in zip(blocks, np.split(deltas, ends[:-1])):
        safe_run = np.logical_and.accumulate((d <= epsilon_safe)[::-1], axis=0).sum(axis=0)
        out.update({(size, x): ns[-c] if c else None for x, c in zip(labels, safe_run.tolist())})
    return out


def critical_diversification(
    scenario: LeverageScenario,
    market: MarketParams,
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> int | None:
    """Smallest n such that every n' in [n, N] is safe, or None if even
    n = N is risky: the drift scan at the market's own drift."""
    return mu_sensitivity(scenario, market, [market.drift], method, epsilon_safe, grid_spec)[market.drift]


def default_chi_grid(points: int = 100) -> np.ndarray:
    """Log-spaced chi grid over the standard sweep box, chi in [0.001, 9]."""
    if not is_int(points) or points < 1:
        raise ConfigError(f"points must be an integer >= 1, got {points!r}")
    return np.logspace(math.log10(0.001), math.log10(9.0), points)


def critical_table(
    scenarios: Sequence[LeverageScenario],
    market_sizes: Sequence[int],
    chi_values: Iterable[float],
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> list[dict[tuple[int, float], int | None]]:
    """Critical diversification at every (N, chi), per scenario, from one
    batch, so the grid method tabulates each correlation n/N once."""
    chis = [float(c) for c in chi_values]
    markets = [MarketParams.from_chi(1, chi) for chi in chis]
    blocks, tables = _delta_tables(scenarios, market_sizes, None, markets, method, grid_spec)
    return [_critical(blocks, chis, deltas, epsilon_safe) for deltas in tables]


def regime_sweep(
    scenario: LeverageScenario,
    market_sizes: Sequence[int],
    chi_values: Iterable[float],
    mu: float = 0.0,
    n_values: Sequence[int] | None = None,
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> SweepResult:
    """Classify every (N, n, chi) cell and derive the per-(N, chi) critical
    levels from the same delta values.

    Cells are sorted by (N, chi, n), stably, so repeated sweeps produce
    identical results.
    """
    chis = [float(c) for c in chi_values]
    if not chis:
        raise ConfigError("chi_values must be non-empty")
    markets = [MarketParams.from_chi(1, chi, drift=mu) for chi in chis]
    blocks, (deltas,) = _delta_tables([scenario], market_sizes, n_values, markets, method, grid_spec)
    # one row of deltas per (N, n) in block order, one column per chi
    row_size = np.repeat([size for size, _ in blocks], [len(ns) for _, ns in blocks])
    row_n = np.array([n for _, ns in blocks for n in ns], dtype=int)
    size, n = np.repeat(row_size, len(chis)), np.repeat(row_n, len(chis))
    chi, delta = np.tile(chis, len(row_n)), deltas.ravel()
    bad = np.flatnonzero(~(delta >= -_DELTA_SLACK))
    if bad.size:
        i = bad[0]
        raise DomainError(
            f"leverage differential {delta[i].item()} is negative beyond numerical "
            f"slack at (N={size[i]}, n={n[i]}, chi={chi[i].item()})"
        )
    order = np.lexsort((n, chi, size))
    columns = [col[order] for col in (size, n, chi, delta)]
    for col in columns:
        col.setflags(write=False)
    return SweepResult(scenario, mu, epsilon_safe, *columns, _critical(blocks, chis, deltas, epsilon_safe))


def mu_sensitivity(
    scenario: LeverageScenario,
    market: MarketParams,
    mu_values: Sequence[float],
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
    grid_spec: GridSpec = DEFAULT_GRID,
) -> dict[float, int | None]:
    """Critical diversification as a function of the drift mu."""
    mus = [float(mu) for mu in mu_values]
    markets = [market.with_drift(mu) for mu in mus]
    blocks, (deltas,) = _delta_tables([scenario], [market.market_size], None, markets, method, grid_spec)
    critical = _critical(blocks, mus, deltas, epsilon_safe)
    return {mu: critical[(market.market_size, mu)] for mu in mus}
