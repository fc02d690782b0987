"""Joint default probability and the leverage-diversification regime map.

The systemic default probability of two identical banks (leverage f,
diversification n, market of N projects) is Phi2(z, z, n/N).  Raising
leverage from a normal level f_n to an abnormal level f_a raises it by

    delta_phi2 = Phi2(z(f_a), z(f_a), n/N) - Phi2(z(f_n), z(f_n), n/N) >= 0.

A cell (N, n, chi) is "safe" when that increase is at most epsilon_safe,
and the critical diversification n* is the smallest n whose whole suffix
[n, N] is safe, or None (not an error) when n = N is risky.  A sweep takes
it as a cumulative AND from n = N down its table; critical levels alone
scan down from n = N and stop at the first risky cell, with the same n*.

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
# asset_correlation, systemic_pd and z_score stay bound here, where perfbench/tracer.py wraps them
from .merton import MarketParams, asset_correlation, correlation_law, systemic_pd, z_cells, z_score

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

    def to_csv(self) -> str:
        """The cells as csv.writer's bytes (no field ever needs quoting).

        The text is built per column, with one shortest-round-trip ``repr``
        per float: each distinct chi and (N, n) prefix is formatted once and
        reused, the two regime labels are constants, and delta_phi2 takes a
        ``repr`` per cell.  One join interleaves the columns.
        """
        chis, chi_at = np.unique(self.chi, return_inverse=True)
        chi_text = [f"{chi!r}," for chi in chis.tolist()]
        span = self.n.max(initial=0) + 1  # 0 <= n < span: N * span + n keys each (N, n)
        keys, key_at = np.unique(self.market_size * span + self.n, return_inverse=True)
        prefix_text = [f"{key // span},{key % span}," for key in keys.tolist()]
        labels = (",safe\r\n", ",risky\r\n")
        parts = [""] * (4 * self.n.size)
        parts[0::4] = map(prefix_text.__getitem__, key_at.tolist())
        parts[1::4] = map(chi_text.__getitem__, chi_at.tolist())
        parts[2::4] = map(repr, self.delta_phi2.tolist())
        parts[3::4] = map(labels.__getitem__, self.risky.tolist())
        return "N,n,chi,delta_phi2,regime\r\n" + "".join(parts)

    def to_json(self) -> str:
        """The sweep as ``json.dumps(doc, indent=2)`` of its nested document.

        The cell lists, nearly all of the bytes, are built per column as in
        ``to_csv``: one ``repr`` per distinct chi, one f-string per cell
        with a ``repr`` of its delta_phi2, constant labels.  The rest of the
        document goes through ``json.dumps`` with a marker in place of each
        market's list, which the built text replaces.
        """
        sizes = self.market_sizes()
        chis, chi_at = np.unique(self.chi, return_inverse=True)
        chi_text = [repr(chi) for chi in chis.tolist()]
        labels = ("safe", "risky")
        indent = "\n" + " " * 10
        cells = [
            f'        {{{indent}"n": {n},{indent}"chi": {chi_text[c]},{indent}"delta_phi2": {d!r},'
            f'{indent}"regime": "{labels[risky]}"\n        }}'
            for n, c, d, risky in zip(
                self.n.tolist(), chi_at.tolist(), self.delta_phi2.tolist(), self.risky.tolist()
            )
        ]
        ends = np.searchsorted(self.market_size, sizes, side="right").tolist()
        lists = [
            "[\n" + ",\n".join(cells[lo:hi]) + "\n      ]" for lo, hi in zip([0, *ends], ends)
        ]
        marker = "\0cells"
        doc = {
            "scenario": {
                "f_normal": self.scenario.f_normal,
                "f_abnormal": self.scenario.f_abnormal,
            },
            "mu": self.mu,
            "epsilon_safe": self.epsilon_safe,
            "markets": {
                str(size): {
                    "cells": marker,
                    "critical_n_by_chi": {
                        repr(chi): self.critical_n[(n_, chi)] for (n_, chi) in sorted(self.critical_n) if n_ == size
                    },
                }
                for size in sizes
            },
        }
        head, *rest = json.dumps(doc, indent=2).split(json.dumps(marker))
        return head + "".join(text + tail for text, tail in zip(lists, rest))


def delta_phi2(
    scenario: LeverageScenario,
    n: int,
    market: MarketParams,
    method: str = "oracle",
    grid_spec: GridSpec = DEFAULT_GRID,
) -> float:
    """Increase in systemic default probability caused by moving from the
    normal to the abnormal leverage; nonnegative up to method tolerance."""
    _blocks([market.market_size], [n], [market])
    return float(_delta_tables([scenario], [market], 0, market.market_size, n, 0, method, grid_spec))


Blocks = list[tuple[int, list[int]]]  # (N, ascending n values) per market size


def _blocks(market_sizes: Sequence[int], n_values, markets: Sequence, epsilon_safe: float = 0.0) -> Blocks:
    """Check a box up front, in this order: its market sizes and n values,
    the markets' chi, epsilon_safe; return its blocks."""
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
    if not all(m.chi > 0.0 for m in markets):
        raise DomainError("delta_phi2 requires chi > 0 (sigma > 0 and T > 0)")
    if not (math.isfinite(epsilon_safe) and epsilon_safe >= 0.0):
        raise DomainError(f"epsilon_safe must be finite and >= 0, got {epsilon_safe!r}")
    return blocks


def _delta_tables(scenarios: Sequence, markets: Sequence, s, size, n, m, method: str, grid_spec) -> np.ndarray:
    """delta_phi2 from one Phi2 call, for every sweep, critical level and
    drift scan, at the cells (scenario s, N, n, market m) given as arrays
    that broadcast: a sweep passes the full product, a scan a flat list.
    s and m index the scenarios and the markets (chi, drift, horizon)."""
    f = np.array([[sc.f_normal, sc.f_abnormal] for sc in scenarios])
    shift = np.array([mk.drift * mk.horizon for mk in markets])[m]
    chi = np.array([mk.chi for mk in markets])[m]
    z = np.stack([z_cells(f[s, level], n, chi, shift) for level in (0, 1)])
    pd = binorm_cdf(z, z, correlation_law(n, size)[0], method=method, spec=grid_spec)
    return pd[1] - pd[0]


def _critical(blocks: Blocks, labels: Sequence, deltas: np.ndarray, epsilon_safe: float) -> dict:
    """{(N, label): n*} for each block and labelled column of a (cell,
    market) delta table: n* is the smallest n of the block whose whole
    suffix is safe, or None, from a reversed cumulative AND over n."""
    out = {}
    ends = np.cumsum([len(ns) for _, ns in blocks])
    for (size, ns), d in zip(blocks, np.split(deltas, ends[:-1])):
        safe_run = np.logical_and.accumulate((d <= epsilon_safe)[::-1], axis=0).sum(axis=0)
        out.update({(size, x): ns[-c] if c else None for x, c in zip(labels, safe_run.tolist())})
    return out


def _scan(
    scenarios: Sequence[LeverageScenario], market_sizes: Sequence[int], labels: Sequence,
    markets: Sequence[MarketParams], method: str, epsilon_safe: float, grid_spec: GridSpec,
) -> list[dict]:
    """Per scenario, {(N, label): n*} for each market size and labelled
    market, as ``_critical`` gives it, from a scan down from n = N that
    stops at each column's first risky cell.  Round b holds the cells of
    band ((N - 1) // n).bit_length() == b: n = N, then 2^-b <= n/N < 2^(1-b).
    The band depends on n/N alone, so each correlation falls in one round,
    one Phi2 call over the columns still open."""
    _blocks(market_sizes, None, markets, epsilon_safe)
    cols = [(s, size, m) for s in range(len(scenarios)) for size in market_sizes for m in range(len(markets))]
    s, size, m = np.array(cols, dtype=int).reshape(-1, 3).T
    c = np.repeat(np.arange(len(cols)), size)  # each cell's column, whose n run from N down to 1
    n = size[c] - np.arange(c.size) + (np.cumsum(size) - size)[c]
    band = np.frexp((size[c] - 1) // n)[1]  # the exponent frexp gives is int.bit_length()
    star = np.ones(len(cols), dtype=int)  # n* per column (N + 1 for None), 1 until a cell is risky
    for b in range(band.max(initial=-1) + 1):
        at = np.flatnonzero((band == b) & (star[c] == 1))
        if at.size:
            deltas = _delta_tables(scenarios, markets, s[c[at]], size[c[at]], n[at], m[c[at]], method, grid_spec)
            risky = at[~(deltas <= epsilon_safe)]
            hit, first = np.unique(c[risky], return_index=True)
            star[hit] = n[risky[first]] + 1
    levels = [{} for _ in scenarios]
    for (s, size, m), k in zip(cols, star.tolist()):
        levels[s][(size, labels[m])] = None if k > size else k
    return levels


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
    downward scan, so the grid method tabulates each correlation n/N at
    most once."""
    chis = [float(c) for c in chi_values]
    markets = [MarketParams.from_chi(1, chi) for chi in chis]
    return _scan(scenarios, market_sizes, chis, markets, method, epsilon_safe, grid_spec)


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
    blocks = _blocks(market_sizes, n_values, markets, epsilon_safe)
    # one row of deltas per (N, n) in block order, one column per chi
    row_size = np.repeat([size for size, _ in blocks], [len(ns) for _, ns in blocks])
    row_n = np.array([n for _, ns in blocks for n in ns], dtype=int)
    deltas = _delta_tables(
        [scenario], markets, 0, row_size[:, None], row_n[:, None], np.arange(len(chis)), method, grid_spec
    )
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
    (level,) = _scan([scenario], [market.market_size], mus, markets, method, epsilon_safe, grid_spec)
    return {mu: level[(market.market_size, mu)] for mu in mus}
