"""Joint default probability and the leverage-diversification regime map.

The systemic default probability of two identical banks (leverage f,
diversification n, market of N projects) is Phi2(z, z, n/N).  Raising
leverage from a normal level f_n to an abnormal level f_a raises it by

    delta_phi2 = Phi2(z(f_a), z(f_a), n/N) - Phi2(z(f_n), z(f_n), n/N) >= 0.

A cell (N, n, chi) is "safe" when that increase is at most epsilon_safe,
and the critical diversification n* is the smallest n whose whole suffix
[n, N] is safe: one more than the largest risky n of the (N, chi) column,
1 when none is risky, and None (not an error) when n = N is risky.  One
generator, ``_deltas``, evaluates the cells of every entry point at the
chi and mu T each column is labelled with: from each column's n range it
generates them in closed form, evaluates them in batches of a bounded
number of cells and rejects a materially negative differential.  A sweep
passes 1 <= n <= N and takes that maximum.  A critical scan first brackets
each n* by Phi1 alone: on the diagonal, delta is the integral of
2 phi(t) Phi(c t) over [z_n, z_a] with c = sqrt((1 - rho) / (1 + rho)) in
[0, 1] (Plackett 1954, Biometrika 41:351), and Phi(c t) lies between
Phi(t) and 1/2, which gives bounds L <= delta <= U for any rho in [0, 1]
(``_bounds``).  Cells the bounds decide need no Phi2, so the scan passes
``_deltas`` only the cells its bracket leaves open, once, and a dense
boundary map needs about as much memory as a small one.

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
from .gaussian import GridSpec, _error_bound, _ndtr, binorm_cdf
# asset_correlation, systemic_pd and z_score stay bound here, where perfbench/tracer.py wraps them
from .merton import MarketParams, asset_correlation, check_leverage, correlation_law, systemic_pd, z_cells, z_score

EPSILON_SAFE = 1e-6

@dataclass(frozen=True)
class LeverageScenario:
    """A normal/abnormal leverage pair; f_abnormal > f_normal strictly."""

    f_normal: float
    f_abnormal: float

    def __post_init__(self) -> None:
        check_leverage("f_normal", self.f_normal)
        check_leverage("f_abnormal", self.f_abnormal)
        if self.f_abnormal <= self.f_normal:
            raise DomainError(
                f"need f_abnormal > f_normal, got {self.f_abnormal} <= {self.f_normal}"
            )

    @property
    def delta_f(self) -> float:
        return self.f_abnormal - self.f_normal


# the rounding level of a difference of two Phi2 values in [0, 1], a few
# ulps of 1: neither route decreases in z but by rounding (linear lookups
# step down by at most 2.2e-16, the oracle by 1.1e-16), so a delta below
# -_DELTA_SLACK is a defect, not noise
_DELTA_SLACK = 1e-15

# cells per Phi2 call of any evaluation: bounds a batch's per-cell arrays,
# the oracle's temporaries included, to about 16 MB; no output depends on it
_SCAN_BUDGET = 65_536


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A regime sweep as read-only columns, one entry per (N, n, chi) cell
    sorted by (N, chi, n), plus the per-(N, chi) critical levels n*, each
    one more than the column's largest risky n."""

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
        """The sweep as ``json.dumps(doc, indent=2)`` of its nested document:
        per market size, its cells in order and its n* keyed by ``repr(chi)``."""
        labels = ("safe", "risky")
        markets = {size: {"cells": [], "critical_n_by_chi": {}} for size in self.market_sizes()}
        for size, n, chi, delta, risky in zip(
            self.market_size.tolist(), self.n.tolist(), self.chi.tolist(), self.delta_phi2.tolist(), self.risky.tolist()
        ):
            markets[size]["cells"].append({"n": n, "chi": chi, "delta_phi2": delta, "regime": labels[risky]})
        for (size, chi), level in sorted(self.critical_n.items()):
            markets[size]["critical_n_by_chi"][repr(chi)] = level
        doc = {
            "scenario": {"f_normal": self.scenario.f_normal, "f_abnormal": self.scenario.f_abnormal},
            "mu": self.mu,
            "epsilon_safe": self.epsilon_safe,
            "markets": markets,  # json writes each int size key as str(size)
        }
        return json.dumps(doc, indent=2)


def delta_phi2(
    scenario: LeverageScenario,
    n: int,
    market: MarketParams,
    method: str | GridSpec = "oracle",
) -> float:
    """Increase in systemic default probability caused by moving from the
    normal to the abnormal leverage; nonnegative up to method tolerance."""
    size = market.market_size
    if not is_int(n) or not 1 <= n <= size:
        raise DomainError(f"invalid cell (N={size}, n={n!r}): need 1 <= n <= N")
    chi, shift = [market.chi], [market.drift * market.horizon]
    _check_box([size], chi, shift, 0.0)
    cols, cell = _columns(1, [size], 1), np.array([n])
    return next(_deltas([scenario], chi, shift, cols, np.zeros(1, int), cell, cell, method))[2].item()


def _check_box(market_sizes: Sequence[int], chi: Sequence, shift: Sequence, epsilon_safe: float) -> None:
    """Check a box up front, in this order: its market sizes, that it has
    markets, each market's chi and shift mu T, epsilon_safe."""
    if len(market_sizes) == 0:
        raise ConfigError("market_sizes must be non-empty")
    for size in market_sizes:
        if not is_int(size) or size < 1:
            raise ConfigError(f"market sizes must be integers >= 1, got {size!r}")
    if len(chi) == 0:
        raise ConfigError("a box needs at least one market (chi/mu value)")
    for value in (*chi, *shift):
        if not math.isfinite(value):
            raise DomainError(f"chi and mu must be finite, got {value!r}")
    if not all(x > 0.0 for x in chi):
        raise DomainError("delta_phi2 requires chi > 0 (sigma > 0 and T > 0)")
    if not (math.isfinite(epsilon_safe) and epsilon_safe >= 0.0):
        raise DomainError(f"epsilon_safe must be finite and >= 0, got {epsilon_safe!r}")


def _columns(scenario_count: int, market_sizes: Sequence[int], market_count: int) -> np.ndarray:
    """The columns (scenario s, N, market m) of a box in that order, as the
    rows of a (3, columns) array."""
    grid = np.meshgrid(range(scenario_count), market_sizes, range(market_count), indexing="ij")
    return np.array(grid, dtype=int).reshape(3, -1)


def _deltas(scenarios: Sequence, chi: Sequence, shift: Sequence, cols, live, lo, hi, method: str | GridSpec):
    """delta_phi2 at the cells lo[j] <= n <= hi[j] of each column live[j] of
    ``cols`` (see ``_columns``), yielded as batches (c, n, delta): each
    cell's column, n and differential.  Market m has risk constant chi[m]
    and drift shift mu T = shift[m].  Columns run in the order given, n
    ascending; a batch is one Phi2 call of at most _SCAN_BUDGET cells, cut
    only between columns (a larger column is one batch).  Raises DomainError
    at the first cell negative beyond _DELTA_SLACK."""
    s, size, m = cols
    f = np.array([[sc.f_normal, sc.f_abnormal] for sc in scenarios])
    chi, shift = np.asarray(chi, dtype=float), np.asarray(shift, dtype=float)
    held = hi >= lo
    live, lo, count = live[held], lo[held], (hi - lo + 1)[held]
    ends = np.cumsum(count)  # column j's cells are [ends[j] - count[j], ends[j])
    first = 0
    while first < live.size:  # a batch is columns [first, last)
        base = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, base + _SCAN_BUDGET, side="right")))
        k = count[first:last]
        c = np.repeat(live[first:last], k)
        n = np.repeat(lo[first:last] - (ends[first:last] - k - base), k) + np.arange(ends[last - 1] - base)
        z = np.stack([z_cells(f, n, chi[m[c]], shift[m[c]], at=(s[c], level)) for level in (0, 1)])
        pd = binorm_cdf(z, z, correlation_law(n, size[c])[0], method)
        delta = pd[1] - pd[0]
        bad = np.flatnonzero(~(delta >= -_DELTA_SLACK))
        if bad.size:
            i, j = bad[0], c[bad[0]]
            raise DomainError(
                f"leverage differential {delta[i].item()} is negative beyond numerical "
                f"slack at (N={size[j]}, n={n[i]}, chi={chi[m[j]].item()})"
            )
        yield c, n, delta
        first = last


def _levels(cols, star: np.ndarray, labels: Sequence, scenario_count: int) -> list[dict]:
    """Per scenario, {(N, label): n*} from each column's star = 1 + its
    largest risky n (1 if none), None where that is N + 1."""
    levels = [{} for _ in range(scenario_count)]
    for s, size, m, k in zip(*cols.tolist(), star.tolist()):
        levels[s][(size, labels[m])] = None if k > size else k
    return levels


def _bounds(scenarios: Sequence[LeverageScenario], chi: Sequence, shift: Sequence, top: int):
    """Phi1-only bounds L <= delta <= U at n = 1..top of each scenario s and
    market m (chi and shift as in ``_deltas``), and delta at rho = 1, each as
    an array indexed [s, m, n - 1].  With a = z_a(n), b = z_n(n),
    x- = min(x, 0) and x+ = max(x, 0),

        L = Phi(a-)^2 - Phi(b-)^2 + Phi(a+) - Phi(b+),
        U = Phi(a-) - Phi(b-) + Phi(a+)^2 - Phi(b+)^2,

    the integral of 2 phi(t) Phi(c t) over [b, a] with Phi(c t) replaced by
    Phi(t) or 1/2 on each side of t = 0.  Neither depends on rho, so they
    serve every market size N.  At rho = 1 delta is Phi(a) - Phi(b), the
    closed form every Phi2 route takes there, with the same z and Phi bits."""
    f = np.array([[sc.f_normal, sc.f_abnormal] for sc in scenarios]).reshape(-1, 2)
    n = np.arange(1, top + 1)
    chi, shift = np.asarray(chi, dtype=float)[:, None], np.asarray(shift, dtype=float)[:, None]
    s = np.arange(len(f))[:, None, None]
    pb, pa = (_ndtr(z_cells(f, n, chi, shift, at=(s, level))) for level in (0, 1))
    # Phi(0) = 1/2 exactly, so Phi(x-) = min(Phi(x), 1/2) and Phi(x+) = max(Phi(x), 1/2)
    lb, la, hb, ha = np.minimum(pb, 0.5), np.minimum(pa, 0.5), np.maximum(pb, 0.5), np.maximum(pa, 0.5)
    return la * la - lb * lb + ha - hb, la - lb + ha * ha - hb * hb, pa - pb


def _bracket(
    scenarios: Sequence[LeverageScenario], chi: Sequence, shift: Sequence, cols, epsilon_safe: float, margin: float
):
    """Per column (s, N, m) of ``cols`` (see ``_columns``), lo <= n* <= hi
    with n* = N + 1 for None, from ``_bounds``: lo is N + 1 where delta at
    n = N is risky, else 1 + the largest n <= N with L > epsilon_safe +
    margin; hi is 1 + the largest n <= N with U > epsilon_safe - margin (1
    if none).  The cells lo <= n < min(hi, N) are the ones left open."""
    s, size, m = cols
    low, high, full = _bounds(scenarios, chi, shift, int(size.max(initial=1)))
    n = np.arange(1, low.shape[-1] + 1)
    # running maxima over n: at (s, m, N - 1), 1 + the largest n <= N past its threshold
    lo, hi = (
        1 + np.maximum.accumulate(np.where(bound > threshold, n, 0), axis=-1)[s, m, size - 1]
        for bound, threshold in ((low, epsilon_safe + margin), (high, epsilon_safe - margin))
    )
    return np.where(full[s, m, size - 1] <= epsilon_safe, lo, size + 1), hi


def _scan(
    scenarios: Sequence[LeverageScenario], market_sizes: Sequence[int], labels: Sequence,
    chi: Sequence, shift: Sequence, method: str | GridSpec, epsilon_safe: float,
) -> list[dict]:
    """Per scenario, {(N, label): n*} for each market size and labelled
    market (chi and shift as in ``_deltas``).  ``_bracket`` bounds each
    column's n* by Phi1 alone, with the method's stated error bound as margin,
    and closes a column that is risky at n = N as None.  The cells it leaves
    open, lo <= n < min(hi, N), go to ``_deltas`` in one pass, columns in
    order of N, and n* is one more than the largest risky n among them, or
    lo if none is.  Memory is bounded by the batch and the bounds, scenarios
    x markets x max N doubles, not by the box.  An empty scenario list is
    rejected before the box's own checks."""
    if len(scenarios) == 0:
        raise ConfigError("scenarios must be non-empty")
    _check_box(market_sizes, chi, shift, epsilon_safe)
    cols = _columns(len(scenarios), market_sizes, len(chi))
    size = cols[1]
    star, hi = _bracket(scenarios, chi, shift, cols, epsilon_safe, _error_bound(method))
    # by N: columns of one size share their correlations, which the grid
    # tabulates once per batch
    live = np.argsort(size, kind="stable")
    for c, n, delta in _deltas(scenarios, chi, shift, cols, live, star[live], np.minimum(hi, size)[live] - 1, method):
        risky = ~(delta <= epsilon_safe)
        np.maximum.at(star, c[risky], n[risky] + 1)
    return _levels(cols, star, labels, len(scenarios))


def critical_diversification(
    scenario: LeverageScenario,
    market: MarketParams,
    method: str | GridSpec = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> int | None:
    """Smallest n such that every n' in [n, N] is safe, or None if even
    n = N is risky: the drift scan at the market's own drift."""
    return mu_sensitivity(scenario, market, [market.drift], method, epsilon_safe)[market.drift]


def default_chi_grid(points: int = 100) -> np.ndarray:
    """Log-spaced chi grid over the standard sweep box, chi in [0.001, 9]."""
    if not is_int(points) or points < 1:
        raise ConfigError(f"points must be an integer >= 1, got {points!r}")
    return np.logspace(math.log10(0.001), math.log10(9.0), points)


def critical_table(
    scenarios: Sequence[LeverageScenario],
    market_sizes: Sequence[int],
    chi_values: Iterable[float],
    method: str | GridSpec = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> list[dict[tuple[int, float], int | None]]:
    """Critical diversification at every (N, chi), per scenario, from one
    scan of the cells a Phi1-only bracket leaves open."""
    chis = [float(c) for c in chi_values]
    return _scan(scenarios, market_sizes, chis, chis, [0.0] * len(chis), method, epsilon_safe)


def regime_sweep(
    scenario: LeverageScenario,
    market_sizes: Sequence[int],
    chi_values: Iterable[float],
    mu: float = 0.0,
    method: str | GridSpec = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> SweepResult:
    """Classify every (N, n, chi) cell and derive the per-(N, chi) critical
    levels from the same delta values.

    All cells 1 <= n <= N of every column go through ``_deltas`` in one
    pass, in bounded batches, and are sorted by (N, chi, n), stably, so
    repeated sweeps produce identical results.
    """
    chis = [float(c) for c in chi_values]
    shift = [mu] * len(chis)
    _check_box(market_sizes, chis, shift, epsilon_safe)
    cols = _columns(1, market_sizes, len(chis))
    batches = _deltas([scenario], chis, shift, cols, np.arange(cols.shape[1]), np.ones_like(cols[1]), cols[1], method)
    c, n, delta = map(np.concatenate, zip(*batches))
    _, size, m = cols[:, c]
    chi = np.array(chis)[m]
    star = np.ones(cols.shape[1], dtype=int)
    risky = ~(delta <= epsilon_safe)
    np.maximum.at(star, c[risky], n[risky] + 1)
    order = np.lexsort((n, chi, size))
    columns = [col[order] for col in (size, n, chi, delta)]
    for col in columns:
        col.setflags(write=False)
    return SweepResult(scenario, mu, epsilon_safe, *columns, _levels(cols, star, chis, 1)[0])


def mu_sensitivity(
    scenario: LeverageScenario,
    market: MarketParams,
    mu_values: Sequence[float],
    method: str | GridSpec = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> dict[float, int | None]:
    """Critical diversification as a function of the drift mu."""
    mus = [float(mu) for mu in mu_values]
    shift = [mu * market.horizon for mu in mus]
    (level,) = _scan([scenario], [market.market_size], mus, [market.chi] * len(mus), shift, method, epsilon_safe)
    return {mu: level[(market.market_size, mu)] for mu in mus}
