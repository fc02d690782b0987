"""Joint default probability and the leverage-diversification regime map.

The systemic default probability of two identical banks (leverage f,
diversification n, market of N projects) is Phi2(z, z, n/N).  Raising
leverage from a normal level f_n to an abnormal level f_a raises it by

    delta_phi2 = Phi2(z(f_a), z(f_a), n/N) - Phi2(z(f_n), z(f_n), n/N) >= 0.

A cell (N, n, chi) is "safe" when that increase is at most epsilon_safe,
and the critical diversification n* is the smallest n whose whole suffix
[n, N] is safe: one more than the largest risky n of the (N, chi) column,
1 when none is risky, and None (not an error) when n = N is risky.  Every
entry point checks its box once, in ``_box``, which lays out its columns
(scenario, N, market) and tabulates z once per (scenario, market, n): z
depends on f, n, chi and mu T but not on N, which enters only through
rho = n/N.  One generator, ``_deltas``, evaluates the cells of every entry
point: from each column's n range it generates them in closed form, reads
their z from the box, evaluates them in batches of a bounded number of
cells and rejects a materially negative differential.  A sweep
passes 1 <= n <= N and takes that maximum.  A critical scan first brackets
each n* by Phi1 alone: on the diagonal, delta is the integral of
2 phi(t) Phi(c t) over [z_n, z_a] with c = sqrt((1 - rho) / (1 + rho)) in
[0, 1] (Plackett 1954, Biometrika 41:351), and Phi(c t) lies between
Phi(t) and 1/2, which gives bounds L <= delta <= U for any rho in [0, 1]
(``_bounds``, Phi1 of the box's z).  Cells the bounds decide need no Phi2,
so the scan passes ``_deltas`` only the cells its bracket leaves open,
once; its memory stays O(scenarios x markets x max N), and a dense
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
from .gaussian import _error_bound, _ndtr, binorm_cdf
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
    method: str = "oracle",
) -> float:
    """Increase in systemic default probability caused by moving from the
    normal to the abnormal leverage; nonnegative up to method tolerance."""
    size = market.market_size
    if not is_int(n) or not 1 <= n <= size:
        raise DomainError(f"invalid cell (N={size}, n={n!r}): need 1 <= n <= N")
    box, cell = _box([scenario], [size], [market.chi], [market.drift * market.horizon], 0.0, n), np.array([n])
    return next(_deltas(box, np.zeros(1, int), cell, cell, method))[2].item()


def _box(scenarios: Sequence, market_sizes: Sequence, chi: Sequence, shift: Sequence, epsilon_safe: float, top=None):
    """Check a box up front, in this order: its scenarios, its market sizes,
    that it has markets, each market's chi and shift mu T, epsilon_safe.
    Returns its columns (scenario s, N, market m) in that order as the rows
    of a (3, columns) array, the markets' chi as floats, and the threshold
    z[level, s, m, n - 1] of the normal (level 0) and abnormal (1) leverage
    at n = 1..top, the largest market size unless given.  z does not depend
    on N, so the table serves every column of its (s, m)."""
    if len(scenarios) == 0:
        raise ConfigError("scenarios must be non-empty")
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
    grid = np.meshgrid(range(len(scenarios)), market_sizes, range(len(chi)), indexing="ij")
    f = np.array([[sc.f_normal, sc.f_abnormal] for sc in scenarios]).T[..., None, None]
    chi, shift = np.asarray(chi, dtype=float), np.asarray(shift, dtype=float)[:, None]
    n = np.arange(1, (max(market_sizes) if top is None else top) + 1)
    return np.array(grid, dtype=int).reshape(3, -1), chi, z_cells(f, n, chi[:, None], shift)


def _deltas(box, live, lo, hi, method: str):
    """delta_phi2 at the cells lo[j] <= n <= hi[j] of each column live[j] of
    the ``_box``, yielded as batches (c, n, delta): each cell's column, n
    and differential, with z read from the box's table.  Columns run in the
    order given, n ascending; a batch is one Phi2 call of at most
    _SCAN_BUDGET cells, cut only between columns (a larger column is one
    batch).  Raises DomainError at the first cell negative beyond
    _DELTA_SLACK."""
    (s, size, m), chi, table = box
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
        z = table[:, s[c], m[c], n - 1]
        pd = binorm_cdf(z, correlation_law(n, size[c])[0], method)
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


def _bounds(z: np.ndarray):
    """Phi1-only bounds L <= delta <= U at each (s, m, n) of a ``_box``'s
    z table, and delta at rho = 1, each as an array indexed [s, m, n - 1].
    With a = z_a(n), b = z_n(n), x- = min(x, 0) and x+ = max(x, 0),

        L = Phi(a-)^2 - Phi(b-)^2 + Phi(a+) - Phi(b+),
        U = Phi(a-) - Phi(b-) + Phi(a+)^2 - Phi(b+)^2,

    the integral of 2 phi(t) Phi(c t) over [b, a] with Phi(c t) replaced by
    Phi(t) or 1/2 on each side of t = 0.  Neither depends on rho, so they
    serve every market size N.  At rho = 1 delta is Phi(a) - Phi(b), the
    closed form every Phi2 route takes there, with the same z and Phi bits."""
    pb, pa = _ndtr(z)
    # Phi(0) = 1/2 exactly, so Phi(x-) = min(Phi(x), 1/2) and Phi(x+) = max(Phi(x), 1/2)
    lb, la, hb, ha = np.minimum(pb, 0.5), np.minimum(pa, 0.5), np.maximum(pb, 0.5), np.maximum(pa, 0.5)
    return la * la - lb * lb + ha - hb, la - lb + ha * ha - hb * hb, pa - pb


def _bracket(box, epsilon_safe: float, margin: float):
    """Per column (s, N, m) of the ``_box``, lo <= n* <= hi with n* = N + 1
    for None, from ``_bounds``: lo is N + 1 where delta at n = N is risky,
    else 1 + the largest n <= N with L > epsilon_safe + margin; hi is 1 +
    the largest n <= N with U > epsilon_safe - margin (1 if none).  The
    cells lo <= n < min(hi, N) are the ones left open."""
    (s, size, m), _, z = box
    low, high, full = _bounds(z)
    n = np.arange(1, low.shape[-1] + 1)
    # running maxima over n: at (s, m, N - 1), 1 + the largest n <= N past its threshold
    lo, hi = (
        1 + np.maximum.accumulate(np.where(bound > threshold, n, 0), axis=-1)[s, m, size - 1]
        for bound, threshold in ((low, epsilon_safe + margin), (high, epsilon_safe - margin))
    )
    return np.where(full[s, m, size - 1] <= epsilon_safe, lo, size + 1), hi


def _scan(box, labels: Sequence, method: str, epsilon_safe: float) -> list[dict]:
    """Per scenario, {(N, label): n*} for each market size and labelled
    market of the ``_box``.  ``_bracket`` bounds each column's n* by Phi1
    alone, with the method's stated error bound as margin, and closes a
    column that is risky at n = N as None.  The cells it leaves open, lo <=
    n < min(hi, N), go to ``_deltas`` in one pass, columns in order of N,
    and n* is one more than the largest risky n among them, or lo if none
    is.  Memory is bounded by the batch and the box's z table and bounds,
    O(scenarios x markets x max N) doubles, not by the box's cells."""
    cols, _, z = box
    size = cols[1]
    star, hi = _bracket(box, epsilon_safe, _error_bound(method))
    # by N: columns of one size share their correlations, which the grid
    # tabulates once per batch
    live = np.argsort(size, kind="stable")
    for c, n, delta in _deltas(box, live, star[live], np.minimum(hi, size)[live] - 1, method):
        risky = ~(delta <= epsilon_safe)
        np.maximum.at(star, c[risky], n[risky] + 1)
    return _levels(cols, star, labels, z.shape[1])


def critical_diversification(
    scenario: LeverageScenario,
    market: MarketParams,
    method: str = "oracle",
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
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> list[dict[tuple[int, float], int | None]]:
    """Critical diversification at every (N, chi), per scenario, from one
    scan of the cells a Phi1-only bracket leaves open."""
    chis = [float(c) for c in chi_values]
    return _scan(_box(scenarios, market_sizes, chis, [0.0] * len(chis), epsilon_safe), chis, method, epsilon_safe)


def regime_sweep(
    scenario: LeverageScenario,
    market_sizes: Sequence[int],
    chi_values: Iterable[float],
    mu: float = 0.0,
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> SweepResult:
    """Classify every (N, n, chi) cell and derive the per-(N, chi) critical
    levels from the same delta values.

    All cells 1 <= n <= N of every column go through ``_deltas`` in one
    pass, in bounded batches, and are sorted by (N, chi, n), stably, so
    repeated sweeps produce identical results.
    """
    chis = [float(c) for c in chi_values]
    box = _box([scenario], market_sizes, chis, [mu] * len(chis), epsilon_safe)
    cols, chi, _ = box
    batches = _deltas(box, np.arange(cols.shape[1]), np.ones_like(cols[1]), cols[1], method)
    c, n, delta = map(np.concatenate, zip(*batches))
    _, size, m = cols[:, c]
    chi = chi[m]
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
    method: str = "oracle",
    epsilon_safe: float = EPSILON_SAFE,
) -> dict[float, int | None]:
    """Critical diversification as a function of the drift mu."""
    mus = [float(mu) for mu in mu_values]
    shift = [mu * market.horizon for mu in mus]
    box = _box([scenario], [market.market_size], [market.chi] * len(mus), shift, epsilon_safe)
    (level,) = _scan(box, mus, method, epsilon_safe)
    return {mu: level[(market.market_size, mu)] for mu in mus}
