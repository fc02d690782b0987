"""
Standard-normal and bivariate-normal primitives.

The bivariate CDF Phi2(z1, z2, rho) is available through two structurally
different routes:

* ``binorm_cdf_oracle`` -- near double precision by Gauss-Legendre
  quadrature of the single-integral reduction

      Phi2(a, b, rho) = Phi(a) Phi(b)
          + 1/(2 pi) * int_0^asin(rho) exp(-(a^2 + b^2 - 2 a b sin t)
                                           / (2 cos^2 t)) dt

  which follows from d Phi2 / d rho = exp(-(a^2 - 2 rho a b + b^2)
  / (2 (1 - rho^2))) / (2 pi sqrt(1 - rho^2)), the bivariate density, with
  the substitution rho = sin t (Drezner & Wesolowsky 1990, J. Stat. Comput.
  Simul. 35:101).  A 20-point rule serves |rho| < 0.925; above that the
  integrand peaks near the endpoint and Genz's form takes over (Genz 2004,
  Stat. Comput. 14:251): the rho = +/-1 limit plus an integral in
  x = sqrt(1 - r^2) whose leading expansion terms are integrated in
  closed form and the smooth remainder by the same rule.  rho in
  {0, +1, -1} use exact closed forms.  Measured error against 40-digit
  mpmath on the diagonal z1 = z2 in [-8, 3]: at most 1e-15 for rho in
  [0, 1 - 1e-5], 1e-13 for 1 - rho in [1e-9, 1e-5]; off it, at most 1.7e-13
  against adaptive quadrature on 10^4 triples with |z| <= 8 and rho of
  either sign (the quadrature's own error; see tests/quad_reference.py).
  The arcsine rule zeroes lanes whose exp is +0.0 (exponent < -745.2) by
  itself, as numpy's SIMD exp is slow on them; the bits are unchanged.

* ``binorm_cdf_grid`` -- a tabulate-and-sum scheme on a uniform grid:
  density at the cell corners, per-cell volume from the four-corner
  average times the cell area, a cumulative double sum, and bilinear
  lookup between the tabulated nodes.  Coarser (abs error <= 1e-3 at the
  default grid, in practice ~1e-5) but independent of the quadrature
  route, so the two can cross-check each other.

Both are array-valued: arguments broadcast, the grid tabulates each
distinct correlation once per call, and scalar arguments give a float.
No table is kept between calls: a caller that queries one correlation many
times keeps the ``CdfGrid`` that ``tabulate_cdf_grid`` returns and calls
its ``lookup``.
A grid call tabulates only the leading block of nodes its queries reach
(the analysis queries the diagonal at z <= ~2, about a quarter of the
default square), and of that block only the rows its bilinear lookups
read: rows i and i + 1 of each query's cell (a sweep reads about a quarter
of them, table1 about 3%).  The table is filled a cache-sized block of
rows at a time, with the axis-0 running sum carried from one block to the
next through every row; only the axis-1 sums are restricted to the kept
rows, and the only large array is the table of kept rows itself.  That
fill is bit for bit the whole-array pass: density, corner mean and volume
are elementwise with the same operations in the same order, and both
cumulative sums add strictly in prefix order.  For the same reason a
bounded table equals those rows of that corner of the full table bit for
bit, and every lookup returns what the full table would.
Phi is Cephes ``ndtr`` (Moshier 1989, *Methods and Programs for
Mathematical Functions*), the algorithm ``scipy.special.ndtr`` runs, ported
to NumPy and ``math`` so levdiv needs numpy only; tests check it equals
scipy's bit for bit.  Its exp(-x^2) goes through ``math.exp``, which is
libm's, as in Cephes: numpy's SIMD ``exp`` can differ from libm in the
last bit (with numpy 2.4 on an AVX-512 Xeon: 91,823 of 2e6 uniform
arguments in [-709, -0.5], each by one ulp).
Inputs of a few elements take a per-float path, larger ones a masked array
path; both call the same Horner helpers.
All functions are pure; ``CdfGrid`` instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateCorrelationError, DomainError, is_int

# Grid tabulation is unusable this close to |rho| = 1; callers fall back to
# the exact degenerate forms (see binorm_cdf).
DEGENERATE_RHO_TOL = 1e-9


def _as_rho(rho) -> np.ndarray:
    """Correlations as a float array (0-d for a scalar), each in [-1, 1]."""
    r = np.asarray(rho, dtype=float)
    if not ((r >= -1.0) & (r <= 1.0)).all():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    return r


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the square [z_min, z_max]^2."""

    z_min: float = -8.0
    z_max: float = 8.0
    cells_per_axis: int = 2000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z_min) and math.isfinite(self.z_max)):
            raise ConfigError("grid bounds must be finite")
        if not self.z_min < self.z_max:
            raise ConfigError(
                f"need z_min < z_max, got [{self.z_min}, {self.z_max}]"
            )
        if not is_int(self.cells_per_axis) or self.cells_per_axis < 2:
            raise ConfigError(
                f"cells_per_axis must be an integer >= 2, got {self.cells_per_axis!r}"
            )

    @property
    def cell_width(self) -> float:
        return (self.z_max - self.z_min) / self.cells_per_axis


DEFAULT_GRID = GridSpec()


# Cephes ndtr.c rational approximations (Moshier 1989), highest power
# first; Q, S and U carry an implicit leading 1.
#   erf(x)  = x T(x^2) / U(x^2)            for |x| <= 1
#   erfc(x) = exp(-x^2) P(x) / Q(x)        for 1 <= x < 8
#   erfc(x) = exp(-x^2) R(x) / S(x)        for x >= 8
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# ln(DBL_MAX): past it exp(-x^2) underflows and erfc(x) is taken as 0
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)
# inputs up to this many elements take the per-float path: below it the
# array path's fixed cost of about a hundred ufunc calls dominates (the two
# cost the same near 50 elements)
_FLOAT_PATH_MAX = 32


def _polevl(x, coefs, monic: bool = False):
    """Horner's rule in Cephes' order: polevl starts at c0, p1evl (monic)
    at x + c0.  Floats or arrays."""
    y = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc_tail(z, exp_neg_z2, num, den):
    """erfc(z) for z >= 1 from exp(-z^2) and the (P, Q) or (R, S) pair."""
    return exp_neg_z2 * _polevl(z, num) / _polevl(z, den, monic=True)


def _ndtr_float(a: float) -> float:
    """Cephes ndtr on one float."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z <= _MAXLOG:
        pair = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * _erfc_tail(z, math.exp(-z * z), *pair)
    else:
        return math.nan if z != z else (1.0 if x > 0.0 else 0.0)
    return 1.0 - y if x > 0.0 else y


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    """_ndtr_float elementwise by masks: each branch runs only on its own
    elements, through the same helpers, so every element gets its bits."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    core = z < _SQRT1_2
    low = z < 1.0
    if low.any():
        # one erf pass: erf(x) in the core, erf(z) out to z = 1
        e = _erf(np.where(core, x, z)[low])
        y[low] = np.where(core[low], 0.5 + 0.5 * e, 0.5 * (1.0 - e))
    zz = z * z
    for lo, hi, num, den in ((1.0, 8.0, _ERFC_P, _ERFC_Q), (8.0, math.inf, _ERFC_R, _ERFC_S)):
        m = (z >= lo) & (z < hi) & (zz <= _MAXLOG)
        if m.any():
            t = z[m]
            # libm's exp, as in Cephes: numpy's SIMD exp can differ in the last bit
            e = np.fromiter(map(math.exp, (-t * t).tolist()), float, t.size)
            y[m] = 0.5 * _erfc_tail(t, e, num, den)
    y[zz > _MAXLOG] = 0.0
    np.subtract(1.0, y, out=y, where=(x > 0.0) & ~core)
    return y


def _ndtr(a):
    """Standard normal CDF, Cephes ndtr: bit for bit scipy.special.ndtr.
    Arrays keep their shape; a scalar gives a float."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return _ndtr_float(float(a))
    if a.size > _FLOAT_PATH_MAX:
        return _ndtr_array(a)
    return np.array([_ndtr_float(v) for v in a.ravel().tolist()]).reshape(a.shape)


def phi1(z: float) -> float:
    """Standard normal CDF: Cephes ``ndtr``, bit-identical to
    ``scipy.special.ndtr``.  Its exp(-x^2) is ``math.exp``, libm's as in
    Cephes, since numpy's SIMD ``exp`` can differ in the last bit."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"phi1 requires a finite argument, got {z!r}")
    return _ndtr_float(z)


# 20-point Gauss-Legendre rule, nodes shifted from [-1, 1] to [0, 2]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES = _GL_NODES + 1.0
# above this |rho| the arcsine integrand is too peaked for the fixed rule
_GENZ_SPLIT = 0.925
_TWO_PI = 2.0 * math.pi
# cells per pass of a rule: bounds its (cells, nodes) temporaries to ~1 MB
_CHUNK = 4096
# exp(x) rounds to +0.0 below about -745.133, under half the least subnormal
_EXP_ZERO = -745.2
_Z_FAR = 40.0  # Phi(-40) ~ 4e-350, below the least subnormal; ndtr there is 0 or 1


def _node_sum(values: np.ndarray) -> np.ndarray:
    """Weighted sum over the node axis.  A fixed-order elementwise sum, not
    a BLAS product, so a cell gets the same bits in any batch size."""
    return (values * _GL_WEIGHTS).sum(-1)


def _phi2_arcsine(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Phi2 for 0 < |r| < _GENZ_SPLIT: the rule applied to the integral over
    t in [0, asin r] of exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t))."""
    # the node factors depend on r alone: evaluate them once per distinct
    # correlation (sweeps repeat each over many cells) and gather
    distinct, at = np.unique(r, return_inverse=True)
    half = np.arcsin(distinct) / 2.0
    s = np.sin(half[:, None] * _GL_NODES)
    x = np.take(s, at, axis=0)
    x *= (h * k)[:, None]
    x -= ((h * h + k * k) / 2.0)[:, None]
    x /= np.take(1.0 - s * s, at, axis=0)
    zero = x < _EXP_ZERO  # exp is exactly 0 there, but slow
    x[zero] = 0.0
    np.exp(x, out=x)
    x[zero] = 0.0
    ph = _ndtr(h)
    pk = ph if np.array_equal(h, k) else _ndtr(k)  # sweeps query the diagonal
    return _node_sum(x) * half[at] / _TWO_PI + ph * pk


def _phi2_near_degenerate(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Phi2 for _GENZ_SPLIT <= |r| < 1 (Genz 2004): the r = +/-1 limit
    plus an integral in x = sqrt(1 - s^2) from 0 to sqrt(1 - r^2), whose
    leading expansion terms are integrated in closed form and the smooth
    remainder by the rule.  Variable names follow Genz's BVNU."""
    h, k = -h, np.where(r < 0.0, k, -k)  # upper-orthant thresholds
    hk = h * k
    omr2 = 1.0 - r * r
    a = np.sqrt(omr2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr = np.maximum(-(bs / omr2 + hk) / 2.0, -100.0)  # dropped there; keeps exp fast
    bvn = np.where(
        asr > -100.0,
        a * np.exp(asr) * (1.0 - c * (bs - omr2) * (1.0 - d * bs) / 3.0 + c * d * omr2 * omr2),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(_TWO_PI) * _ndtr(-b / a)
    bvn -= np.where(
        hk > -100.0,
        np.exp(-np.maximum(hk, -100.0) / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0),
        0.0,
    )
    a = a / 2.0
    xs = (a[:, None] * _GL_NODES) ** 2
    hk_, c_, d_ = hk[:, None], c[:, None], d[:, None]
    asr = np.maximum(-(bs[:, None] / xs + hk_) / 2.0, -100.0)
    sp = 1.0 + c_ * xs * (1.0 + 5.0 * d_ * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-(hk_ / 2.0) * xs / (1.0 + rs) ** 2) / rs
    terms = np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    bvn = (a * _node_sum(terms) - bvn) / _TWO_PI
    # each branch evaluates Phi only on its own cells
    out = -bvn  # r < 0 and h >= k
    pos = r > 0.0
    out[pos] = bvn[pos] + _ndtr(-np.maximum(h[pos], k[pos]))
    gap = (r < 0.0) & (h < k)
    hg, kg = h[gap], k[gap]
    below = hg < 0.0  # Phi(k) - Phi(h) below zero, Phi(-h) - Phi(-k) above
    out[gap] = _ndtr(np.where(below, kg, -hg)) - _ndtr(np.where(below, hg, -kg)) - bvn[gap]
    return out


def binorm_cdf_oracle(z1, z2, rho):
    """Phi2(z1, z2, rho) to near double precision; arguments broadcast.

    Closed forms at rho in {0, +1, -1} and the rho = 1 limit past |z| = 40,
    the 20-point arcsine rule for |rho| < 0.925 and Genz's form above it.
    Returns a float when every argument is a scalar, else an array.
    """
    z1, z2, r = np.broadcast_arrays(
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), _as_rho(rho)
    )
    if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
        raise DomainError("binorm_cdf_oracle requires finite coordinates")
    h, k, r = z1.ravel(), z2.ravel(), r.ravel()
    out = np.empty(h.shape)
    far = np.maximum(np.abs(h), np.abs(k)) > _Z_FAR  # Phi2 rounds to its rho = 1 limit
    if far.any():  # which the rules would overflow on: take it from the clamped pair
        h, k, r = np.clip(h, -_Z_FAR, _Z_FAR), np.clip(k, -_Z_FAR, _Z_FAR), np.where(far, 1.0, r)
    zero, pos, neg = r == 0.0, r == 1.0, r == -1.0
    out[zero] = _ndtr(h[zero]) * _ndtr(k[zero])
    out[pos] = _ndtr(np.minimum(h[pos], k[pos]))
    out[neg] = np.maximum(0.0, _ndtr(h[neg]) + _ndtr(k[neg]) - 1.0)
    mid = (np.abs(r) < _GENZ_SPLIT) & ~zero
    high = ~(mid | zero | pos | neg)
    for rule, cells in ((_phi2_arcsine, mid), (_phi2_near_degenerate, high)):
        cells = np.flatnonzero(cells)
        for start in range(0, cells.size, _CHUNK):
            i = cells[start : start + _CHUNK]
            out[i] = rule(h[i], k[i], r[i])
    np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(z1.shape) if z1.ndim else float(out[0])


@dataclass(frozen=True)
class CdfGrid:
    """Tabulated cumulative volumes of the bivariate density on a GridSpec.

    ``node_values[r, j]`` holds the accumulated volume over the cells below
    and left of node (axis_coordinates[rows[r]], axis_coordinates[j]);
    ``rows`` is None when the table holds every row, so row r is node r.
    Node row 0 and column 0 are zero by construction.  The table may cover
    only the leading square block of the spec's nodes, and of that block
    only the rows in ``rows`` (see ``tabulate_cdf_grid``); a lookup whose
    cell reaches past the block or needs a row not held raises DomainError.
    """

    spec: GridSpec
    rho: float
    axis_coordinates: np.ndarray
    node_values: np.ndarray
    rows: np.ndarray | None = None

    def lookup(self, z1, z2):
        """Bilinear interpolation of the tabulation; out-of-range points
        are clamped to the grid boundary and results clipped to [0, 1].
        Array-valued in (z1, z2); scalar coordinates give a float."""
        vals = self.node_values
        i, tx = _cell_index(self.spec, np.asarray(z1, dtype=float))
        j, ty = _cell_index(self.spec, np.asarray(z2, dtype=float))
        extent = _extent(i, j)
        nodes = self.axis_coordinates.size
        if extent > nodes:
            raise DomainError(
                f"lookup reaches node {extent - 1}, past the "
                f"{nodes}-node tabulated block"
            )
        if self.rows is not None:
            held = np.zeros(nodes, dtype=bool)
            held[self.rows] = True
            if not (held[i] & held[i + 1]).all():
                raise DomainError("lookup needs a node row that was not tabulated")
            # rows is strictly increasing, so node row i + 1 sits right after node row i
            i = np.searchsorted(self.rows, i)
        v = (
            vals[i, j] * (1.0 - tx) * (1.0 - ty)
            + vals[i + 1, j] * tx * (1.0 - ty)
            + vals[i, j + 1] * (1.0 - tx) * ty
            + vals[i + 1, j + 1] * tx * ty
        )
        v = np.clip(v, 0.0, 1.0)
        return v if v.ndim else float(v)


def _cell_index(spec: GridSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of each (clamped) coordinate and its fraction within the cell."""
    if np.isnan(z).any():
        raise DomainError("binorm_cdf_grid requires non-NaN coordinates")
    f = (np.clip(z, spec.z_min, spec.z_max) - spec.z_min) / spec.cell_width
    i = np.minimum(f.astype(np.intp), spec.cells_per_axis - 1)
    return i, f - i


def _extent(i: np.ndarray, j: np.ndarray) -> int:
    """Nodes per axis a lookup of cells (i, j) reads: the corners of the
    highest cell on either axis, so the block stays square."""
    return int(max(i.max(initial=0), j.max(initial=0))) + 2


# Doubles in each scratch block of a tabulation (~0.5 MB, so a block of
# density rows stays in cache while its corner means and sums are formed).
# No output depends on it.
_SCRATCH_BUDGET = 65_536


# Stores nothing.  The decorator stays only for the benchmark harness: it
# calls cache_clear() and counts tabulations from cache_info().misses.
@lru_cache(maxsize=0)
def tabulate_cdf_grid(
    rho: float, spec: GridSpec = DEFAULT_GRID, extent: int | None = None, rows=None
) -> CdfGrid:
    """Build the cumulative tabulation for one correlation on the first
    ``extent`` nodes per axis (all cells_per_axis + 1 when None), keeping
    only the node rows in ``rows``: strictly increasing indices below the
    extent, or None for every row.

    Steps: density at the grid nodes; per-cell mean of the four corner
    values; volume = mean density times squared cell width; cumulative
    double sum.  The table is filled a block of rows at a time: each block
    evaluates its density rows (the previous block's last row carried
    over), forms its volumes and continues the axis-0 running sum from the
    previous block's last sum row; the axis-1 sums run only on the block's
    kept rows, written straight into the table.  The fill stops at the
    last kept row.  That is bit for bit the whole-array pass: density,
    corner mean and volume are elementwise with the same operations in the
    same order, and both cumulative sums add strictly in prefix order, so
    neither the block size, the extent nor the kept rows change any
    element.  A table is therefore those rows of the leading block of the
    full one.

    Every call tabulates afresh; no table is kept.  To query one
    correlation many times, keep the returned ``CdfGrid`` and call its
    ``lookup``.
    """
    rho = float(_as_rho(rho))
    if abs(rho) > 1.0 - DEGENERATE_RHO_TOL:
        raise DegenerateCorrelationError(
            f"grid tabulation unstable for |rho| > {1.0 - DEGENERATE_RHO_TOL}; "
            "use the closed-form degenerate cases"
        )
    if extent is not None and not (is_int(extent) and 2 <= extent <= spec.cells_per_axis + 1):
        raise ConfigError(
            f"extent must be None or an integer in [2, {spec.cells_per_axis + 1}], got {extent!r}"
        )
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    m = nodes.size
    keep = np.arange(m) if rows is None else np.array(rows)
    if not (
        keep.ndim == 1
        and keep.dtype.kind in "iu"
        and (np.diff(keep) > 0).all()
        and 0 <= keep.min(initial=0)
        and keep.max(initial=0) < m
    ):
        raise ConfigError(
            f"rows must be None or strictly increasing node indices in [0, {m - 1}], got {rows!r}"
        )
    omr2 = 1.0 - rho * rho
    z2 = nodes[None, :]
    z2_sq = z2 * z2
    norm = 2.0 * np.pi * np.sqrt(omr2)
    area = spec.cell_width**2

    def density(lo: int, out: np.ndarray) -> None:
        # rows [lo, lo + len(out)) of exp(((2 rho z1 z2 - z1^2) - z2^2) / (2 omr2)) / norm
        z1 = nodes[lo : lo + len(out), None]
        np.multiply(2.0 * rho * z1, z2, out=out)
        np.subtract(out, z1 * z1, out=out)
        np.subtract(out, z2_sq, out=out)
        np.divide(out, 2.0 * omr2, out=out)
        np.exp(out, out=out)
        np.divide(out, norm, out=out)

    block = min(m - 1, max(1, _SCRATCH_BUDGET // m))  # cells per block
    g = np.empty((block + 1, m))  # row 0 carries the previous block's last density row
    sums = np.zeros((block + 1, m - 1))  # row 0 carries the previous block's last running sum
    cdf = np.zeros((keep.size, m))
    top = int(keep.max(initial=0))  # no row past the last kept one is needed
    density(0, g[:1])
    for lo in range(0, top, block):
        k = min(block, top - lo)
        density(lo + 1, g[1 : k + 1])
        vol = sums[1 : k + 1]
        np.add(g[:k, :-1], g[1 : k + 1, :-1], out=vol)
        np.add(vol, g[:k, 1:], out=vol)
        np.add(vol, g[1 : k + 1, 1:], out=vol)
        np.multiply(0.25, vol, out=vol)
        np.multiply(vol, area, out=vol)
        # the axis-0 running sum over row views (the first block's carried row is zero)
        for prev, row in zip(sums[:k], sums[1 : k + 1]):
            np.add(prev, row, out=row)
        # the block's table rows lo + 1 .. lo + k sit at keep[a:b]
        a, b = np.searchsorted(keep, (lo + 1, lo + k + 1))
        np.cumsum(sums[keep[a:b] - lo], axis=1, out=cdf[a:b, 1:])
        g[0] = g[k]
        sums[0] = sums[k]
    for arr in (nodes, cdf, keep):
        arr.setflags(write=False)
    return CdfGrid(
        spec=spec,
        rho=rho,
        axis_coordinates=nodes,
        node_values=cdf,
        rows=None if rows is None else keep,
    )


def binorm_cdf_grid(z1, z2, rho: float, spec: GridSpec = DEFAULT_GRID):
    """Phi2 via the grid tabulation of one correlation (abs error <= 1e-3
    at the default spec); array-valued in (z1, z2).  Tabulates only the
    block of nodes the queries reach, and of it only the rows their cells
    read."""
    z1, z2 = np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    i, j = _cell_index(spec, z1)[0], _cell_index(spec, z2)[0]
    return tabulate_cdf_grid(rho, spec, _extent(i, j), np.union1d(i, i + 1)).lookup(z1, z2)


def binorm_cdf(z1, z2, rho, method: str = "oracle", spec: GridSpec = DEFAULT_GRID):
    """Phi2 dispatcher; arguments broadcast.  ``method="grid"`` tabulates
    each distinct correlation once and routes correlations within
    DEGENERATE_RHO_TOL of +/-1 to the exact closed forms."""
    r = _as_rho(rho)
    if method == "oracle":
        return binorm_cdf_oracle(z1, z2, r)
    if method != "grid":
        raise ConfigError(f"unknown method {method!r}, expected 'grid' or 'oracle'")
    z1, z2, r = np.broadcast_arrays(np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), r)
    out = np.empty(r.shape)
    for value in np.unique(r):
        at = r == value
        if abs(value) > 1.0 - DEGENERATE_RHO_TOL:
            out[at] = binorm_cdf_oracle(z1[at], z2[at], 1.0 if value > 0 else -1.0)
        else:
            out[at] = binorm_cdf_grid(z1[at], z2[at], value, spec)
    return out if out.ndim else float(out)
