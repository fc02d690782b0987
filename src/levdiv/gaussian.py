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
  closed form and the smooth remainder by the same rule.  rho = +/-1 use
  exact closed forms; at rho = 0 the arcsine rule's interval [0, asin 0]
  is empty: Phi(z1) Phi(z2) exactly.  Measured error against 40-digit
  mpmath on the diagonal z1 = z2 in [-8, 3]: at most 1e-15 for rho in
  [0, 1 - 1e-5], 1e-13 for 1 - rho in [1e-9, 1e-5]; off it, at most 1.7e-13
  against adaptive quadrature on 10^4 triples with |z| <= 8 and rho of
  either sign (the quadrature's own error; see tests/quad_reference.py).
  The arcsine rule zeroes lanes whose exp is +0.0 (exponent < -745.2) by
  itself, as numpy's SIMD exp is slow on them; the bits are unchanged.

* ``binorm_cdf_grid`` -- Phi2(z, z, rho) on the diagonal, where every Phi2
  of two identical banks lies: one table per correlation, the cumulative
  trapezoidal rule of the slope d/dz Phi2(z, z, rho) on a uniform axis,
  read by linear interpolation, for rho in [-0.9999, 1).  Coarser
  (abs error <= 1e-3 at ``DEFAULT_GRID``, in practice ~1e-5) but
  independent of the quadrature route, so the two can cross-check each
  other.  A table on any other ``GridSpec`` carries no stated bound.

``binorm_cdf(z, rho, method)`` is the model's cell Phi2(z, z, rho).  Its
``method`` is the route: "oracle", or "grid", which tabulates each
distinct rho in [-0.9999, 1) once per call on ``DEFAULT_GRID``, the only
spec a route uses, and takes the oracle at every other rho;
``_error_bound`` gives the route's stated accuracy.  Arguments broadcast;
scalars give a float.
No table is kept between calls: a caller that queries one correlation many
times keeps the ``CdfGrid`` that ``tabulate_cdf_grid`` returns and calls
its ``lookup``; ``tabulate_cdf_grid`` explains how a table is sized from
its queries and filled.
Phi is Cephes ``ndtr`` (Moshier 1989, *Methods and Programs for
Mathematical Functions*), the algorithm ``scipy.special.ndtr`` runs, ported
to NumPy and ``math`` so levdiv needs numpy only; tests check it equals
scipy's bit for bit.  Its exp(-x^2) goes through ``math.exp``, which is
libm's, as in Cephes: numpy's SIMD ``exp`` can differ from libm in the
last bit (with numpy 2.4 on an AVX-512 Xeon: 91,823 of 2e6 uniform
arguments in [-709, -0.5], each by one ulp).
All functions are pure; ``CdfGrid`` instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, is_int

_GRID_RHO_MIN = -0.9999  # a grid table's least correlation; see _GRID_BOUND


def _as_rho(rho) -> np.ndarray:
    """Correlations as a float array (0-d for a scalar), each in [-1, 1]."""
    r = np.asarray(rho, dtype=float)
    if not ((r >= -1.0) & (r <= 1.0)).all():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    return r


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the axis [z_min, z_max]."""

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


def _polevl(x, coefs, monic: bool = False):
    """Horner's rule in Cephes' order: polevl starts at c0, p1evl (monic)
    at x + c0."""
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


def _ndtr(a):
    """Standard normal CDF, Cephes ndtr: bit for bit scipy.special.ndtr.
    Each branch runs by masks on its own elements only, so every element
    gets its bits.  Arrays keep their shape; a scalar gives a float."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:  # the oracle's branches often pass empty subsets
        return np.empty(a.shape)
    x = np.atleast_1d(a) * _SQRT1_2
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
    return y if a.ndim else float(y[0])


def phi1(z: float) -> float:
    """Standard normal CDF: Cephes ``ndtr``, bit-identical to
    ``scipy.special.ndtr``.  Its exp(-x^2) is ``math.exp``, libm's as in
    Cephes, since numpy's SIMD ``exp`` can differ in the last bit."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"phi1 requires a finite argument, got {z!r}")
    return _ndtr(z)


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
    """Phi2 for |r| < _GENZ_SPLIT: the rule applied to the integral over
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


# the oracle's stated bound on |error|; the module docstring gives 1.7e-13 measured
_ORACLE_BOUND = 1e-12


def binorm_cdf_oracle(z1, z2, rho):
    """Phi2(z1, z2, rho) to near double precision; arguments broadcast.

    Closed forms at rho = +/-1 and the rho = 1 limit past |z| = 40, the
    20-point arcsine rule for |rho| < 0.925 (exact at rho = 0), Genz's above.
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
    pos, neg = r == 1.0, r == -1.0
    out[pos] = _ndtr(np.minimum(h[pos], k[pos]))
    # P(-k <= X <= h), written so that a small result keeps its relative accuracy
    lo, hi = np.minimum(h[neg], k[neg]), np.maximum(h[neg], k[neg])
    out[neg] = np.maximum(0.0, np.where(lo < 0.0, _ndtr(lo) - _ndtr(-hi), 1.0 - _ndtr(-lo) - _ndtr(-hi)))
    mid = np.abs(r) < _GENZ_SPLIT
    high = ~(mid | pos | neg)
    for rule, cells in ((_phi2_arcsine, mid), (_phi2_near_degenerate, high)):
        cells = np.flatnonzero(cells)
        for start in range(0, cells.size, _CHUNK):
            i = cells[start : start + _CHUNK]
            out[i] = rule(h[i], k[i], r[i])
    np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(z1.shape) if z1.ndim else float(out[0])


@dataclass(frozen=True)
class CdfGrid:
    """Tabulated Phi2(z, z, rho) along the diagonal of a GridSpec.

    ``node_values[r]`` is V(z_r), z_r = ``np.linspace(z_min, z_max,
    cells_per_axis + 1)[r]``, V(z_0) = 0.  A table sized from its queries
    holds only the leading nodes their cells reach (``tabulate_cdf_grid``);
    a lookup whose cell reaches past them raises DomainError.
    """

    spec: GridSpec
    rho: float
    node_values: np.ndarray

    def lookup(self, z):
        """Phi2(z, z, rho): in cell i at fraction t, the linear interpolant
        V(z_i) (1 - t) + V(z_(i+1)) t.  Out-of-range points are clamped to
        the grid boundary and results clipped to [0, 1].  Array-valued in z;
        a scalar gives a float."""
        i, t = _cell_index(self.spec, np.asarray(z, dtype=float))
        extent, nodes = _extent(i), self.node_values.size
        if extent > nodes:
            raise DomainError(
                f"lookup reaches node {extent - 1}, past the "
                f"{nodes}-node tabulated block"
            )
        v = np.clip(self.node_values[i] * (1.0 - t) + self.node_values[i + 1] * t, 0.0, 1.0)
        return v if v.ndim else float(v)


def _check_not_nan(z: np.ndarray) -> None:
    if np.isnan(z).any():
        raise DomainError("binorm_cdf_grid requires non-NaN coordinates")


def _cell_index(spec: GridSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of each (clamped) coordinate and its fraction within the cell."""
    _check_not_nan(z)
    f = (np.clip(z, spec.z_min, spec.z_max) - spec.z_min) / spec.cell_width
    i = np.minimum(f.astype(np.intp), spec.cells_per_axis - 1)
    return i, f - i


def _extent(i: np.ndarray) -> int:
    """Nodes a lookup of cells i reads: the two ends of the highest."""
    return int(i.max(initial=0)) + 2


# Stores nothing.  The decorator stays only for the benchmark harness: it
# calls cache_clear() and counts tabulations from cache_info().misses.
@lru_cache(maxsize=0)
def tabulate_cdf_grid(rho: float, spec: GridSpec = DEFAULT_GRID, z=None) -> CdfGrid:
    """Build the diagonal tabulation for one correlation, sized from the
    coordinates ``z`` it must serve: the leading nodes up to the far end of
    the highest cell they reach (the analysis queries z <= ~2, about 5/8 of
    the default axis).  With no z the table holds every node.

    Plackett's identity (Biometrika 41:351, 1954) gives the diagonal slope
    d/dz Phi2(z, z, rho) = 2 phi(z) Phi(c z), c = sqrt((1 - rho) / (1 + rho)),
    which stays smooth as |rho| -> 1.  With s = exp(-z^2 / 2) Phi(c z) at
    each node and h the cell width, its cumulative trapezoidal rule from z_0
    is V(z_r) = h / sqrt(2 pi) * (sum over a < r of s_a + s_(a+1)), added in
    node order, so a table sized from its queries is bit for bit the
    leading block of the full one.
    """
    extent = None
    if z is not None:  # coordinates are checked before the correlation
        # the largest sizes the table, and is NaN if any coordinate is
        extent = _extent(_cell_index(spec, np.max(np.asarray(z, dtype=float), initial=-math.inf))[0])
    rho = float(_as_rho(rho))
    if not _GRID_RHO_MIN <= rho < 1.0:
        raise DomainError(
            f"grid tabulation serves rho in [{_GRID_RHO_MIN}, 1); "
            "binorm_cdf takes the oracle outside it"
        )
    nodes = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1)[:extent]
    slope = np.exp(-0.5 * nodes * nodes) * _ndtr(math.sqrt((1.0 - rho) / (1.0 + rho)) * nodes)
    table = np.zeros(nodes.size)
    np.cumsum(slope[:-1] + slope[1:], out=table[1:])
    table *= spec.cell_width / math.sqrt(_TWO_PI)
    table.setflags(write=False)
    return CdfGrid(spec=spec, rho=rho, node_values=table)


# the grid route's stated bound on |error|, for DEFAULT_GRID, the only spec a
# route uses (a table on another spec carries no stated bound): tables serve
# rho in [_GRID_RHO_MIN, 1), the oracle every other rho.  Measured on z in
# [-8.5, 8.5]: at most 7.7e-6 for rho >= -0.5 (3.2e-6 from 0.999999 up to the
# float below 1), 4.5e-4 at -0.9999.  Toward -1, Phi(c t) steps at t = 0 and
# a table's error tends to h phi(0) / 2, 1.6e-3 at the default cell width h.
_GRID_BOUND = 1e-3


def binorm_cdf_grid(z, rho: float, spec: GridSpec = DEFAULT_GRID):
    """Phi2(z, z, rho) via the diagonal tabulation of one correlation,
    sized from z (abs error <= _GRID_BOUND at the default spec);
    array-valued in z."""
    return tabulate_cdf_grid(rho, spec, z).lookup(z)


def _is_grid(method: str) -> bool:
    """Whether a Phi2 ``method`` is the grid route; ConfigError unless it
    is "grid" or "oracle"."""
    if method not in ("grid", "oracle"):
        raise ConfigError(f"unknown method {method!r}, expected 'grid' or 'oracle'")
    return method == "grid"


def _error_bound(method: str) -> float:
    """The stated bound on |Phi2 error| of a ``method``'s route."""
    return _GRID_BOUND if _is_grid(method) else _ORACLE_BOUND


def binorm_cdf(z, rho, method: str = "oracle"):
    """Phi2(z, z, rho), the joint default probability of two identical
    banks; arguments broadcast.  ``method`` is the route: ``"oracle"`` or
    ``"grid"``, the ``DEFAULT_GRID`` tabulation.  The grid route raises
    DomainError for a NaN coordinate, then takes the distinct correlations
    in ascending order: one in [_GRID_RHO_MIN, 1) is tabulated once, its
    table sized from its own queries; any other takes the oracle at its own
    value.  Each correlation's cells keep their order within the batch."""
    r = _as_rho(rho)
    if not _is_grid(method):
        return binorm_cdf_oracle(z, z, r)
    z, r = np.broadcast_arrays(np.asarray(z, dtype=float), r)
    _check_not_nan(z)
    z = z.ravel()
    # one sort groups the cells by correlation, each group in batch order
    distinct, group = np.unique(r.ravel(), return_inverse=True)
    order = np.argsort(group, kind="stable")
    out = np.empty(z.size)
    for value, at in zip(distinct.tolist(), np.split(order, np.cumsum(np.bincount(group))[:-1])):
        if _GRID_RHO_MIN <= value < 1.0:
            out[at] = binorm_cdf_grid(z[at], value, DEFAULT_GRID)
        else:
            out[at] = binorm_cdf_oracle(z[at], z[at], value)
    return out.reshape(r.shape) if r.ndim else float(out[0])
