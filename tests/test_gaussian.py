"""Tests for the normal/bivariate-normal primitives.

High-precision reference values were frozen from mpmath (30 digits):
ncdf and the rho-integral reduction of Phi2 evaluated with mp.quad.  The
adaptive-quadrature reference ``phi2_quad`` checks the Gauss-Legendre
oracle on a large random sample.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import levdiv.gaussian
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr

import oracle_reference
from grid_reference import reference_tabulation
from quad_reference import binorm_pdf, phi2_quad

from levdiv import (
    DEFAULT_GRID,
    ConfigError,
    DomainError,
    GridSpec,
    LeverageScenario,
    binorm_cdf,
    binorm_cdf_oracle,
    default_chi_grid,
    phi1,
    regime_sweep,
    tabulate_cdf_grid,
)
from levdiv.gaussian import _CHUNK, _GENZ_SPLIT, _ndtr, binorm_cdf_grid

# small grid keeps module tests fast; the default 2000-cell grid is
# exercised by the acceptance suite
SMALL_GRID = GridSpec(cells_per_axis=400)

finite_z = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
safe_rho = st.floats(min_value=-0.95, max_value=0.95, allow_nan=False)


def brute_force_phi2(z1, z2, rho, h=0.01, lo=-9.0):
    """Independent check: 2D Simpson quadrature of the density over
    [lo, z1] x [lo, z2]."""
    nx = max(2, int(math.ceil((z1 - lo) / h / 2)) * 2)
    ny = max(2, int(math.ceil((z2 - lo) / h / 2)) * 2)
    x = np.linspace(lo, z1, nx + 1)
    y = np.linspace(lo, z2, ny + 1)
    omr2 = 1.0 - rho * rho
    g = np.exp(
        -(x[:, None] ** 2 - 2 * rho * x[:, None] * y[None, :] + y[None, :] ** 2) / (2 * omr2)
    ) / (2 * np.pi * math.sqrt(omr2))

    def simpson_weights(m):
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w / 3.0

    wx = simpson_weights(nx) * (x[1] - x[0])
    wy = simpson_weights(ny) * (y[1] - y[0])
    return float(wx @ g @ wy)


class TestPhi1:
    def test_symmetry_point(self):
        assert phi1(0.0) == 0.5

    def test_quantile_value(self):
        # mpmath: 0.9750000009035576
        assert phi1(1.959964) == pytest.approx(0.9750000009035576, abs=1e-10)
        assert phi1(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_deep_tail_no_underflow(self):
        v = phi1(-37.0)
        assert 0.0 <= v <= 1e-200
        assert v == pytest.approx(5.725571223e-300, rel=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            phi1(bad)

    @given(st.tuples(finite_z, finite_z).map(sorted))
    def test_monotone(self, pair):
        lo, hi = pair
        assert phi1(lo) <= phi1(hi)

    @given(finite_z)
    def test_bounds(self, z):
        assert 0.0 <= phi1(z) <= 1.0


def _ndtr_points() -> np.ndarray:
    """A seeded 10^6-point sample over [-40, 40], the special values, the
    branch edges a = +/-1, +/-sqrt(2) (|x| = 1) and +/-8 sqrt(2) (|x| = 8)
    with their neighbours, and both sides of the underflow edge near
    |a| = 37.7, where exp(-x^2) leaves the double range."""
    rng = np.random.default_rng(20261018)
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)]
    near = [[np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)] for e in edges]
    underflow = np.linspace(37.6, 37.8, 2001)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320]
    pos = np.concatenate([*near, underflow])
    return np.concatenate([rng.uniform(-40.0, 40.0, 10**6), special, pos, -pos])


class TestNdtrPort:
    """The NumPy port of Cephes ndtr against scipy.special.ndtr, bit for bit."""

    points = _ndtr_points()

    def test_array_path_bitwise(self):
        ref = scipy_ndtr(self.points)
        edge = scipy_ndtr(-np.linspace(37.6, 37.8, 2001))
        assert (edge == 0.0).any() and (edge > 0.0).any()  # both sides sampled
        assert np.array_equal(_ndtr(self.points), ref, equal_nan=True)

    def test_small_inputs_bitwise(self):
        # the oracle's branches pass _ndtr rows of a few cells and scalars;
        # each costs tens of microseconds, so the scalar sample is bounded
        edges = self.points[10**6 :]
        sample = np.concatenate([self.points[:100_000], edges])
        rows = sample[: sample.size // 32 * 32].reshape(-1, 32)
        got = np.array([_ndtr(row) for row in rows])
        assert np.array_equal(got, scipy_ndtr(rows), equal_nan=True)
        scalars = np.concatenate([self.points[:2000], edges])
        got = np.array([_ndtr(a) for a in scalars.tolist()])
        assert np.array_equal(got, scipy_ndtr(scalars), equal_nan=True)

    @pytest.mark.parametrize("size", [1, 32, 33, 1000])
    @pytest.mark.parametrize("shape", ["1d", "2d"])
    def test_keeps_shape(self, size, shape):
        a = np.linspace(-9.0, 9.0, 2 * size)
        a = a.reshape(2, size) if shape == "2d" else a[:size]
        got = _ndtr(a)
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        assert np.array_equal(got, scipy_ndtr(a))

    def test_empty_and_scalar_inputs(self):
        assert _ndtr(np.array([])).shape == (0,)
        for a in (0.3, np.float64(-2.5), np.array(1.7), 9.0, -40.0):
            got = _ndtr(a)
            assert type(got) is float
            assert got == float(scipy_ndtr(a))

    def test_phi1_equals_scipy(self):
        for z in self.points[:20_000].tolist() + [0.0, -0.0, 1.0, -37.0, 37.0, 1e-320]:
            assert phi1(z) == float(scipy_ndtr(z))


class TestBinormPdf:
    def test_origin_independent(self):
        assert binorm_pdf(0.0, 0.0, 0.0) == pytest.approx(0.15915494309189534, abs=1e-15)

    def test_origin_correlated(self):
        assert binorm_pdf(0.0, 0.0, 0.5) == pytest.approx(0.18377629847393068, abs=1e-15)

    @given(finite_z, finite_z, safe_rho)
    def test_swap_symmetry_and_positive(self, z1, z2, rho):
        a = binorm_pdf(z1, z2, rho)
        assert a == binorm_pdf(z2, z1, rho)
        assert a > 0.0

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_degenerate_rho_rejected(self, rho):
        with pytest.raises(DomainError):
            binorm_pdf(0.0, 0.0, rho)


class TestOracle:
    def test_degenerate_cases_exact(self):
        assert binorm_cdf_oracle(0.0, 0.0, 1.0) == 0.5
        assert binorm_cdf_oracle(0.0, 0.0, -1.0) == 0.0
        assert binorm_cdf_oracle(1.2, 0.4, 1.0) == phi1(0.4)
        assert binorm_cdf_oracle(1.2, 0.4, -1.0) == 1.0 - phi1(-0.4) - phi1(-1.2)
        assert binorm_cdf_oracle(1.5, -0.3, 0.0) == phi1(1.5) * phi1(-0.3)

    def test_antithetic_limit_against_mpmath(self):
        # at rho = -1, Phi2 is P(-k <= X <= h): cells with min(h, k) < 0 and
        # cells with both >= 0, including results far below 1 that a form
        # cancelling against 1 would lose
        import mpmath

        cells = [
            (38.0, -8.0), (-8.0, 38.0), (38.0, -37.0), (-37.0, 38.0), (2.0, -1.5), (-0.5, 0.6),
            (1.2, 0.4), (0.3, 0.2), (6.0, 7.5), (0.0, 0.0), (-0.5, 0.2), (-3.0, -2.0),
        ]
        with mpmath.workdps(400):  # enough digits for 1 - Phi(-38) to keep its tail
            ref = [float(max(0, mpmath.ncdf(h) - mpmath.ncdf(-k))) for h, k in cells]
        h, k = np.array(cells).T
        got = binorm_cdf_oracle(h, k, -1.0)
        assert ref[2] > 0.0 and ref[-1] == 0.0
        # Phi itself (Cephes ndtr) is 1.1e-13 off, relatively, at -37
        np.testing.assert_allclose(got, ref, rtol=2e-13, atol=0.0)

    def test_frozen_reference_values(self):
        assert binorm_cdf_oracle(0.7, 0.7, 0.25) == pytest.approx(
            0.60060466025101583, abs=1e-10
        )
        assert binorm_cdf_oracle(-1.1, 0.4, -0.6) == pytest.approx(
            0.034219576893544799, abs=1e-10
        )

    def test_against_brute_force_mesh(self):
        for z1, z2, rho in [(0.7, 0.7, 0.25), (-0.5, 1.1, 0.6), (0.0, -1.0, -0.4)]:
            assert binorm_cdf_oracle(z1, z2, rho) == pytest.approx(
                brute_force_phi2(z1, z2, rho), abs=1e-7
            )

    @pytest.mark.parametrize("rho10", range(-9, 10))
    def test_arcsine_identity(self, rho10):
        rho = rho10 / 10.0
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert binorm_cdf_oracle(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-9)

    @given(finite_z, finite_z)
    def test_factorization_at_zero_rho(self, z1, z2):
        assert binorm_cdf_oracle(z1, z2, 0.0) == pytest.approx(
            phi1(z1) * phi1(z2), abs=1e-7
        )

    @given(finite_z, finite_z, st.tuples(safe_rho, safe_rho).map(sorted))
    @settings(max_examples=50)
    def test_slepian_monotone_in_rho(self, z1, z2, rhos):
        lo, hi = rhos
        assert binorm_cdf_oracle(z1, z2, lo) <= binorm_cdf_oracle(z1, z2, hi) + 1e-12

    @given(st.tuples(finite_z, finite_z).map(sorted), finite_z, safe_rho)
    @settings(max_examples=50)
    def test_monotone_in_arguments(self, z1s, z2, rho):
        lo, hi = z1s
        assert binorm_cdf_oracle(lo, z2, rho) <= binorm_cdf_oracle(hi, z2, rho) + 1e-12

    def test_diagonal_against_mpmath(self):
        # the accuracy the module docstring and README state, by rho range.
        # On the diagonal the arcsine integrand is exp(-h^2 / (1 + sin t)),
        # smooth on [0, pi/2], so a 40-digit reference costs ~10 ms a point
        import mpmath

        def reference(h, rho):
            h, rho = mpmath.mpf(h), mpmath.mpf(rho)
            tail = mpmath.quad(lambda t: mpmath.exp(-h * h / (1 + mpmath.sin(t))), [0, mpmath.asin(rho)])
            return float(mpmath.ncdf(h) ** 2 + tail / (2 * mpmath.pi))

        rng = np.random.default_rng(20261019)
        ranges = (
            (rng.uniform(0.0, 1.0 - 1e-5, 120), 1e-15),  # arcsine rule and Genz's form
            (1.0 - 10.0 ** rng.uniform(-9.0, -5.0, 60), 1e-13),  # Genz's form near rho = 1
        )
        for rho, bound in ranges:
            h = rng.uniform(-8.0, 3.0, rho.size)
            with mpmath.workdps(40):
                ref = np.array([reference(a, r) for a, r in zip(h.tolist(), rho.tolist())])
            assert np.abs(binorm_cdf_oracle(h, h, rho) - ref).max() <= bound

    def test_agrees_with_adaptive_quadrature(self):
        # z1 != z2 over [-8, 8], both signs of rho, and a quarter of the
        # sample beyond the 0.925 split where the near-degenerate form runs
        rng = np.random.default_rng(20261018)
        size = 10_000
        z1 = rng.uniform(-8.0, 8.0, size)
        z2 = rng.uniform(-8.0, 8.0, size)
        rho = rng.uniform(-1.0, 1.0, size)
        rho[: size // 4] = rng.choice([-1.0, 1.0], size // 4) * rng.uniform(0.925, 0.99999, size // 4)
        got = binorm_cdf_oracle(z1, z2, rho)
        ref = np.array([phi2_quad(a, b, r) for a, b, r in zip(z1, z2, rho)])
        assert np.abs(got - ref[:, 0]).max() <= 1e-12

    def test_batch_matches_single_calls_bitwise(self):
        # more cells than one pass of a rule takes, so chunking is covered
        rng = np.random.default_rng(7)
        z1, z2 = rng.uniform(-6.0, 6.0, (2, 5000))
        rho = np.concatenate([rng.uniform(-1.0, 1.0, 4996), [0.0, 1.0, -1.0, 0.95]])
        batch = binorm_cdf_oracle(z1, z2, rho)
        single = [binorm_cdf_oracle(a, b, r) for a, b, r in zip(z1, z2, rho)]
        assert isinstance(single[0], float)
        assert batch.tolist() == single

    def test_batch_matches_single_calls_bitwise_on_sweep_cells(self):
        # a sweep's shape: diagonal cells (z1 == z2) over a few correlations
        # n/N repeated across more than one pass of the arcsine rule, then
        # near-degenerate r < 0 cells on both sides of h < k and of h = 0
        rng = np.random.default_rng(11)
        rhos = np.array([n / size for size in (10, 20, 40) for n in range(1, size) if n / size < 0.925])
        z = rng.uniform(-4.0, 3.0, 5000)
        rho = rng.choice(rhos, z.size)
        diag = binorm_cdf_oracle(z, z, rho)
        assert diag.tolist() == [binorm_cdf_oracle(a, a, r) for a, r in zip(z, rho)]
        z1, z2 = rng.uniform(-4.0, 4.0, (2, 600))
        z2[:60] = z1[:60]
        rho = -rng.choice([0.925, 0.95, 0.99, 0.999999], z1.size)
        # Genz's thresholds for r < 0 are h = -z1, k = z2
        h, k = -z1, z2
        assert ((h < k) & (h < 0.0)).any() and ((h < k) & (h >= 0.0)).any() and (h >= k).any()
        batch = binorm_cdf_oracle(z1, z2, rho)
        assert batch.tolist() == [binorm_cdf_oracle(a, b, r) for a, b, r in zip(z1, z2, rho)]

    def test_broadcasts_and_keeps_shape(self):
        rho = np.array([[0.1], [0.5], [0.97]])
        z = np.linspace(-2.0, 2.0, 4)
        got = binorm_cdf_oracle(z, z, rho)
        assert got.shape == (3, 4)
        assert got[2, 1] == binorm_cdf_oracle(z[1], z[1], 0.97)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            binorm_cdf_oracle(float("nan"), 0.0, 0.3)
        with pytest.raises(DomainError):
            binorm_cdf_oracle([0.0, 1.0], 0.0, [0.3, float("nan")])
        with pytest.raises(DomainError):
            binorm_cdf_oracle(0.0, float("inf"), 0.3)

    # h * h overflowed past |z| ~ 1.3e154 and the rules returned NaN with a
    # RuntimeWarning (an error under this suite's settings)
    @pytest.mark.parametrize("z1, z2", [(1e200, 1e200), (1e200, -1e200), (-1e200, 1e200), (-1e200, -1e200)])
    def test_far_coordinates_give_their_limit(self, z1, z2):
        assert binorm_cdf_oracle(z1, z2, 0.5) == (1.0 if min(z1, z2) > 0.0 else 0.0)

    def test_one_far_coordinate_gives_phi_of_the_other(self):
        assert binorm_cdf_oracle(1e200, 0.3, 0.97) == phi1(0.3)
        assert binorm_cdf_oracle(0.3, 1e200, 0.97) == phi1(0.3)
        # more than 32 cells: Phi takes its masked array path
        z = np.linspace(-3.0, 3.0, 100)
        rho = np.linspace(-0.999, 0.999, 100)
        got = binorm_cdf_oracle(np.full(100, np.finfo(float).max), z, rho)
        assert got.tolist() == [phi1(v) for v in z]
        assert not binorm_cdf_oracle(-np.finfo(float).max, z, rho).any()

    def test_coordinates_up_to_40_keep_the_rules_bits(self):
        # the limit applies only past |z| = 40; up to there each cell is its
        # rule's, bit for bit, whatever far cells share the batch
        rng = np.random.default_rng(23)
        z1, z2 = rng.uniform(-40.0, 40.0, (2, 600))
        z1[:40], z2[40:80] = 40.0, -40.0
        rho = rng.uniform(-0.999, 0.999, 600)
        mid = np.abs(rho) < levdiv.gaussian._GENZ_SPLIT
        want = np.empty(600)
        want[mid] = oracle_reference._phi2_arcsine(z1[mid], z2[mid], rho[mid])
        want[~mid] = oracle_reference._phi2_near_degenerate(z1[~mid], z2[~mid], rho[~mid])
        far = np.array([1e200, -1e200, 41.0, -1e3])
        got = binorm_cdf_oracle(np.append(z1, far), np.append(z2, far[::-1]), np.append(rho, [0.5] * 4))
        assert _same_bits(got[:600], np.clip(want, 0.0, 1.0))
        assert got[600:].tolist() == [0.0, 0.0, 0.0, 0.0]


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def _arcsine_exponents(h, k, r):
    """The arcsine rule's exp arguments, one row of nodes per cell."""
    s = np.sin(np.arcsin(r)[:, None] / 2.0 * levdiv.gaussian._GL_NODES)
    return (s * (h * k)[:, None] - ((h * h + k * k) / 2.0)[:, None]) / (1.0 - s * s)


class TestOracleRulesMatchReference:
    """The rules against their bodies from before the arcsine rule skipped
    the lanes where exp underflows (tests/oracle_reference.py)."""

    RULES = (
        (levdiv.gaussian._phi2_arcsine, oracle_reference._phi2_arcsine),
        (levdiv.gaussian._phi2_near_degenerate, oracle_reference._phi2_near_degenerate),
    )

    def test_standard_box_sweeps(self, monkeypatch):
        passes = {rule.__name__: [] for rule, _ in self.RULES}

        def recording(rule):
            def run(h, k, r):
                passes[rule.__name__].append((h.copy(), k.copy(), r.copy()))
                return rule(h, k, r)

            return run

        for rule, _ in self.RULES:
            monkeypatch.setattr(levdiv.gaussian, rule.__name__, recording(rule))
        for scenario in (LeverageScenario(0.10, 0.25), LeverageScenario(0.25, 0.50)):
            regime_sweep(scenario, [10, 20, 30, 40], default_chi_grid())
        for rule, reference in self.RULES:
            assert passes[rule.__name__]
            for h, k, r in passes[rule.__name__]:
                assert _same_bits(rule(h, k, r), reference(h, k, r))
        h, k, r = (np.concatenate(part) for part in zip(*passes["_phi2_arcsine"]))
        x = _arcsine_exponents(h, k, r)
        assert (x < levdiv.gaussian._EXP_ZERO).any() and ((x > -745.13) & (x < -708.4)).any()

    def test_seeded_off_diagonal_cells(self):
        rng = np.random.default_rng(2024)
        size = 200_000
        h, k = rng.uniform(-60.0, 3.0, (2, size))
        r = rng.uniform(-_GENZ_SPLIT, _GENZ_SPLIT, size)
        high = rng.choice([-1.0, 1.0], size // 10) * rng.uniform(_GENZ_SPLIT, 1.0 - 1e-9, size // 10)
        for (rule, reference), corr in zip(self.RULES, (r, high)):
            for lo in range(0, corr.size, _CHUNK):
                cells = slice(lo, min(lo + _CHUNK, corr.size))
                args = (h[cells], k[cells], corr[cells])
                assert _same_bits(rule(*args), reference(*args)), lo

    def test_exponents_around_underflow(self):
        # diagonal and near-diagonal cells whose exponents sweep -800..-690:
        # past the underflow point, just inside it and through the band
        # where exp is subnormal, with results small enough to show a tail
        # lane's bits
        z = np.sqrt(np.linspace(690.0, 800.0, 4001))
        rules = levdiv.gaussian._phi2_arcsine, oracle_reference._phi2_arcsine
        for r in (0.01, 0.05, 0.3, -0.3, 0.6, 0.9):
            for h, k in ((-z, -z), (-z, -z * 1.001), (z / 20.0, -z)):
                rho = np.full(z.size, r)
                got, want = (rule(h, k, rho) for rule in rules)
                assert _same_bits(got, want), r
        h = k = -z
        x = _arcsine_exponents(h, k, np.full(z.size, 0.01))
        for lo, hi in ((-np.inf, levdiv.gaussian._EXP_ZERO), (levdiv.gaussian._EXP_ZERO, -745.13),
                       (-745.13, -708.4), (-708.4, 0.0)):
            assert ((x >= lo) & (x < hi)).any(), (lo, hi)
        got = levdiv.gaussian._phi2_arcsine(h, k, np.full(z.size, 0.01))
        assert ((got > 0.0) & (got < np.finfo(float).tiny)).any()

    @pytest.mark.parametrize("size", [1, 7, 64, 4099])
    def test_exp_is_positive_zero_below_cutoff(self, size):
        # the one numerical assumption of the lane skip, in numpy's scalar
        # tail loop and its SIMD loop
        cut = levdiv.gaussian._EXP_ZERO
        assert math.exp(cut) == 0.0
        below = np.concatenate([
            [cut, np.nextafter(cut, -np.inf), -745.5, -746.0, -1e308, -np.finfo(float).max, -np.inf],
            np.linspace(cut, -1000.0, 5000),
            -np.logspace(np.log10(-cut), 308.0, 5000),
        ])
        for lo in range(0, below.size, size):
            x = below[lo : lo + size]
            assert not np.exp(x).view(np.int64).any()


def cell_centres(spec: GridSpec, cells) -> np.ndarray:
    """Diagonal coordinates at the centres of the given cells: their table
    is the leading max(cells) + 2 nodes."""
    return spec.z_min + (np.asarray(cells, dtype=float) + 0.5) * spec.cell_width


# specs and correlations that the table's exactness tests sweep
GRID_SPECS = [SMALL_GRID, DEFAULT_GRID, GridSpec(cells_per_axis=2), GridSpec(-6.0, 6.0, 999)]
GRID_SPEC_IDS = ["small", "default", "two-cells", "odd"]
GRID_RHOS = [-0.99, -0.4, -0.3, 0.0, 0.05, 0.5, 0.7, 0.9, 0.95, 1.0 - 2e-9]


class TestGrid:
    def test_independence_point(self):
        assert binorm_cdf_grid(0.0, 0.0, SMALL_GRID) == pytest.approx(0.25, abs=1e-3)

    def test_arcsine_point(self):
        assert binorm_cdf_grid(0.0, 0.5, SMALL_GRID) == pytest.approx(1 / 3, abs=1e-3)

    def test_factorization_point(self):
        got = binorm_cdf_grid([1.5, -0.3], 0.0, SMALL_GRID)
        assert got == pytest.approx([phi1(1.5) ** 2, phi1(-0.3) ** 2], abs=1e-3)

    def test_matches_oracle(self):
        z = np.array([-2.0, 0.5, 0.3, 1.7, -1.1, -0.25, 2.4])
        for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
            assert binorm_cdf_grid(z, rho, SMALL_GRID) == pytest.approx(binorm_cdf_oracle(z, z, rho), abs=1e-3)

    def test_convergence_under_refinement(self):
        z = np.array([-1.5, 0.4, 0.2, 1.0, -0.8])
        errs = []
        for cells in (100, 200, 400, 800):
            spec = GridSpec(cells_per_axis=cells)
            errs.append(np.abs(binorm_cdf_grid(z, 0.45, spec) - binorm_cdf_oracle(z, z, 0.45)).max())
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_clamping_and_bounds(self):
        assert binorm_cdf_grid(-50.0, 0.2, SMALL_GRID) == pytest.approx(0.0, abs=1e-6)
        assert binorm_cdf_grid(50.0, 0.2, SMALL_GRID) == pytest.approx(1.0, abs=1e-3)
        assert 0.0 <= binorm_cdf_grid(50.0, 0.2, SMALL_GRID) <= 1.0

    def test_tabulation_invariants(self):
        vals = tabulate_cdf_grid(0.3, SMALL_GRID).node_values
        assert vals.shape == (SMALL_GRID.cells_per_axis + 1,)
        assert vals[0] == 0.0  # V(z_0) integrates over an empty interval
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 + 1e-3

    # the slope the table sums is non-negative, so V never falls from node
    # to node, and a lookup's two nodes bracket its value
    @pytest.mark.parametrize(
        "spec", [SMALL_GRID, DEFAULT_GRID, GridSpec(cells_per_axis=2)], ids=["small", "default", "two-cells"]
    )
    def test_node_values_never_fall_along_the_diagonal(self, spec):
        for rho in (-0.99, -0.6, 0.0, 0.3, 0.9, 0.999, 1.0 - 2e-9):
            vals = tabulate_cdf_grid(rho, spec).node_values
            assert (vals[:-1] <= vals[1:]).all(), rho

    def test_tabulation_deterministic(self):
        a = tabulate_cdf_grid(0.3, SMALL_GRID)
        b = tabulate_cdf_grid(0.3, SMALL_GRID)
        assert a is not b  # no table is kept between calls
        assert np.array_equal(a.node_values, b.node_values)

    # a table sized from its queries is bit for bit the leading block of
    # the full one: two nodes, three, half the axis, all but one, all
    @pytest.mark.parametrize("spec", GRID_SPECS, ids=GRID_SPEC_IDS)
    @pytest.mark.parametrize("rho", GRID_RHOS)
    def test_bounded_tabulation_is_leading_block(self, spec, rho):
        full = tabulate_cdf_grid(rho, spec)
        nodes = spec.cells_per_axis + 1
        for m in sorted({2, 3, nodes // 2 + 1, nodes - 1, nodes}):
            block = tabulate_cdf_grid(rho, spec, cell_centres(spec, range(m - 1)))
            assert block.node_values.shape == (m,)
            assert np.array_equal(block.node_values, full.node_values[:m])
            assert not block.node_values.flags.writeable

    @pytest.mark.parametrize("spec", [SMALL_GRID, DEFAULT_GRID], ids=["small", "default"])
    def test_bounded_lookup_matches_full_grid(self, spec):
        # diagonal queries as the analysis makes them, then with points
        # clamped at either end of the grid
        diagonal = np.linspace(-3.0, 2.1, 50)
        for rho in (0.1, 0.6):
            for z in (diagonal, np.append(diagonal, -50.0), np.array([spec.z_max, 9.5, 50.0])):
                full = tabulate_cdf_grid(rho, spec).lookup(z)
                got = binorm_cdf_grid(z, rho, spec)
                assert got.tolist() == full.tolist()

    # the rule the table applies, with no vectorised reference: node r
    # holds the trapezoid sum over the cells below it of Plackett's slope
    # 2 phi(t) Phi(c t), with exp from math and Phi from phi1
    @pytest.mark.parametrize("rho", [-0.99, 0.0, 0.5, 1.0 - 2e-9])
    def test_tabulation_is_the_cumulative_trapezoid_rule(self, rho):
        spec = GridSpec(-2.0, 2.0, 5)
        z = np.linspace(spec.z_min, spec.z_max, spec.cells_per_axis + 1).tolist()
        c = math.sqrt((1.0 - rho) / (1.0 + rho))

        def slope(t):
            return 2.0 * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * phi1(c * t)

        got = tabulate_cdf_grid(rho, spec).node_values
        for r in range(len(z)):
            want = 0.0
            for a in range(r):
                want += 0.5 * spec.cell_width * (slope(z[a]) + slope(z[a + 1]))
            assert abs(got[r] - want) <= 4 * math.ulp(want), r

    # scipy's ndtr and cumulative_trapezoid, which round in another order:
    # the running sums drift apart by at most 24 ulps of the value (default
    # spec, near V = 1), so the bound is 32
    @pytest.mark.parametrize("spec", GRID_SPECS, ids=GRID_SPEC_IDS)
    def test_tabulation_matches_scipy_reference(self, spec):
        for rho in (-0.9999, -0.99, -0.8, -0.4, 0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999, 0.99999, 1.0 - 2e-9):
            got = tabulate_cdf_grid(rho, spec).node_values
            want = reference_tabulation(rho, spec)
            assert np.all(np.abs(got - want) <= 32 * np.spacing(want)), rho

    # the highest cell alone sizes a table, whichever others are queried:
    # the first and last cells of the full axis and of a half block, both
    # together, scattered cells, and every cell of the half block
    @pytest.mark.parametrize(
        "spec", [DEFAULT_GRID, SMALL_GRID, GridSpec(cells_per_axis=2)], ids=["default", "small", "two-cells"]
    )
    @pytest.mark.parametrize("rho", [-0.6, 0.3, 0.999])
    def test_table_is_sized_by_its_highest_cell(self, spec, rho):
        full = tabulate_cdf_grid(rho, spec).node_values
        last = spec.cells_per_axis - 1
        half = last // 2
        for cells in ([0], [last], [half], [0, last], sorted({1, half // 3, half // 2, half}), range(half + 1)):
            extent = max(cells) + 2
            got = tabulate_cdf_grid(rho, spec, cell_centres(spec, cells)[::-1])
            assert np.array_equal(got.node_values, full[:extent]), extent

    def test_lookup_types(self):
        full = tabulate_cdf_grid(0.3, SMALL_GRID)
        z = cell_centres(SMALL_GRID, [150, 300])
        got = full.lookup(z)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        for value in (full.lookup(z[0]), full.lookup(np.array(z[0]))):
            assert type(value) is float and value == got[0]
        assert full.lookup(np.array([[z[0]], [z[1]]])).tolist() == [[got[0]], [got[1]]]

    def test_grid_call_tabulates_nodes_its_cells_read(self, monkeypatch):
        tables = []

        def spy(*args):
            tables.append(tabulate_cdf_grid(*args))
            return tables[-1]

        monkeypatch.setattr(levdiv.gaussian, "tabulate_cdf_grid", spy)
        z = SMALL_GRID.z_min + np.array([10.5, 40.25, 40.5, 3.5]) * SMALL_GRID.cell_width
        binorm_cdf_grid(z, 0.3, SMALL_GRID)
        assert tables[-1].node_values.size == 42
        assert binorm_cdf_grid([], 0.3, SMALL_GRID).shape == (0,)
        assert tables[-1].node_values.shape == (2,)  # no coordinates: one cell

    def test_lookup_past_bounded_block_rejected(self):
        grid = tabulate_cdf_grid(0.3, SMALL_GRID, cell_centres(SMALL_GRID, range(99)))
        inside = SMALL_GRID.z_min + 98.5 * SMALL_GRID.cell_width
        assert grid.lookup(inside) == tabulate_cdf_grid(0.3, SMALL_GRID).lookup(inside)
        with pytest.raises(DomainError, match="past the 100-node"):
            grid.lookup(inside + SMALL_GRID.cell_width)
        with pytest.raises(DomainError, match="past the 100-node"):
            grid.lookup(np.array([0.0, 50.0]))
        # no coordinates size the table to the first cell
        first = tabulate_cdf_grid(0.3, SMALL_GRID, [])
        assert first.lookup(SMALL_GRID.z_min + 0.5 * SMALL_GRID.cell_width) == grid.lookup(
            SMALL_GRID.z_min + 0.5 * SMALL_GRID.cell_width
        )
        with pytest.raises(DomainError, match="past the 2-node"):
            first.lookup(SMALL_GRID.z_min + 1.5 * SMALL_GRID.cell_width)

    @pytest.mark.parametrize("rho", [float("nan"), 1.5, -1.5])
    def test_tabulation_rejects_correlation_outside_domain(self, rho):
        with pytest.raises(DomainError, match="correlation must lie in"):
            tabulate_cdf_grid(rho, SMALL_GRID)

    def test_nan_coordinates_rejected(self):
        # the lookup, the table and the dispatcher share one check, before
        # any NaN reaches the integer cell index
        grid = tabulate_cdf_grid(0.3, SMALL_GRID)
        for z in (float("nan"), [0.0, float("nan")]):
            with pytest.raises(DomainError, match="non-NaN"):
                grid.lookup(z)
            # the grid route checks before it routes any correlation, the
            # oracle's among them
            for rho in (0.3, 1.0, -1.0, -0.99991):
                with pytest.raises(DomainError, match="non-NaN"):
                    binorm_cdf(z, rho, method="grid")
            # a table checks its coordinates before its correlation
            for rho in (1.5, 1.0):
                with pytest.raises(DomainError, match="non-NaN"):
                    tabulate_cdf_grid(rho, SMALL_GRID, z)

    def test_degenerate_rho_rejected(self):
        # a table serves [-0.9999, 1): it refuses every other correlation,
        # and binorm_cdf gives the oracle's bits there
        z = np.linspace(-3.0, 3.0, 7)
        for rho in (1.0, -0.99991, -1.0):
            with pytest.raises(DomainError, match=r"grid tabulation serves rho in \[-0\.9999, 1\)"):
                binorm_cdf_grid(0.0, rho, SMALL_GRID)
            assert binorm_cdf(z, rho, "grid").tolist() == binorm_cdf_oracle(z, z, rho).tolist()
        # up to the float below 1 a table serves
        for rho in (-0.9999, 1.0 - 1e-12, math.nextafter(1.0, 0.0)):
            assert binorm_cdf(z, rho, "grid").tolist() == binorm_cdf_grid(z, rho).tolist()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            GridSpec(z_min=2.0, z_max=-2.0)
        with pytest.raises(ConfigError):
            GridSpec(cells_per_axis=1)

    def test_dispatcher_routes_degenerate_to_closed_form(self):
        assert binorm_cdf(0.4, 1.0, method="grid") == phi1(0.4)
        assert binorm_cdf(0.4, -1.0, method="grid") == 1.0 - phi1(-0.4) - phi1(-0.4)
        # a route is named, never given as a spec
        for method in ("simpson", 400, None, "Grid", DEFAULT_GRID, SMALL_GRID):
            with pytest.raises(ConfigError, match=r"^unknown method .*, expected 'grid' or 'oracle'$"):
                binorm_cdf(0.0, 0.3, method=method)
            with pytest.raises(ConfigError, match=r"^unknown method .*, expected 'grid' or 'oracle'$"):
                regime_sweep(LeverageScenario(0.1, 0.25), [4], [0.5], method=method)
        # "grid" tables on the default spec, and takes the oracle at +/-1
        z = np.linspace(-3.0, 2.0, 7)
        rho = np.array([0.0, 0.25, 0.5, 0.75, 0.99, 1.0, -1.0])
        want = [binorm_cdf_grid(a, r, DEFAULT_GRID) for a, r in zip(z[:5], rho[:5])]
        want += [binorm_cdf_oracle(a, a, r) for a, r in zip(z[5:], rho[5:])]
        assert binorm_cdf(z, rho, method="grid").tolist() == want

    def test_each_route_states_one_bound(self):
        # the oracle's measured error is at most 1.7e-13; the grid's 1e-3 is
        # measured at DEFAULT_GRID, the one spec a route uses
        assert levdiv.gaussian._error_bound("oracle") == 1e-12
        assert levdiv.gaussian._error_bound("grid") == 1e-3
        for method in ("quad", DEFAULT_GRID, SMALL_GRID):
            with pytest.raises(ConfigError, match="unknown method"):
                levdiv.gaussian._error_bound(method)

    def test_dispatcher_groups_by_correlation(self):
        # one tabulation per distinct correlation below 1, and none kept
        z = np.linspace(-2.0, 1.0, 6)
        rho = np.array([0.25, 0.5, 1.0, 0.25, 0.5, 0.25])
        before = tabulate_cdf_grid.cache_info().misses
        got = binorm_cdf(z, rho, method="grid")
        after = tabulate_cdf_grid.cache_info()
        assert after.misses - before == 2
        assert after.currsize == 0
        # each group's table is sized from its own cells, in batch order
        for r in (0.25, 0.5):
            cells = z[rho == r]
            assert got[rho == r].tolist() == tabulate_cdf_grid(r, DEFAULT_GRID, cells).lookup(cells).tolist()
        assert got.tolist() == [binorm_cdf(a, r, method="grid") for a, r in zip(z, rho)]
        # coordinates and correlations broadcast against each other
        got = binorm_cdf(z, np.array([[0.25], [0.5]]), method="grid")
        assert got.tolist() == [binorm_cdf(z, r, method="grid").tolist() for r in (0.25, 0.5)]

    def test_error_reaches_caller_in_correlation_order(self, monkeypatch):
        # correlations n/20 with their diagonal thresholds, the closed forms
        # at +/-1 among them: the first error in ascending correlation order
        # wins.  Two tabulated correlations fail, then the rho = 1
        # closed-form cell, which rejects an infinite coordinate, then the
        # rho = -1 one below them all
        rho = np.concatenate([np.arange(1, 21) / 20, [-1.0, -0.35]])
        real = levdiv.gaussian.binorm_cdf_grid

        def failing(z, value, spec):
            if value in (rho[3], rho[9]):
                raise DomainError(f"failed at {value}")
            return real(z, value, spec)

        monkeypatch.setattr(levdiv.gaussian, "binorm_cdf_grid", failing)
        z = np.linspace(-3.0, 2.0, rho.size)
        z[19] = math.inf
        assert rho[19] == 1.0
        with pytest.raises(DomainError, match=r"^failed at 0\.2$"):
            binorm_cdf(z, rho, "grid")
        z[-2] = -math.inf  # rho = -1, the lowest correlation
        with pytest.raises(DomainError, match="binorm_cdf_oracle requires finite coordinates"):
            binorm_cdf(z, rho, "grid")
        # a NaN anywhere is rejected before any table is built
        z[5] = np.nan
        before = tabulate_cdf_grid.cache_info().misses
        with pytest.raises(DomainError, match="^binorm_cdf_grid requires non-NaN coordinates$"):
            binorm_cdf(z, rho, "grid")
        assert tabulate_cdf_grid.cache_info().misses == before

    # the slope 2 phi(t) Phi(c t) stays smooth as rho -> 1, so the table
    # holds there: measured about 3.2e-6 from the oracle
    @pytest.mark.parametrize("rho", [0.99999, 0.999999, 1.0 - 2e-9, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])
    def test_grid_holds_near_unit_correlation(self, rho):
        z = np.linspace(-3.0, 2.0, 501)
        assert np.abs(binorm_cdf(z, rho, "grid") - binorm_cdf_oracle(z, z, rho)).max() <= 1e-5

    # the grid route's 1e-3 bound covers every rho at the default spec,
    # closed forms at +/-1 included; past -0.9999, Phi(c t) nears a step at
    # t = 0 and a table's error would tend to h phi(0) / 2 = 1.6e-3, so the
    # route takes the oracle there
    def test_grid_bound_holds_over_its_correlation_range(self):
        bound = levdiv.gaussian._error_bound("grid")
        z = np.linspace(-8.5, 8.5, 3401)
        for rho in (
            -1.0 + 2e-9, -0.999999, -0.99999, -0.9999, -0.999, -0.99, -0.9, -0.5,
            0.0, 0.3, 0.5, 0.9, 0.99, 0.999999, 1.0 - 2e-9, 1.0 - 1e-12, math.nextafter(1.0, 0.0), 1.0,
        ):
            err = np.abs(binorm_cdf(z, rho, "grid") - binorm_cdf_oracle(z, z, rho)).max()
            assert err <= bound, rho


class TestCorrelation:
    def test_bounds_enforced(self):
        for rho in (1.5, float("nan")):
            with pytest.raises(DomainError):
                binorm_cdf_oracle(0.0, 0.0, rho)
            with pytest.raises(DomainError):
                binorm_cdf(0.0, rho, method="grid")
        assert binorm_cdf_oracle(0.0, 0.0, 1.0) == 0.5
        assert binorm_cdf_oracle(0.0, 0.0, -1.0) == 0.0


def _run_python(code: str) -> subprocess.CompletedProcess:
    import levdiv

    src = os.path.dirname(os.path.dirname(os.path.abspath(levdiv.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all, scipy.integrate among them
    proc = _run_python(
        "import sys, levdiv.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_unimportable():
    run = "import sys, levdiv.cli; sys.exit(levdiv.cli.main(['table1']))"
    normal = _run_python(run)
    blocked = _run_python("import sys; sys.modules['scipy'] = None; " + run)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout
