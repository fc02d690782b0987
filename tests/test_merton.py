"""Tests for the single-bank Merton quantities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levdiv import (
    BankStrategy,
    ConfigError,
    DomainError,
    FixedOverlap,
    MarketParams,
    RandomSelection,
    asset_correlation,
    binorm_cdf,
    individual_pd,
    systemic_pd,
    z_score,
)
from levdiv.merton import correlation_law, z_cells

leverages = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
chis = st.floats(min_value=0.05, max_value=9.0, allow_nan=False)


class TestMarketParams:
    def test_chi_from_sigma(self):
        m = MarketParams.from_sigma(market_size=10, sigma=2.0, horizon=0.5)
        assert m.chi == 1.0
        assert m.sigma == 2.0

    def test_from_chi_canonical_mapping(self):
        m = MarketParams.from_chi(10, 1.6)
        assert m.horizon == 1.0
        assert m.sigma == math.sqrt(3.2)
        assert m.chi == 1.6

    def test_sigma_zero_allowed_but_analytics_reject(self):
        m = MarketParams.from_sigma(market_size=5, sigma=0.0)
        assert m.chi == 0.0
        with pytest.raises(DomainError):
            z_score(BankStrategy(0.5, 1), m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(market_size=0, chi=1.0),
            dict(market_size=10, chi=-1.0),
            dict(market_size=10, chi=1.0, horizon=0.0),
            dict(market_size=10, chi=float("nan")),
            dict(market_size=10, chi=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            MarketParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(market_size=10, sigma=-1.0),
            dict(market_size=10, sigma=float("nan")),
            dict(market_size=10, sigma=float("inf")),
            dict(market_size=10, sigma=1.0, horizon=0.0),
            dict(market_size=10, sigma=1.0, horizon=-1.0),
        ],
    )
    def test_invalid_sigma_rejected(self, kwargs):
        with pytest.raises(DomainError):
            MarketParams.from_sigma(**kwargs)


class TestBankStrategy:
    @pytest.mark.parametrize("f", [0.0, 1.0, 1e-13, 1.0 - 1e-13, -0.2, 1.3])
    def test_leverage_boundaries_rejected(self, f):
        with pytest.raises(DomainError):
            BankStrategy(f, 1)

    def test_diversification_validated(self):
        with pytest.raises(DomainError):
            BankStrategy(0.5, 0)
        with pytest.raises(DomainError):
            BankStrategy(0.5, 2.5)


class TestZScore:
    def test_near_unit_leverage_limit(self):
        # ln(1/f) -> 0, so z -> -(0 - chi)/sqrt(2 chi) = 1 at chi = 2, n = 1
        m = MarketParams.from_chi(1, 2.0)
        z = z_score(BankStrategy(1.0 - 1e-9, 1), m)
        assert z == pytest.approx(1.0, abs=1e-6)

    def test_hand_computed_value(self):
        # -(ln 4 - 0.32) / 0.8
        m = MarketParams.from_chi(10, 1.6)
        z = z_score(BankStrategy(0.25, 5), m)
        assert z == pytest.approx(-1.3328679513998633, abs=1e-12)

    @given(st.integers(min_value=1, max_value=50))
    def test_sign_for_half_leverage(self, n):
        # f = 0.5, mu = 0: z < 0 whenever chi/n < ln 2
        chi = 0.9 * n * math.log(2)
        m = MarketParams.from_chi(max(n, 1), chi)
        assert z_score(BankStrategy(0.5, n), m) < 0

    def test_mismatch_rejected(self):
        with pytest.raises(DomainError, match="diversification 11 exceeds market size 10"):
            z_score(BankStrategy(0.5, 11), MarketParams.from_chi(10, 1.6))

    def test_finite(self):
        z = z_score(BankStrategy(0.001 + 1e-9, 40), MarketParams.from_chi(40, 0.001))
        assert math.isfinite(z)

    @pytest.mark.parametrize(
        "n, chi, drift",
        [(5, 5e-324, 0.0), (2, 5e-324, 0.0), (1, 1e-3, 1e308), (1, 1e-3, -1e308)],
        ids=["chi-over-5-is-0", "chi-over-2-is-0", "z-overflows-down", "z-overflows-up"],
    )
    def test_non_finite_z_rejected(self, n, chi, drift):
        # chi/n underflows to 0 or z overflows: one DomainError naming the
        # cell, not a RuntimeWarning (pytest runs with filterwarnings = error)
        with pytest.raises(DomainError, match=re.escape(f"z is not finite at f=0.25, n={n}, chi={chi!r}, shift={drift!r}")):
            z_score(BankStrategy(0.25, n), MarketParams(10, chi, drift=drift))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_largest_chi_gives_large_finite_z(self, n):
        # 2 chi overflows at chi = 1e308; z = -(ln 4 - q) / sqrt(2 q) with
        # q = chi / n is about sqrt(q / 2), not the 0 that finite / inf gives
        z = z_score(BankStrategy(0.25, n), MarketParams(10, 1e308))
        assert z == pytest.approx(math.sqrt(1e308 / n / 2.0), rel=1e-12)


class TestIndividualPd:
    def test_reference_value(self):
        # Phi(-1.3328679514) frozen from mpmath
        m = MarketParams.from_chi(10, 1.6)
        assert individual_pd(BankStrategy(0.25, 5), m) == pytest.approx(
            0.091287570734577133, abs=1e-10
        )

    @given(st.tuples(leverages, leverages).map(sorted), st.integers(1, 20), chis)
    @settings(max_examples=60)
    def test_strictly_increasing_in_leverage(self, fs, n, chi):
        lo, hi = fs
        if hi - lo < 1e-9:
            return
        m = MarketParams.from_chi(20, chi)
        assert z_score(BankStrategy(lo, n), m) < z_score(BankStrategy(hi, n), m)
        pd_lo = individual_pd(BankStrategy(lo, n), m)
        pd_hi = individual_pd(BankStrategy(hi, n), m)
        # strictness is lost to underflow once both tails drop below ~1e-308
        if pd_hi > 1e-300:
            assert pd_lo < pd_hi
        else:
            assert pd_lo <= pd_hi

    @given(leverages, st.tuples(st.integers(1, 20), st.integers(1, 20)).map(sorted), chis)
    @settings(max_examples=60)
    def test_decreasing_in_n_when_solvent(self, f, ns, chi):
        n_lo, n_hi = ns
        if n_lo == n_hi:
            return
        m = MarketParams.from_chi(20, chi)
        # restrict to the solvent regime z < 0 for both
        if z_score(BankStrategy(f, n_lo), m) >= 0 or z_score(BankStrategy(f, n_hi), m) >= 0:
            return
        assert individual_pd(BankStrategy(f, n_hi), m) <= individual_pd(
            BankStrategy(f, n_lo), m
        )

    def test_largest_chi_defaults_surely(self):
        # 2 chi overflows at chi = 1e308, where finite / inf made z = 0 and pd 1/2
        assert individual_pd(BankStrategy(0.25, 5), MarketParams(10, 1e308)) == 1.0

    @pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
    def test_vanishing_chi_limit(self, f):
        m = MarketParams.from_chi(5, 1e-6)
        assert individual_pd(BankStrategy(f, 1), m) < 1e-10


class TestAssetCorrelation:
    def test_full_overlap(self):
        m = MarketParams.from_chi(10, 1.6)
        assert asset_correlation(10, m) == 1.0
        assert type(asset_correlation(10, m)) is float

    def test_published_substitution(self):
        assert asset_correlation(5, MarketParams.from_chi(10, 1.6)) == 0.5
        assert asset_correlation(1, MarketParams.from_chi(40, 1.6)) == 0.025

    @pytest.mark.parametrize("N", [10, 20, 30, 40])
    def test_round_trip_exact_on_reference_box(self, N):
        m = MarketParams.from_chi(N, 1.6)
        for n in range(1, N + 1):
            assert asset_correlation(n, m) * N == float(n)

    @given(st.integers(min_value=1, max_value=500))
    def test_round_trip_one_ulp(self, N):
        m = MarketParams.from_chi(N, 1.6)
        for n in (1, N // 2 or 1, N):
            assert asset_correlation(n, m) * N == pytest.approx(n, rel=1e-15)

    def test_domain_errors(self):
        m = MarketParams.from_chi(10, 1.6)
        with pytest.raises(DomainError):
            asset_correlation(11, m)
        with pytest.raises(DomainError):
            asset_correlation(0, m)
        with pytest.raises(DomainError):
            asset_correlation(2.5, m)


def seeded_cells(seed, count=400, max_size=60):
    """(strategy, market) pairs with f in (0, 1), 1 <= n <= N <= max_size and
    mu != 0; chi comes from from_chi on even draws and from (sigma, T) on odd."""
    rng = np.random.default_rng(seed)
    cells = []
    for i in range(count):
        size = int(rng.integers(1, max_size + 1))
        strategy = BankStrategy(float(rng.uniform(1e-6, 1.0 - 1e-6)), int(rng.integers(1, size + 1)))
        mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.2))
        if i % 2:
            market = MarketParams.from_sigma(size, float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.1, 5.0)), mu)
        else:
            market = MarketParams.from_chi(size, float(rng.uniform(1e-3, 9.0)), drift=mu)
        cells.append((strategy, market))
    return cells


class TestZCells:
    """z_score is the one-cell case of the array-valued z_cells."""

    def test_scalar_matches_array_bit_for_bit(self):
        cells = seeded_cells(20261019, count=2000)
        scalar = np.array([z_score(s, m) for s, m in cells])
        array = z_cells(
            [s.leverage for s, _ in cells],
            [s.diversification for s, _ in cells],
            np.array([m.chi for _, m in cells]),
            np.array([m.drift * m.horizon for _, m in cells]),
        )
        assert scalar.view(np.int64).tolist() == array.view(np.int64).tolist()
        # the formula in scalar float arithmetic with libm's log and sqrt
        by_hand = [
            -(math.log(1.0 / s.leverage) + m.drift * m.horizon - m.chi / s.diversification)
            / math.sqrt(2.0 * m.chi / s.diversification)
            for s, m in cells
        ]
        assert scalar.view(np.int64).tolist() == np.array(by_hand).view(np.int64).tolist()

    def test_bits_match_the_two_chi_over_n_form(self):
        # sqrt(2 (chi / n)) is sqrt(2 chi / n) wherever chi / n is a normal
        # float, since doubling is exact: log-uniform chi over most of the range
        rng = np.random.default_rng(20261021)
        f = rng.uniform(1e-6, 1.0 - 1e-6, 20_000)
        n = rng.integers(1, 1_000_001, 20_000).astype(float)
        chi = 10.0 ** rng.uniform(-300.0, 307.0, 20_000)
        shift = rng.uniform(-0.3, 0.3, 20_000)
        assert (chi / n >= np.finfo(float).tiny).all()
        log = np.array([math.log(1.0 / x) for x in f.tolist()])
        old = -(log + shift - chi / n) / np.sqrt(2.0 * chi / n)
        assert z_cells(f, n, chi, shift).view(np.int64).tolist() == old.view(np.int64).tolist()

    def test_broadcast_cells_match_scalar_cells(self):
        fs, ns = np.array([0.1, 0.25, 0.5, 0.1]), np.arange(1, 13)
        market = MarketParams.from_sigma(12, 0.9, horizon=2.0, drift=-0.03)
        z = z_cells(fs[:, None], ns, market.chi, market.drift * market.horizon)
        assert z.shape == (4, 12)
        expected = [[z_score(BankStrategy(f, int(n)), market) for n in ns] for f in fs]
        assert z.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()

    def test_python_floats(self):
        for strategy, market in seeded_cells(7, count=40):
            assert type(z_score(strategy, market)) is float
            assert type(individual_pd(strategy, market)) is float
            k = max(0, 2 * strategy.diversification - market.market_size)
            for overlap in (None, FixedOverlap(k), RandomSelection()):
                assert type(systemic_pd(strategy, market, overlap=overlap)) is float


class TestJointPd:
    """systemic_pd under each overlap that correlation_law maps to rho."""

    def test_random_selection_is_hypergeometric_mixture(self):
        strategy, market = BankStrategy(0.25, 4), MarketParams.from_chi(8, 1.6)
        assert systemic_pd(strategy, market, overlap=RandomSelection()) == pytest.approx(0.051975285, abs=1e-6)
        # the mean-correlation value the paper uses is lower (Phi2 convex in rho)
        assert systemic_pd(strategy, market) == pytest.approx(0.049681, abs=1e-6)
        # N = n: both banks hold every project, so K = n with certainty
        full = MarketParams.from_chi(4, 1.6)
        assert systemic_pd(strategy, full, overlap=RandomSelection()) == systemic_pd(strategy, full)

    def test_random_selection_is_at_least_mean_correlation_value(self):
        # Jensen: Phi2(z, z, rho) is convex in rho on [0, 1] and E[K/n] = n/N.
        # The oracle's error is absolute: for rho >= 0.925 Genz's form drops
        # terms below exp(-100), so a joint PD under 1e-40 carries no relative
        # accuracy (at z = -28.8, rho = 13/14 it returns Phi(z), 6.3e-183, for
        # 1.8e-190), and there only the absolute bound of 1e-15 can hold.
        for strategy, market in seeded_cells(20261020, count=1000):
            mixture = systemic_pd(strategy, market, overlap=RandomSelection())
            mean = systemic_pd(strategy, market)
            assert mixture >= (mean if mean > 1e-40 else mean - 1e-15)
            if strategy.diversification == market.market_size:
                assert mixture == mean

    @pytest.mark.parametrize("size, n", [(1, 1), (8, 4), (10, 7), (60, 13), (60, 60)])
    def test_hypergeometric_law(self, size, n):
        rho, weight = correlation_law(n, size, RandomSelection())
        assert rho.tolist() == [k / n for k in range(max(0, 2 * n - size), n + 1)]
        assert weight.sum() == pytest.approx(1.0, rel=1e-14)
        assert rho @ weight == pytest.approx(n / size, rel=1e-14)  # E[K] = n^2 / N

    def test_fixed_overlap_is_a_point_mass_at_k_over_n(self):
        strategy, market = BankStrategy(0.25, 4), MarketParams.from_chi(8, 1.6)
        z = z_score(strategy, market)
        for k in range(5):
            assert systemic_pd(strategy, market, overlap=FixedOverlap(k)) == binorm_cdf(z, k / 4)
        assert systemic_pd(strategy, market, overlap=FixedOverlap(2)) == systemic_pd(strategy, market)

    def test_mean_correlation_is_n_over_size_for_arrays(self):
        n, size = np.arange(1, 41), np.repeat([10, 20, 30, 40], 10)
        rho, weight = correlation_law(n, size)
        assert weight == 1.0
        assert rho.tolist() == [a / b for a, b in zip(n.tolist(), size.tolist())]

    @pytest.mark.parametrize("overlap", [FixedOverlap(5), FixedOverlap(-1), FixedOverlap(0), FixedOverlap(True), "random"])
    def test_impossible_overlap_rejected(self, overlap):
        # two books of 4 of 6 projects share at least 2 and at most 4
        with pytest.raises(ConfigError):
            systemic_pd(BankStrategy(0.25, 4), MarketParams.from_chi(6, 1.6), overlap=overlap)

    @pytest.mark.parametrize("overlap", [FixedOverlap(4), RandomSelection()])
    def test_books_larger_than_the_market_rejected(self, overlap):
        # check_overlap is the one book-size rule: n <= N under either overlap
        with pytest.raises(ConfigError, match="diversification 9 exceeds market size 8"):
            correlation_law(9, 8, overlap)
