"""Tests for the single-bank Merton quantities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levdiv import (
    BankStrategy,
    DomainError,
    MarketParams,
    StrategyMarketMismatchError,
    asset_correlation,
    individual_pd,
    systemic_pd,
    z_score,
)
from levdiv.merton import random_overlap_joint_pd

leverages = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
chis = st.floats(min_value=0.05, max_value=9.0, allow_nan=False)


class TestMarketParams:
    def test_chi_from_sigma(self):
        m = MarketParams(market_size=10, sigma=2.0, horizon=0.5)
        assert m.chi == pytest.approx(1.0)

    def test_from_chi_canonical_mapping(self):
        m = MarketParams.from_chi(10, 1.6)
        assert m.horizon == 1.0
        assert m.sigma == pytest.approx(math.sqrt(3.2))
        assert m.chi == pytest.approx(1.6)

    def test_sigma_zero_allowed_but_analytics_reject(self):
        m = MarketParams(market_size=5, sigma=0.0)
        assert m.chi == 0.0
        with pytest.raises(DomainError):
            z_score(BankStrategy(0.5, 1), m)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(market_size=0, sigma=1.0),
            dict(market_size=10, sigma=-1.0),
            dict(market_size=10, sigma=1.0, horizon=0.0),
            dict(market_size=10, sigma=float("nan")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            MarketParams(**kwargs)

    def test_with_drift(self):
        m = MarketParams.from_chi(10, 1.6).with_drift(-0.05)
        assert m.drift == -0.05
        assert m.chi == pytest.approx(1.6)


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
        with pytest.raises(StrategyMarketMismatchError):
            z_score(BankStrategy(0.5, 11), MarketParams.from_chi(10, 1.6))

    def test_finite(self):
        z = z_score(BankStrategy(0.001 + 1e-9, 40), MarketParams.from_chi(40, 0.001))
        assert math.isfinite(z)


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


def test_random_overlap_joint_pd_is_hypergeometric_mixture():
    strategy, market = BankStrategy(0.25, 4), MarketParams.from_chi(8, 1.6)
    assert random_overlap_joint_pd(strategy, market) == pytest.approx(0.051975285, abs=1e-6)
    # the mean-correlation value the paper uses is lower (Phi2 convex in rho)
    assert systemic_pd(strategy, market) == pytest.approx(0.049681, abs=1e-6)
    # N = n: both banks hold every project, so K = n with certainty
    full = MarketParams.from_chi(4, 1.6)
    assert random_overlap_joint_pd(strategy, full) == systemic_pd(strategy, full)
