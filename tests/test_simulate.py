"""Tests for the Monte Carlo simulator."""

import functools
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

import levdiv.simulate
from levdiv import (
    BankStrategy,
    DomainError,
    FixedOverlap,
    LeverageScenario,
    MarketParams,
    RandomSelection,
    SimConfig,
    delta_phi2,
    estimate_default_probs,
    individual_pd,
    path_rng,
    systemic_pd,
)
from levdiv.simulate import select_holdings

from rebalancing_reference import PortfolioState, simulate_bank, simulate_prices
from serial_estimator import serial_estimate


def make_config(**overrides):
    base = dict(
        market=MarketParams.from_chi(8, 1.6),
        strategies=(BankStrategy(0.25, 4), BankStrategy(0.25, 4)),
        overlap=FixedOverlap(2),
        paths=100,
        steps_per_horizon=50,
        seed=123,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_overlap_bounds(self):
        with pytest.raises(DomainError):
            make_config(overlap=FixedOverlap(5))  # k > n
        with pytest.raises(DomainError):
            make_config(
                market=MarketParams.from_chi(6, 1.6), overlap=FixedOverlap(1)
            )  # k < 2n - N = 2
        make_config(market=MarketParams.from_chi(6, 1.6), overlap=FixedOverlap(2))

    @pytest.mark.parametrize("overlap", [FixedOverlap(9), RandomSelection()])
    def test_diversification_within_market(self, overlap):
        with pytest.raises(DomainError, match="exceeds market size 8"):
            make_config(strategies=(BankStrategy(0.25, 9), BankStrategy(0.25, 9)), overlap=overlap)

    @pytest.mark.parametrize(
        "second", [BankStrategy(0.1, 4), BankStrategy(0.25, 3)], ids=["f-differs", "n-differs"]
    )
    def test_banks_share_one_strategy(self, second):
        # the model has two identical banks: one leverage and one book size
        with pytest.raises(DomainError, match="one strategy"):
            make_config(strategies=(BankStrategy(0.25, 4), second))

    @pytest.mark.parametrize("market", [MarketParams(1, 1e308), MarketParams(1, 1e300, horizon=1e-10)])
    def test_variance_must_be_finite(self, market):
        # sigma^2 = 2 chi / T overflows: every path would be NaN
        strategy = BankStrategy(0.25, 1)
        with pytest.raises(DomainError, match="sigma"):
            make_config(market=market, strategies=(strategy, strategy), overlap=FixedOverlap(1))
        make_config(market=MarketParams(1, 8e307), strategies=(strategy, strategy), overlap=FixedOverlap(1))

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            make_config(paths=0)
        with pytest.raises(DomainError):
            make_config(steps_per_horizon=0)
        with pytest.raises(DomainError):
            make_config(seed=-1)


class TestSimulatePrices:
    def test_deterministic_per_path(self):
        cfg = make_config()
        assert np.array_equal(simulate_prices(cfg, 5), simulate_prices(cfg, 5))
        assert not np.array_equal(simulate_prices(cfg, 5), simulate_prices(cfg, 6))

    def test_shape_and_start(self):
        # under a fixed overlap of 2 the two books of 4 hold 6 of the 8
        # projects, and only those draw shocks; random selection draws all 8
        for overlap, width in ((FixedOverlap(2), 6), (RandomSelection(), 8)):
            prices = simulate_prices(make_config(overlap=overlap), 0, initial_price=2.0)
            assert prices.shape == (51, width)
            assert np.all(prices[0] == 2.0)
            assert np.all(prices > 0)

    def test_zero_volatility_is_deterministic_growth(self):
        market = MarketParams.from_sigma(market_size=3, sigma=0.0, horizon=1.0, drift=0.07)
        cfg = make_config(
            market=market,
            strategies=(BankStrategy(0.25, 3), BankStrategy(0.25, 3)),
            overlap=FixedOverlap(3),
            steps_per_horizon=10,
        )
        prices = simulate_prices(cfg, 9)
        step = math.exp(0.07 * cfg.dt)
        expected = np.cumprod(np.full(10, step))
        for col in range(3):
            assert prices[1:, col] == pytest.approx(expected, rel=1e-15)
        assert prices[-1, 0] == pytest.approx(math.exp(0.07), rel=1e-12)

    def test_terminal_mean_matches_gbm_moment(self):
        market = MarketParams.from_sigma(market_size=2, sigma=0.2, horizon=1.0, drift=0.05)
        cfg = make_config(
            market=market,
            strategies=(BankStrategy(0.25, 2), BankStrategy(0.25, 2)),
            overlap=FixedOverlap(2),
            steps_per_horizon=10,
            paths=20_000,
            seed=11,
        )
        terminal = np.array(
            [simulate_prices(cfg, p)[-1].mean() for p in range(cfg.paths)]
        )
        target = math.exp(0.05)
        se = terminal.std(ddof=1) / math.sqrt(cfg.paths)
        assert abs(terminal.mean() - target) <= 3 * se


class TestPortfolio:
    def test_single_project_passthrough_exact(self):
        market = MarketParams.from_chi(3, 1.6)
        cfg = make_config(
            market=market,
            strategies=(BankStrategy(0.25, 1), BankStrategy(0.25, 1)),
            overlap=FixedOverlap(1),
        )
        prices = simulate_prices(cfg, 0)
        assert simulate_bank(prices, np.array([0])) == prices[-1, 0]

    def test_self_financing_at_every_rebalance(self):
        cfg = make_config()
        prices = simulate_prices(cfg, 3)
        state = PortfolioState.equal_weight(1.0, np.array([0, 2, 3, 5]), prices[0])
        for t in range(1, prices.shape[0]):
            state.prices = prices[t]
            before = state.asset_value
            state.advance(prices[t])
            after = state.asset_value
            assert after == pytest.approx(before, rel=1e-12)

    def test_equal_weight_restored(self):
        cfg = make_config()
        prices = simulate_prices(cfg, 4)
        state = PortfolioState.equal_weight(1.0, np.array([1, 3, 4]), prices[0])
        for t in range(1, 20):
            state.advance(prices[t])
            values = state.per_project_values
            assert values == pytest.approx(np.full(3, values.mean()), rel=1e-12)

    def test_volatility_scaling_with_diversification(self):
        # per-step log-return std of the rebalanced book scales as 1/sqrt(n)
        market = MarketParams.from_chi(16, 1.6)
        stds = {}
        for n in (1, 4, 16):
            cfg = make_config(
                market=market,
                strategies=(BankStrategy(0.25, n), BankStrategy(0.25, n)),
                overlap=FixedOverlap(n),
                paths=400,
                steps_per_horizon=250,
                seed=21,
            )
            rets = []
            holdings = np.arange(n)
            for p in range(cfg.paths):
                prices = simulate_prices(cfg, p)
                # equal-weight rebalancing makes the book's per-step gross
                # return the mean of the held projects' gross returns
                g = prices[1:, holdings] / prices[:-1, holdings]
                rets.append(np.log(g.mean(axis=1)))
            stds[n] = float(np.std(np.concatenate(rets)))
        sigma_step = market.sigma * math.sqrt(1.0 / 250)
        for n in (1, 4, 16):
            assert stds[n] == pytest.approx(sigma_step / math.sqrt(n), rel=0.05)

    def test_empty_holdings_rejected(self):
        cfg = make_config()
        prices = simulate_prices(cfg, 0)
        with pytest.raises(DomainError):
            simulate_bank(prices, np.array([], dtype=int))
        with pytest.raises(DomainError):
            simulate_bank(prices, np.array([2, 2]))

    def test_explicit_and_batched_routes_agree(self):
        cfg = make_config(paths=32)
        result = estimate_default_probs(cfg, collect_terminals=True)
        for p in range(cfg.paths):
            prices = simulate_prices(cfg, p)
            h1, h2 = select_holdings(cfg, p)
            assert simulate_bank(prices, h1) == pytest.approx(
                result.terminal_values[p, 0], rel=1e-12
            )
            assert simulate_bank(prices, h2) == pytest.approx(
                result.terminal_values[p, 1], rel=1e-12
            )


class TestHoldingsSelection:
    def test_fixed_overlap_layout(self):
        cfg = make_config(overlap=FixedOverlap(2))
        h1, h2 = select_holdings(cfg, 0)
        assert list(h1) == [0, 1, 2, 3]
        assert list(h2) == [2, 3, 4, 5]
        assert len(np.intersect1d(h1, h2)) == 2

    def test_random_selection_is_per_path_deterministic(self):
        cfg = make_config(overlap=RandomSelection())
        a = select_holdings(cfg, 7)
        b = select_holdings(cfg, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for h in a:
            assert len(np.unique(h)) == 4
            assert h.min() >= 0 and h.max() < 8

    def test_selection_stream_independent_of_prices(self):
        # drawing holdings must not perturb the price shocks
        cfg = make_config(overlap=RandomSelection())
        prices_before = simulate_prices(cfg, 7)
        select_holdings(cfg, 7)
        assert np.array_equal(simulate_prices(cfg, 7), prices_before)
        assert not np.array_equal(
            path_rng(cfg.seed, 7, stream=0).standard_normal(4),
            path_rng(cfg.seed, 7, stream=1).standard_normal(4),
        )


class TestStreamRepointing:
    """A generator re-keyed in place must be indistinguishable from a fresh
    path_rng, whatever state the previous key left behind."""

    DRAWS = {
        "standard_normal": lambda g: g.standard_normal(37),
        "permutation": lambda g: g.permutation(16),
        "integers": lambda g: g.integers(0, 1000, size=9),
    }

    @pytest.mark.parametrize("draw", list(DRAWS))
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("seed, path_index", [(123, 7), (2**64 - 2, 2**64 - 1), (0, 2**40 + 3)])
    def test_repointed_generator_matches_fresh(self, seed, path_index, stream, draw):
        gen = path_rng(seed, 3)
        state = gen.bit_generator.state
        # three 32-bit draws: a half-used 64-bit word and a partly used buffer
        gen.random(3, dtype=np.float32)
        left = gen.bit_generator.state
        assert left["has_uint32"] == 1 and 0 < left["buffer_pos"] < 4
        levdiv.simulate._repoint(gen, state, path_index, stream)
        expected = self.DRAWS[draw](path_rng(seed, path_index, stream))
        assert np.array_equal(self.DRAWS[draw](gen), expected)


class TestEstimates:
    def test_bitwise_reproducible(self):
        cfg = make_config(paths=500, overlap=RandomSelection())
        a = estimate_default_probs(cfg)
        b = estimate_default_probs(cfg)
        assert a == b

    def test_full_overlap_joint_equals_marginals(self):
        market = MarketParams.from_chi(4, 1.6)
        cfg = make_config(
            market=market,
            strategies=(BankStrategy(0.25, 4), BankStrategy(0.25, 4)),
            overlap=FixedOverlap(4),
            paths=2000,
        )
        res = estimate_default_probs(cfg)
        assert res.joint_pd_hat == res.pd1_hat == res.pd2_hat
        assert res.realized_correlation == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_portfolios_factorize(self):
        market = MarketParams.from_chi(8, 1.6)
        cfg = make_config(
            market=market,
            overlap=FixedOverlap(0),
            paths=40_000,
            steps_per_horizon=100,
            seed=5,
        )
        res = estimate_default_probs(cfg)
        indep = res.pd1_hat * res.pd2_hat
        se = math.sqrt(indep * (1 - indep) / cfg.paths)
        assert abs(res.joint_pd_hat - indep) <= 3 * se
        assert abs(res.realized_correlation) <= 0.02

    def test_marginal_matches_analytic(self):
        market = MarketParams.from_chi(4, 1.6)
        strategy = BankStrategy(0.25, 4)
        cfg = make_config(
            market=market,
            strategies=(strategy, strategy),
            overlap=FixedOverlap(4),
            paths=40_000,
            steps_per_horizon=250,
            seed=9,
        )
        res = estimate_default_probs(cfg)
        target = individual_pd(strategy, market)
        assert abs(res.pd1_hat - target) <= 3 * res.se_pd1 + 1e-3
        assert abs(res.pd2_hat - target) <= 3 * res.se_pd2 + 1e-3

    def test_realized_correlation_tracks_overlap_ratio(self):
        cfg = make_config(paths=4000, overlap=FixedOverlap(2), seed=31)
        res = estimate_default_probs(cfg)
        assert res.realized_correlation == pytest.approx(0.5, abs=0.02)

    def test_standard_errors(self):
        cfg = make_config(paths=1000)
        res = estimate_default_probs(cfg)
        for p, se in [
            (res.pd1_hat, res.se_pd1),
            (res.pd2_hat, res.se_pd2),
            (res.joint_pd_hat, res.se_joint),
        ]:
            assert se == pytest.approx(math.sqrt(p * (1 - p) / 1000), rel=1e-12)
            assert 0.0 <= p <= 1.0

    def test_serialization(self):
        # the keys and their order are a contract: bit-identity checks
        # compare these strings; terminal values stay out
        cfg = make_config(paths=50)
        res = estimate_default_probs(cfg, collect_terminals=True)
        doc = json.loads(res.to_json())
        assert list(doc) == [
            "pd1_hat", "pd2_hat", "joint_pd_hat", "se_pd1", "se_pd2", "se_joint",
            "realized_correlation", "paths_used", "seed_used",
        ]
        assert doc["paths_used"] == 50
        assert doc["seed_used"] == 123

    def test_terminal_collection(self):
        cfg = make_config(paths=64)
        res = estimate_default_probs(cfg, collect_terminals=True)
        assert res.terminal_values.shape == (64, 2)
        assert np.all(res.terminal_values > 0)
        assert estimate_default_probs(cfg).terminal_values is None

    def test_random_overlap_matches_mixture(self):
        # random selection makes the overlap K hypergeometric(N, n, n), so
        # the target is the mixture of Phi2(z, z, k/n), not Phi2 at n/N;
        # seed continues criterion 4's 211 + i, budget is criterion 4's
        market = MarketParams.from_chi(8, 1.6)
        strategy = BankStrategy(0.25, 4)
        cfg = make_config(
            market=market,
            strategies=(strategy, strategy),
            overlap=RandomSelection(),
            paths=20_000,
            steps_per_horizon=250,
            seed=213,
        )
        res = estimate_default_probs(cfg)
        target = systemic_pd(strategy, market, overlap=RandomSelection())
        assert abs(res.joint_pd_hat - target) <= max(3.0 * res.se_joint, 0.005)


@pytest.mark.parametrize(
    "N, n, shared, f_normal, f_abnormal, seed",
    [(16, 4, 1, 0.10, 0.25, 401), (20, 10, 5, 0.25, 0.50, 402)],
    ids=["N16-n4-k1", "N20-n10-k5"],
)
def test_leverage_differential_matches_delta_phi2(N, n, shared, f_normal, f_abnormal, seed):
    """The paper's differential delta_phi2 against one run's joint defaults
    at both leverages on the same paths.  A bank defaults at f iff its
    terminal assets are at most f, so per path J_a - J_n is 0 or 1 and
    SE = sqrt(d (1 - d) / paths).  The overlap k has k/n = n/N, the paper's
    correlation; 250 steps keep the discrete-rebalancing bias below the
    noise (at 50 steps the first cell reads +3 SE).  Labels are checked at
    a loose eps = 0.05 only: at eps = 1e-6, |delta - eps| is far below any
    feasible SE, so Monte Carlo cannot check those labels."""
    market = MarketParams.from_chi(N, 1.6)
    strategy = BankStrategy(f_normal, n)
    cfg = SimConfig(
        market=market, strategies=(strategy, strategy), overlap=FixedOverlap(shared),
        paths=40_000, steps_per_horizon=250, seed=seed,
    )
    res = estimate_default_probs(cfg, collect_terminals=True)
    joint = [float((res.terminal_values <= f).all(axis=1).mean()) for f in (f_normal, f_abnormal)]
    assert joint[0] == res.joint_pd_hat
    d = joint[1] - joint[0]
    se = math.sqrt(d * (1.0 - d) / cfg.paths)
    target = delta_phi2(LeverageScenario(f_normal, f_abnormal), n, market)
    assert abs(d - target) <= 3.0 * se  # measured -0.2 and -1.2 SE
    eps = 0.05
    assert abs(target - eps) > 3.0 * se
    assert (d > eps) == (target > eps)


def _bit_identity_config(N, n, shared, steps=50, paths=300, chi=1.6):
    return make_config(
        market=MarketParams.from_chi(N, chi),
        strategies=(BankStrategy(0.25, n), BankStrategy(0.25, n)),
        overlap=RandomSelection() if shared is None else FixedOverlap(shared),
        steps_per_horizon=steps,
        paths=paths,
    )


BIT_IDENTITY_CONFIGS = {
    "N4-n4-k4": _bit_identity_config(4, 4, 4),
    "N8-n4-k2": _bit_identity_config(8, 4, 2),
    "N16-n4-k1": _bit_identity_config(16, 4, 1),
    "N8-n4-random": _bit_identity_config(8, 4, None),
    # books of 9+ projects, where fixed and random gathers sum differently
    "N24-n12-k12": _bit_identity_config(24, 12, 12),
    "N20-n10-random": _bit_identity_config(20, 10, None),
    # two full chunks and a ragged one of 1234 paths
    "N16-n4-k1-ragged": _bit_identity_config(16, 4, 1, steps=20, paths=2 * levdiv.simulate._CHUNK_PATHS + 1234),
    # one path's shocks exceed the scratch budget: sub-blocks of one path
    "N16-n10-random-long": _bit_identity_config(16, 10, None, steps=10_000, paths=20),
    # about half the book means underflow at sigma^2 = 6000 over 4 steps
    "N8-n4-k2-underflow": _bit_identity_config(8, 4, 2, steps=4, chi=3000.0),
    "N8-n4-random-underflow": _bit_identity_config(8, 4, None, steps=4, chi=3000.0),
}


def _assert_bitwise_equal(result, expected):
    assert result.to_json() == expected.to_json()
    assert np.array_equal(result.terminal_values, expected.terminal_values)


@functools.lru_cache(maxsize=None)
def _serial_result(name):
    return serial_estimate(BIT_IDENTITY_CONFIGS[name], collect_terminals=True)


class TestThreadedEstimator:
    @pytest.mark.parametrize("workers", [None, 1, 3])
    @pytest.mark.parametrize("name", list(BIT_IDENTITY_CONFIGS))
    def test_matches_serial_reference_bit_for_bit(self, monkeypatch, name, workers):
        if workers is not None:
            monkeypatch.setattr(levdiv.simulate, "_usable_cpus", lambda: workers)
        expected = _serial_result(name)
        result = estimate_default_probs(BIT_IDENTITY_CONFIGS[name], collect_terminals=True)
        _assert_bitwise_equal(result, expected)

    def test_unheld_projects_draw_nothing(self):
        # a fixed overlap draws shocks only for the 2n - k held projects,
        # so a market with more projects than the books hold changes no bit
        n, k = 4, 1
        results = [
            estimate_default_probs(
                make_config(
                    market=MarketParams.from_chi(N, 1.6), strategies=(BankStrategy(0.25, n),) * 2, overlap=FixedOverlap(k)
                ),
                collect_terminals=True,
            )
            for N in (2 * n - k, 4 * (2 * n - k))
        ]
        small, large = results
        for key in ("pd1_hat", "pd2_hat", "joint_pd_hat"):
            assert getattr(small, key) == getattr(large, key)
        assert np.array_equal(small.terminal_values, large.terminal_values)

    def test_ragged_config_spans_three_chunks(self):
        # a chunk is a fixed number of paths, whatever the steps and N
        cfg = BIT_IDENTITY_CONFIGS["N16-n4-k1-ragged"]
        assert 2 * levdiv.simulate._CHUNK_PATHS < cfg.paths < 3 * levdiv.simulate._CHUNK_PATHS

    def test_long_config_has_one_path_sub_blocks(self):
        cfg = BIT_IDENTITY_CONFIGS["N16-n10-random-long"]
        assert cfg.steps_per_horizon * cfg.market.market_size > levdiv.simulate._SCRATCH_BUDGET

    # the scratch budget at one path per sub-block, and at a whole chunk or
    # more (8M doubles hold a whole chunk of every config above)
    @pytest.mark.parametrize("budget", [1, 8_000_000], ids=["one-path", "whole-chunk"])
    @pytest.mark.parametrize("name", list(BIT_IDENTITY_CONFIGS))
    def test_scratch_budget_does_not_change_bits(self, monkeypatch, name, budget):
        monkeypatch.setattr(levdiv.simulate, "_SCRATCH_BUDGET", budget)
        result = estimate_default_probs(BIT_IDENTITY_CONFIGS[name], collect_terminals=True)
        _assert_bitwise_equal(result, _serial_result(name))

    @pytest.mark.parametrize("overlap", [FixedOverlap(2), RandomSelection()])
    def test_fewer_paths_than_workers(self, monkeypatch, overlap):
        monkeypatch.setattr(levdiv.simulate, "_usable_cpus", lambda: 3)
        cfg = make_config(paths=2, overlap=overlap)
        result = estimate_default_probs(cfg, collect_terminals=True)
        expected = serial_estimate(cfg, collect_terminals=True)
        _assert_bitwise_equal(result, expected)

    def test_oversubscribed_workers_with_fast_switching(self, monkeypatch):
        # more threads than cores, switching every few microseconds: a row
        # written by two workers or a lost write would change the bits
        monkeypatch.setattr(levdiv.simulate, "_usable_cpus", lambda: 2 * (os.cpu_count() or 1) + 1)
        cfg = BIT_IDENTITY_CONFIGS["N8-n4-random"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = estimate_default_probs(cfg, collect_terminals=True)
        finally:
            sys.setswitchinterval(interval)
        expected = _serial_result("N8-n4-random")
        _assert_bitwise_equal(result, expected)


class TestUnderflowedBookMeans:
    def test_underflow_configs_take_both_routes(self):
        # the bit-identity configs above retake some book means, not all
        cfg = BIT_IDENTITY_CONFIGS["N8-n4-random-underflow"]
        m = cfg.market
        low = []
        for p in range(cfg.paths):
            x = path_rng(cfg.seed, p).standard_normal((4, 8)) * (m.sigma * math.sqrt(cfg.dt)) - 0.5 * m.sigma**2 * cfg.dt
            low.append(np.exp(x[:, select_holdings(cfg, p)[0]]).mean(axis=1) < np.finfo(float).tiny)
        assert 0.2 < np.mean(low) < 0.8, np.mean(low)

    def test_single_project_log_return_is_exact(self):
        # at n = 1, m + log(mean(exp(x - m))) is x itself: with two one-project
        # books (k = 0) whose every gross return underflows, the realized
        # correlation is that of drift_term + vol * xi, summed in the estimator's order
        strategy = BankStrategy(0.25, 1)
        cfg = make_config(
            market=MarketParams.from_chi(2, 2000.0), strategies=(strategy, strategy), overlap=FixedOverlap(0),
            paths=1, steps_per_horizon=2,
        )
        m = cfg.market
        drift_term = (m.drift - 0.5 * m.sigma**2) * cfg.dt
        vol_term = m.sigma * math.sqrt(cfg.dt)
        (x0, y0), (x1, y1) = (path_rng(cfg.seed, 0).standard_normal((2, 2)) * vol_term + drift_term).tolist()
        assert max(x0, y0, x1, y1) < math.log(np.finfo(float).tiny)
        s_x, s_y = x0 + x1, y0 + y1
        var_x = (x0 * x0 + x1 * x1) / 2 - (s_x / 2) ** 2
        var_y = (y0 * y0 + y1 * y1) / 2 - (s_y / 2) ** 2
        cov = (x0 * y0 + x1 * y1) / 2 - (s_x / 2) * (s_y / 2)
        result = estimate_default_probs(cfg)
        assert result.realized_correlation == cov / math.sqrt(var_x * var_y)
        assert (result.pd1_hat, result.pd2_hat, result.joint_pd_hat) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("shared", [2, 1], ids=["identical-books", "k1"])
def test_traced_peak_does_not_grow_with_steps_or_paths(monkeypatch, shared):
    # each worker reduces its paths to a few scalars each, so memory is the
    # workers' scratch blocks plus per-chunk vectors.  A per-(path, step)
    # slab of book returns would grow about 3x here with 8x the steps; the
    # 1.5x allows for how the three workers' blocks overlap in time
    monkeypatch.setattr(levdiv.simulate, "_usable_cpus", lambda: 3)
    strategy = BankStrategy(0.1, 2)

    def traced_peak(paths, steps):
        cfg = make_config(
            market=MarketParams.from_chi(4 - shared, 5.1), strategies=(strategy, strategy),
            overlap=FixedOverlap(shared), paths=paths, steps_per_horizon=steps,
        )
        tracemalloc.start()
        try:
            estimate_default_probs(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = traced_peak(2000, 250)
    assert traced_peak(2000, 2000) <= 1.5 * base
    assert traced_peak(8000, 250) <= 1.5 * base
