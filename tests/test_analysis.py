"""Tests for the systemic-risk analysis layer."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critical_order import effective_critical

from levdiv import (
    BankStrategy,
    ConfigError,
    DomainError,
    FixedOverlap,
    GridSpec,
    LeverageScenario,
    MarketParams,
    SimConfig,
    asset_correlation,
    critical_diversification,
    default_chi_grid,
    delta_phi2,
    individual_pd,
    mu_sensitivity,
    phi1,
    regime_sweep,
    systemic_pd,
    z_score,
)
from levdiv.analysis import critical_table

M10 = MarketParams.from_chi(10, 1.6)
SCENARIO = LeverageScenario(0.10, 0.25)
SMALL_GRID = GridSpec(cells_per_axis=400)

# sweeps whose CSV must be csv.writer's bytes: exact-zero and exponent-form
# deltas (the standard box), descending and repeated chi with unsorted
# market sizes, a nonzero drift, explicit n values and the grid method
CSV_SWEEPS = {
    "standard-box": lambda: regime_sweep(SCENARIO, [10, 20], default_chi_grid(points=30)),
    "descending-repeated-chi": lambda: regime_sweep(SCENARIO, [12, 3, 7], [5.1, 0.2, 0.2, 0.003]),
    "drift": lambda: regime_sweep(LeverageScenario(0.25, 0.5), [7], [0.3, 1.6], mu=0.05),
    "explicit-n": lambda: regime_sweep(SCENARIO, [20, 10], [0.1, 1.6, 8.9], n_values=[9, 2, 5]),
    "grid": lambda: regime_sweep(SCENARIO, [6], [0.01, 0.5, 3.0], method="grid", grid_spec=SMALL_GRID),
}

leverages = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)
chis = st.floats(min_value=0.05, max_value=9.0, allow_nan=False)


class TestLeverageScenario:
    def test_delta_f(self):
        assert SCENARIO.delta_f == pytest.approx(0.15)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            LeverageScenario(0.5, 0.25)
        with pytest.raises(DomainError):
            LeverageScenario(0.25, 0.25)

    def test_domain(self):
        with pytest.raises(DomainError):
            LeverageScenario(0.0, 0.5)
        with pytest.raises(DomainError):
            LeverageScenario(0.5, 1.0)


class TestSystemicPd:
    def test_full_overlap_equals_marginal_exactly(self):
        s = BankStrategy(0.25, 10)
        assert systemic_pd(s, M10, method="oracle") == individual_pd(s, M10)
        assert systemic_pd(s, M10, method="grid") == individual_pd(s, M10)

    def test_bracketed_by_marginal(self):
        s = BankStrategy(0.25, 5)
        joint = systemic_pd(s, M10)
        assert 0.0 < joint <= individual_pd(s, M10)

    def test_near_zero_correlation_factorizes(self):
        market = MarketParams.from_chi(10**6, 1.6)
        s = BankStrategy(0.25, 1)
        assert systemic_pd(s, market) == pytest.approx(
            phi1(z_score(s, market)) ** 2, abs=1e-6
        )

    def test_grid_and_oracle_agree(self):
        s = BankStrategy(0.25, 5)
        assert systemic_pd(s, M10, method="grid", grid_spec=SMALL_GRID) == pytest.approx(
            systemic_pd(s, M10, method="oracle"), abs=1e-3
        )

    @given(leverages, st.integers(1, 10), chis)
    @settings(max_examples=50)
    def test_joint_never_exceeds_marginal(self, f, n, chi):
        market = MarketParams.from_chi(10, chi)
        s = BankStrategy(f, n)
        assert systemic_pd(s, market) <= individual_pd(s, market) + 1e-12


class TestDeltaPhi2:
    def test_known_value_from_independent_oracle(self):
        # mpmath reference for n=3, N=10, chi=1.6, scenario {0.1, 0.25}
        assert delta_phi2(SCENARIO, 3, M10) == pytest.approx(0.06286104646, abs=1e-9)

    def test_risky_below_reference_threshold(self):
        # n = 2 is risky at any epsilon below ~0.107
        assert delta_phi2(SCENARIO, 2, M10) > 1e-6

    @given(
        st.tuples(leverages, leverages).map(sorted),
        st.integers(1, 10),
        chis,
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, fs, n, chi):
        lo, hi = fs
        if hi <= lo:
            return
        market = MarketParams.from_chi(10, chi)
        assert delta_phi2(LeverageScenario(lo, hi), n, market) >= -1e-9


class TestCriticalDiversification:
    def test_vanishing_chi_gives_one(self):
        market = MarketParams.from_chi(10, 0.001)
        assert critical_diversification(SCENARIO, market) == 1

    def test_no_safe_level_is_none(self):
        market = MarketParams.from_chi(10, 9.0)
        assert critical_diversification(LeverageScenario(0.25, 0.5), market) is None

    def test_suffix_safety_and_minimality(self):
        market = MarketParams.from_chi(40, 1.6)
        n_star = critical_diversification(SCENARIO, market)
        assert n_star is not None
        for n in range(n_star, 41):
            assert delta_phi2(SCENARIO, n, market) <= 1e-6
        if n_star > 1:
            assert delta_phi2(SCENARIO, n_star - 1, market) > 1e-6

    def test_epsilon_is_configurable(self):
        # at a loose threshold the whole suffix becomes safe down to n = 1
        assert critical_diversification(SCENARIO, M10, epsilon_safe=0.5) == 1

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_non_finite_or_negative_epsilon_rejected(self, eps):
        # every reduction to critical levels checks the threshold
        with pytest.raises(DomainError, match="epsilon_safe"):
            critical_diversification(SCENARIO, M10, epsilon_safe=eps)
        with pytest.raises(DomainError, match="epsilon_safe"):
            regime_sweep(SCENARIO, [4], [1.6], epsilon_safe=eps)
        with pytest.raises(DomainError, match="epsilon_safe"):
            critical_table([SCENARIO], [4], [1.6], epsilon_safe=eps)
        with pytest.raises(DomainError, match="epsilon_safe"):
            mu_sensitivity(SCENARIO, M10, [0.0], epsilon_safe=eps)

    def test_zero_epsilon_is_valid(self):
        # zero demands delta_phi2 <= 0: met where both default probabilities
        # underflow to 0, never at chi = 1.6
        assert critical_diversification(SCENARIO, MarketParams.from_chi(10, 0.001), epsilon_safe=0.0) == 1
        assert critical_diversification(SCENARIO, M10, epsilon_safe=0.0) is None

    def test_effective_encoding(self):
        assert effective_critical(None, 40) == 41
        assert effective_critical(7, 40) == 7


class TestRegimeSweep:
    def test_cell_count_and_order(self):
        # unsorted market sizes and descending chi come out sorted too
        for sizes, chis_ in (([4, 6], [0.1, 1.0]), ([6, 4], [1.0, 0.1])):
            result = regime_sweep(SCENARIO, sizes, chis_)
            keys = list(zip(result.market_size.tolist(), result.chi.tolist(), result.n.tolist()))
            assert len(keys) == (4 + 6) * len(chis_)
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_single_cell_consistent_with_delta(self):
        result = regime_sweep(SCENARIO, [10], [1.6], n_values=[3])
        assert result.delta_phi2.tolist() == [delta_phi2(SCENARIO, 3, M10)]
        assert result.risky.tolist() == [True]

    def test_critical_consistent_with_cells(self):
        result = regime_sweep(SCENARIO, [10], [0.05, 0.4, 1.6])
        for (size, chi), n_star in result.critical_n.items():
            at = (result.market_size == size) & (result.chi == chi)
            n, risky = result.n[at], result.risky[at]
            if n_star is None:
                assert risky[-1]
            else:
                assert not risky[n >= n_star].any()
                if n_star > 1:
                    assert risky[n == n_star - 1].any()

    def test_deterministic(self):
        a = regime_sweep(SCENARIO, [5, 8], [0.2, 2.0])
        b = regime_sweep(SCENARIO, [5, 8], [0.2, 2.0])
        for column in ("market_size", "n", "chi", "delta_phi2"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert a.critical_n == b.critical_n
        assert a.to_csv() == b.to_csv()

    def test_grid_sweep_repeats_byte_identical(self):
        # every grid sweep tabulates afresh: no state carries between them
        def sweep():
            return regime_sweep(SCENARIO, [5, 8], [0.2, 2.0], method="grid", grid_spec=SMALL_GRID)

        assert sweep().to_csv().encode() == sweep().to_csv().encode()

    def test_columns_read_only(self):
        result = regime_sweep(SCENARIO, [4], [0.5])
        with pytest.raises(ValueError):
            result.delta_phi2[0] = 1.0

    def test_invalid_cells_located(self):
        with pytest.raises(DomainError, match=r"N=4, n=7"):
            regime_sweep(SCENARIO, [4], [0.5], n_values=[7])

    def test_csv_schema(self):
        result = regime_sweep(SCENARIO, [4], [0.5, 1.5])
        rows = list(csv.reader(io.StringIO(result.to_csv())))
        assert rows[0] == ["N", "n", "chi", "delta_phi2", "regime"]
        assert len(rows) == 1 + 8
        for row in rows[1:]:
            assert row[0] == "4"
            assert row[4] in ("safe", "risky")
            float(row[2]), float(row[3])  # parse cleanly

    @pytest.mark.parametrize("name", sorted(CSV_SWEEPS))
    def test_csv_is_csv_writer_bytes(self, name):
        result = CSV_SWEEPS[name]()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["N", "n", "chi", "delta_phi2", "regime"])
        for size, n, chi, d, risky in zip(
            result.market_size.tolist(), result.n.tolist(), result.chi.tolist(),
            result.delta_phi2.tolist(), result.risky.tolist(),
        ):
            writer.writerow([size, n, repr(chi), repr(d), "risky" if risky else "safe"])
        assert result.to_csv() == buf.getvalue()
        if name == "standard-box":
            deltas = result.delta_phi2
            assert (deltas == 0.0).any()
            assert any("e-" in repr(d) for d in deltas[(deltas > 0.0) & (deltas < 1e-4)].tolist())

    def test_json_round_trip(self):
        result = regime_sweep(SCENARIO, [4], [0.5])
        doc = json.loads(result.to_json())
        assert doc["scenario"] == {"f_normal": 0.1, "f_abnormal": 0.25}
        assert "4" in doc["markets"]
        assert len(doc["markets"]["4"]["cells"]) == 4

    def test_risky_fraction(self):
        result = regime_sweep(SCENARIO, [10], [0.001])
        assert result.risky_fraction(10) == 0.0

    def test_cell_rejects_materially_negative_delta(self, monkeypatch):
        import levdiv.analysis

        real = levdiv.analysis.binorm_cdf
        shift = 0.0

        def shifted(*args, **kwargs):
            pd = real(*args, **kwargs)
            pd[-1] -= shift  # levels ascend, so the last is f_abnormal's
            return pd

        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", shifted)
        shift = 1e-3
        with pytest.raises(DomainError, match=r"N=10, n=3, chi=0\.001\)"):
            regime_sweep(SCENARIO, [10], [0.001], n_values=[3])
        shift = 1e-9
        assert regime_sweep(SCENARIO, [10], [0.001], n_values=[3]).delta_phi2[0] >= -1e-6

    def test_grid_method_supported(self):
        result = regime_sweep(
            SCENARIO, [4], [0.5], method="grid", grid_spec=SMALL_GRID
        )
        oracle = regime_sweep(SCENARIO, [4], [0.5])
        assert result.n.tolist() == oracle.n.tolist()
        np.testing.assert_allclose(result.delta_phi2, oracle.delta_phi2, rtol=0, atol=2e-3)


class TestCriticalReductions:
    """Critical levels from the scalar, sweep and table entry points agree."""

    @pytest.mark.parametrize("scenario", [SCENARIO, LeverageScenario(0.25, 0.5)])
    def test_scalar_matches_sweep_on_standard_box(self, scenario):
        sizes = [10, 20, 30, 40]
        result = regime_sweep(scenario, sizes, default_chi_grid())
        scalar = {
            (size, chi): critical_diversification(scenario, MarketParams.from_chi(size, chi))
            for size, chi in result.critical_n
        }
        assert scalar == result.critical_n
        assert critical_table([scenario], sizes, default_chi_grid()) == [result.critical_n]

    def test_table_batches_scenarios(self):
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        chis_ = [0.4, 1.6, 5.1]
        tables = critical_table(scenarios, [10, 20], chis_, epsilon_safe=1e-3)
        assert tables == [critical_table([s], [10, 20], chis_, epsilon_safe=1e-3)[0] for s in scenarios]

    def test_empty_n_values_give_no_level(self):
        result = regime_sweep(SCENARIO, [10], [1.6], n_values=[])
        assert result.n.size == result.delta_phi2.size == 0
        assert result.critical_n == {(10, 1.6): None}


class TestMuSensitivity:
    def test_zero_drift_matches_baseline(self):
        market = MarketParams.from_chi(10, 0.4)
        scan = mu_sensitivity(SCENARIO, market, [0.0])
        assert scan[0.0] == critical_diversification(SCENARIO, market)

    def test_direction_of_drift_effect(self):
        # chosen so the critical level is interior at mu = 0
        market = MarketParams.from_chi(10, 0.4)
        scan = mu_sensitivity(SCENARIO, market, [-0.2, 0.0, 0.2])
        enc = {mu: effective_critical(v, 10) for mu, v in scan.items()}
        assert enc[-0.2] >= enc[0.0] >= enc[0.2]

    def test_drift_does_not_mutate_market(self):
        market = MarketParams.from_chi(10, 0.4)
        mu_sensitivity(SCENARIO, market, [-0.1, 0.1])
        assert market.drift == 0.0


def test_default_chi_grid_covers_box():
    grid = default_chi_grid()
    assert len(grid) == 100
    assert grid[0] == pytest.approx(0.001)
    assert grid[-1] == pytest.approx(9.0)
    assert np.all(np.diff(grid) > 0)


M4 = MarketParams.from_chi(4, 1.6)
PAIR = (BankStrategy(0.25, 2), BankStrategy(0.25, 2))


# True == 1 and is an int, so each of these was once taken as a count of 1
@pytest.mark.parametrize(
    "build",
    [
        lambda: MarketParams(True, 1.0),
        lambda: BankStrategy(0.25, True),
        lambda: asset_correlation(True, M10),
        lambda: SimConfig(M4, PAIR, paths=True),
        lambda: SimConfig(M4, PAIR, steps_per_horizon=True),
        lambda: SimConfig(M4, PAIR, seed=True),
        lambda: SimConfig(M4, PAIR, overlap=FixedOverlap(True)),
        lambda: delta_phi2(SCENARIO, True, M10),
        lambda: regime_sweep(SCENARIO, [True], [1.6]),
        lambda: default_chi_grid(points=True),
    ],
    ids=[
        "market-size", "diversification", "asset-correlation", "paths", "steps", "seed",
        "shared", "delta-n", "sweep-market-size", "chi-points",
    ],
)
def test_bool_counts_rejected(build):
    with pytest.raises((ConfigError, DomainError), match="True"):
        build()
