"""Tests for the systemic-risk analysis layer."""

import csv
import io
import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critical_order import effective_critical
from critical_reference import full_box_critical, limit_critical
from delta_reference import reference_delta

from levdiv import (
    BankStrategy,
    DomainError,
    EPSILON_SAFE,
    FixedOverlap,
    LeverageScenario,
    MarketParams,
    SimConfig,
    asset_correlation,
    binorm_cdf,
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
from levdiv.cli import compute_table1
from levdiv.merton import correlation_law, z_cells

M10 = MarketParams.from_chi(10, 1.6)
SCENARIO = LeverageScenario(0.10, 0.25)

# sweeps whose CSV must be csv.writer's bytes: exact-zero and exponent-form
# deltas (the standard box), descending and repeated chi with unsorted
# market sizes, a nonzero drift, duplicated market sizes and the grid method
CSV_SWEEPS = {
    "standard-box": lambda: regime_sweep(SCENARIO, [10, 20], default_chi_grid(points=30)),
    "descending-repeated-chi": lambda: regime_sweep(SCENARIO, [12, 3, 7], [5.1, 0.2, 0.2, 0.003]),
    "drift": lambda: regime_sweep(LeverageScenario(0.25, 0.5), [7], [0.3, 1.6], mu=0.05),
    "duplicated-sizes": lambda: regime_sweep(SCENARIO, [20, 10, 10], [0.1, 1.6, 8.9]),
    "grid": lambda: regime_sweep(SCENARIO, [6], [0.01, 0.5, 3.0], method="grid"),
}

# sweeps whose JSON must be json.dumps(doc, indent=2) of the nested
# document: the CSV sweeps plus the whole standard box (N in 10, 20, 30, 40
# at 100 chi), which has exact-zero and exponent-form deltas and None
# critical levels
JSON_SWEEPS = {
    **CSV_SWEEPS,
    "full-standard-box": lambda: regime_sweep(SCENARIO, [10, 20, 30, 40], default_chi_grid()),
}

# the scan's test box: at N = 1 the one cell is n = N, where delta has a
# closed form; the chi reach n* = None, 1 and interior levels
SCAN_SIZES = [1, 2, 3, 17, 40]
SCAN_CHIS = [0.001, 0.05, 0.4, 1.6, 5.1, 8.9]
SCAN_DRIFTS = [-0.2, 0.0, 0.2]

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
        # BankStrategy's rule: within 1e-12 of either end is out
        for f in (1e-13, 1.0 - 1e-13):
            with pytest.raises(DomainError, match="^f_normal must lie in"):
                LeverageScenario(f, 0.5)
            with pytest.raises(DomainError, match="^f_abnormal must lie in"):
                LeverageScenario(0.5, f)


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
        assert systemic_pd(s, M10, method="grid") == pytest.approx(
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


    @pytest.mark.parametrize("scenario", [SCENARIO, LeverageScenario(0.25, 0.5)])
    def test_standard_box_against_integral_reference(self, scenario):
        sizes, chis_ = [10, 20, 30, 40], default_chi_grid()
        oracle = regime_sweep(scenario, sizes, chis_)
        ref = reference_delta(scenario.f_normal, scenario.f_abnormal, oracle.n, oracle.market_size, oracle.chi)
        assert np.abs(oracle.delta_phi2 - ref).max() <= 1e-15
        assert np.array_equal(oracle.risky, ref > EPSILON_SAFE)
        grid = regime_sweep(scenario, sizes, chis_, method="grid")  # the same cells in the same order
        assert np.abs(grid.delta_phi2 - ref).max() <= 1e-5

    @pytest.mark.parametrize("scenario", [SCENARIO, LeverageScenario(0.25, 0.5)])
    def test_sweep_rows_are_evaluated_at_their_printed_chi(self, scenario):
        # each row's delta, rebuilt from the chi it prints with the library's
        # own z and Phi2 operations, must match bit for bit; sqrt(2 chi)^2 / 2
        # is a neighbouring double for some grid values, and a row must not
        # be evaluated there
        chis_ = default_chi_grid()
        assert any(0.5 * math.sqrt(2.0 * chi) ** 2 != chi for chi in chis_.tolist())
        result = regime_sweep(scenario, [10, 40], chis_)
        f = np.array([[scenario.f_normal], [scenario.f_abnormal]])
        z = z_cells(f, result.n, result.chi, 0.0)
        pd = binorm_cdf(z, correlation_law(result.n, result.market_size)[0], "oracle")
        assert np.array_equal(result.delta_phi2, pd[1] - pd[0])


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

    # bad market sizes come first, then an empty chi or mu axis, then chi <= 0
    # (as from --sigma 0), then a NaN or negative epsilon_safe; each entry
    # point raises the first one
    @pytest.mark.parametrize(
        "sizes, chi, eps, error, message",
        [
            ([0], [1.6], 1e-6, DomainError, "market sizes must be integers >= 1, got 0"),
            ([True], [1.6], 1e-6, DomainError, "market sizes must be integers >= 1, got True"),
            ([2.5], [1.6], 1e-6, DomainError, "market sizes must be integers >= 1, got 2.5"),
            ([], [1.6], 1e-6, DomainError, "market_sizes must be non-empty"),
            ([4], [0.0], 1e-6, DomainError, "an analytic cell needs chi > 0 (sigma > 0 and T > 0), got chi=0.0"),
            ([4], [1.6], float("nan"), DomainError, "epsilon_safe must be finite and >= 0, got nan"),
            ([4], [1.6], -1.0, DomainError, "epsilon_safe must be finite and >= 0, got -1.0"),
            ([4, 0], [0.0], float("nan"), DomainError, "market sizes must be integers >= 1, got 0"),
            ([], [0.0], -1.0, DomainError, "market_sizes must be non-empty"),
            ([4], [0.0], float("nan"), DomainError, "an analytic cell needs chi > 0 (sigma > 0 and T > 0), got chi=0.0"),
            ([4], [], float("nan"), DomainError, "a box needs at least one market (chi/mu value)"),
            ([0], [], float("nan"), DomainError, "market sizes must be integers >= 1, got 0"),
        ],
        ids=[
            "size-0", "size-true", "size-float", "no-sizes", "chi-0", "eps-nan", "eps-negative",
            "size-before-chi-and-eps", "no-sizes-before-chi-and-eps", "chi-before-eps",
            "no-markets-before-eps", "size-before-no-markets",
        ],
    )
    def test_bad_inputs_rejected_in_order(self, sizes, chi, eps, error, message):
        calls = [
            lambda: critical_table([SCENARIO], sizes, chi, epsilon_safe=eps),
            lambda: critical_table([SCENARIO], sizes, chi, "grid", eps),
            lambda: regime_sweep(SCENARIO, sizes, chi, epsilon_safe=eps),
        ]
        if sizes == [4]:  # a market's own size is always valid
            # with no chi, the drift scan gets an empty mu axis instead
            market = MarketParams(4, chi[0] if chi else 1.6)
            calls.append(lambda: mu_sensitivity(SCENARIO, market, [-0.2, 0.0] if chi else [], epsilon_safe=eps))
            if chi:  # a single market always has its chi
                calls.append(lambda: critical_diversification(SCENARIO, market, "grid", eps))
        for call in calls:
            with pytest.raises(error, match="^" + re.escape(message) + "$") as info:
                call()
            assert info.type is error

    @pytest.mark.parametrize(
        "chi, mu", [(math.inf, 0.0), (math.nan, 0.0), (1.6, math.nan), (1.6, -math.inf)],
        ids=["chi-inf", "chi-nan", "mu-nan", "mu-inf"],
    )
    def test_non_finite_chi_or_drift_rejected(self, chi, mu):
        # raw chi and mu reach the analysis with no MarketParams to check them
        message = f"^chi and mu must be finite, got {(chi if mu == 0.0 else mu)!r}$"
        with pytest.raises(DomainError, match=message):
            regime_sweep(SCENARIO, [4], [chi], mu=mu)
        with pytest.raises(DomainError, match=message):
            if mu == 0.0:
                critical_table([SCENARIO], [4], [chi])
            else:
                mu_sensitivity(SCENARIO, MarketParams.from_chi(4, chi), [0.0, mu])

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
        result = regime_sweep(SCENARIO, [10], [1.6])
        at = result.n == 3
        assert result.delta_phi2[at].tolist() == [delta_phi2(SCENARIO, 3, M10)]
        assert result.risky[at].tolist() == [True]

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
            return regime_sweep(SCENARIO, [5, 8], [0.2, 2.0], method="grid")

        assert sweep().to_csv().encode() == sweep().to_csv().encode()

    def test_columns_read_only(self):
        result = regime_sweep(SCENARIO, [4], [0.5])
        with pytest.raises(ValueError):
            result.delta_phi2[0] = 1.0

    def test_invalid_cells_located(self):
        with pytest.raises(DomainError, match=r"N=4, n=7"):
            delta_phi2(SCENARIO, 7, MarketParams.from_chi(4, 0.5))

    @pytest.mark.parametrize("sizes", [np.array([10, 20]), np.array([10])], ids=["two", "one"])
    def test_array_of_market_sizes_rejected(self, sizes):
        # numpy integers are not the package's integer counts, and an array
        # must not reach a truth-value test
        message = r"^market sizes must be integers >= 1, got np\.int64\(10\)$"
        with pytest.raises(DomainError, match=message):
            regime_sweep(SCENARIO, sizes, [1.6])
        with pytest.raises(DomainError, match=message):
            critical_table([SCENARIO], sizes, [1.6])

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

    @pytest.mark.parametrize("name", sorted(JSON_SWEEPS))
    def test_json_is_json_dumps_bytes(self, name):
        result = JSON_SWEEPS[name]()
        cells = {size: [] for size in result.market_sizes()}
        for size, n, chi, d, risky in zip(
            result.market_size.tolist(), result.n.tolist(), result.chi.tolist(),
            result.delta_phi2.tolist(), result.risky.tolist(),
        ):
            cells[size].append({"n": n, "chi": chi, "delta_phi2": d, "regime": "risky" if risky else "safe"})
        doc = {
            "scenario": {"f_normal": result.scenario.f_normal, "f_abnormal": result.scenario.f_abnormal},
            "mu": result.mu,
            "epsilon_safe": result.epsilon_safe,
            "markets": {
                str(size): {
                    "cells": rows,
                    "critical_n_by_chi": {
                        repr(chi): level for (n_, chi), level in sorted(result.critical_n.items()) if n_ == size
                    },
                }
                for size, rows in cells.items()
            },
        }
        assert result.to_json() == json.dumps(doc, indent=2)
        if name == "full-standard-box":
            deltas = result.delta_phi2
            assert (deltas == 0.0).any()
            assert any("e-" in repr(d) for d in deltas[(deltas > 0.0) & (deltas < 1e-4)].tolist())
            assert None in result.critical_n.values()

    def test_json_round_trip(self):
        result = regime_sweep(SCENARIO, [4], [0.5])
        doc = json.loads(result.to_json())
        assert doc["scenario"] == {"f_normal": 0.1, "f_abnormal": 0.25}
        assert "4" in doc["markets"]
        assert len(doc["markets"]["4"]["cells"]) == 4

    def test_risky_fraction(self):
        result = regime_sweep(SCENARIO, [10], [0.001])
        assert result.risky_fraction(10) == 0.0

    # each entry point's first evaluated cell: n = 1 of a sweep's first
    # column, the first of the cells 2 <= n <= 3 that a scan's bracket leaves
    # open at (N = 10, chi = 0.125, eps = 1e-6), the one cell of delta_phi2
    @pytest.mark.parametrize(
        "evaluate, cell",
        [
            (lambda: regime_sweep(SCENARIO, [10], [0.001]), "N=10, n=1, chi=0.001"),
            (lambda: critical_table([SCENARIO], [10], [0.125]), "N=10, n=2, chi=0.125"),
            (lambda: mu_sensitivity(SCENARIO, MarketParams.from_chi(10, 0.125), [0.0]), "N=10, n=2, chi=0.125"),
            (lambda: critical_diversification(SCENARIO, MarketParams.from_chi(10, 0.125)), "N=10, n=2, chi=0.125"),
            (lambda: delta_phi2(SCENARIO, 3, MarketParams.from_chi(10, 0.001)), "N=10, n=3, chi=0.001"),
        ],
        ids=["regime_sweep", "critical_table", "mu_sensitivity", "critical_diversification", "delta_phi2"],
    )
    def test_cell_rejects_materially_negative_delta(self, monkeypatch, evaluate, cell):
        import levdiv.analysis

        real = levdiv.analysis.binorm_cdf
        shift = 0.0

        def shifted(*args, **kwargs):
            pd = real(*args, **kwargs)
            pd[-1] -= shift  # levels ascend, so the last is f_abnormal's
            return pd

        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", shifted)
        shift = 1e-3
        # every cell goes negative; the first evaluated is named
        with pytest.raises(DomainError, match=rf"slack at \({re.escape(cell)}\)$"):
            evaluate()
        # the slack is the rounding level of a Phi2 difference, far below 1e-9
        shift = 1e-9
        with pytest.raises(DomainError, match="negative beyond numerical slack"):
            evaluate()
        shift = levdiv.analysis._DELTA_SLACK / 2
        evaluate()

    @pytest.mark.parametrize("method", ["oracle", "grid"], ids=["oracle", "grid"])
    def test_batches_do_not_change_bytes(self, monkeypatch, method):
        import levdiv.analysis

        def sweep():
            return regime_sweep(SCENARIO, [20, 10, 10], [5.1, 0.2, 0.2, 0.003], method=method)

        whole = sweep()
        real_phi2, calls = levdiv.analysis.binorm_cdf, []

        def phi2(*args, **kwargs):
            calls.append(args[1])
            return real_phi2(*args, **kwargs)

        monkeypatch.setattr(levdiv.analysis, "_SCAN_BUDGET", 3)
        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", phi2)
        batched = sweep()
        # one batch per column: 4 chi at each of the three sizes
        assert [np.size(rho) for rho in calls] == [20] * 4 + [10] * 8
        assert batched.to_csv() == whole.to_csv()
        assert batched.to_json() == whole.to_json()

    def test_grid_method_supported(self):
        result = regime_sweep(SCENARIO, [4], [0.5], method="grid")
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

    # at eps = 0.05 the N = 1 column at chi = 8.9 is safe, and larger n are risky
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2, 0.05, 0.2, 1.0])
    @pytest.mark.parametrize("method", ["oracle", "grid"], ids=["oracle", "grid"])
    def test_scan_matches_full_box(self, method, eps):
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        tables = critical_table(scenarios, SCAN_SIZES, SCAN_CHIS, method, eps)
        for scenario, table in zip(scenarios, tables):
            full = {
                (size, chi): full_box_critical(scenario, size, chi, 0.0, method, eps)
                for size in SCAN_SIZES
                for chi in SCAN_CHIS
            }
            assert table == full
            assert list(table) == list(full)
            sweep = regime_sweep(scenario, SCAN_SIZES, SCAN_CHIS, method=method, epsilon_safe=eps)
            assert table == sweep.critical_n
        for size in SCAN_SIZES:
            market = MarketParams.from_chi(size, 0.4)
            scan = mu_sensitivity(SCENARIO, market, SCAN_DRIFTS, method, eps)
            assert scan == {
                mu: full_box_critical(SCENARIO, size, market.chi, mu * market.horizon, method, eps)
                for mu in SCAN_DRIFTS
            }

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 0.2])
    @pytest.mark.parametrize("method", ["oracle", "grid"], ids=["oracle", "grid"])
    def test_sweep_matches_full_box_on_unsorted_repeated_axes(self, method, eps):
        # unsorted and duplicated sizes, descending and repeated chi: the
        # sweep's cell layout must not move any column's n*
        sizes, chis_ = [17, 3, 3, 1], [5.1, 1.6, 1.6, 0.4, 0.05, 0.001]
        sweep = regime_sweep(SCENARIO, sizes, chis_, method=method, epsilon_safe=eps)
        full = {
            (size, chi): full_box_critical(SCENARIO, size, chi, 0.0, method, eps)
            for size in sizes
            for chi in chis_
        }
        assert sweep.critical_n == full
        assert list(sweep.critical_n) == list(full)

    def test_scan_cases_reach_none_one_and_interior_levels(self):
        levels = {
            n_star
            for eps in (0.0, 1e-6, 1e-2, 0.2, 1.0)
            for table in critical_table([SCENARIO, LeverageScenario(0.25, 0.5)], SCAN_SIZES, SCAN_CHIS, epsilon_safe=eps)
            for n_star in table.values()
        }
        assert None in levels and 1 in levels
        assert any(n_star is not None and n_star > 1 for n_star in levels)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6])
    def test_finite_levels_do_not_rise_with_market_size(self, eps):
        # z does not depend on N, which enters only through rho = n/N, and
        # delta at fixed n falls as rho does where z_n < z_a <= 0, toward its
        # rho -> 0 limit: so a cell risky in that limit is risky at every N
        rng = np.random.default_rng(20261019)
        chis_ = np.exp(rng.uniform(math.log(1e-3), math.log(9.0), size=12)).tolist()
        sizes = range(2, 81)
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        steps, bounded = [], 0
        for scenario, table in zip(scenarios, critical_table(scenarios, sizes, chis_, epsilon_safe=eps)):
            for chi in chis_:
                row = [table[(size, chi)] for size in sizes if table[(size, chi)] is not None]
                steps += np.diff(row).tolist()
                if chi <= math.log(1.0 / scenario.f_abnormal):  # z_a <= 0 at every n
                    for size in sizes:
                        # the limit over n <= N is at most N + 1, "none" encoded
                        limit = limit_critical(scenario, chi, size, eps)
                        assert effective_critical(table[(size, chi)], size) >= limit
                        bounded += 1
        assert max(steps) <= 0
        assert min(steps) < 0
        assert bounded == 1422

    @pytest.mark.parametrize(
        "scenario, chi, eps, sizes, levels, limit",
        [
            (SCENARIO, 1.6, 1e-2, [20, 40, 80, 160, 320, 640], [7, 6, 6, 5, 5, 5], 5),
            (LeverageScenario(0.25, 0.5), 8.9, 1e-3, [640], [206], 153),
        ],
        ids=["reaches-limit", "above-limit"],
    )
    def test_large_markets_approach_the_limit(self, scenario, chi, eps, sizes, levels, limit):
        (table,) = critical_table([scenario], sizes, [chi], epsilon_safe=eps)
        assert [table[(size, chi)] for size in sizes] == levels
        assert limit_critical(scenario, chi, sizes[-1], eps) == limit

    def test_table_batches_scenarios(self):
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        chis_ = [0.4, 1.6, 5.1]
        tables = critical_table(scenarios, [10, 20], chis_, epsilon_safe=1e-3)
        assert tables == [critical_table([s], [10, 20], chis_, epsilon_safe=1e-3)[0] for s in scenarios]


class TestRouteAgreement:
    """The grid route, about 1e-5 from the oracle on the published boxes,
    reaches the oracle's published decisions there."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 1e-2])
    def test_table1_grid_is_table1_oracle(self, eps):
        assert compute_table1("grid", eps) == compute_table1("oracle", eps)

    # both scenarios of the regime maps: 10,000 labels each
    @pytest.mark.parametrize("scenario", [SCENARIO, LeverageScenario(0.25, 0.50)], ids=["0.10-0.25", "0.25-0.50"])
    def test_standard_box_grid_sweep_has_oracle_labels(self, scenario):
        sizes, chis_ = [10, 20, 30, 40], default_chi_grid()
        grid = regime_sweep(scenario, sizes, chis_, method="grid", epsilon_safe=1e-6)
        oracle = regime_sweep(scenario, sizes, chis_, epsilon_safe=1e-6)
        assert np.array_equal(grid.risky, oracle.risky)
        assert grid.critical_n == oracle.critical_n


class TestScanWork:
    """The critical-level scan evaluates only what n* depends on."""

    def test_table1_grid_tabulates_each_correlation_at_most_once(self, monkeypatch):
        import levdiv.analysis
        import levdiv.gaussian

        real_tabulate, real_phi2 = levdiv.gaussian.tabulate_cdf_grid, levdiv.analysis.binorm_cdf
        rhos, calls = [], []

        def tabulate(rho, *args, **kwargs):
            rhos.append(rho)
            return real_tabulate(rho, *args, **kwargs)

        def phi2(*args, **kwargs):
            calls.append(args[1])
            return real_phi2(*args, **kwargs)

        monkeypatch.setattr(levdiv.gaussian, "tabulate_cdf_grid", tabulate)
        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", phi2)
        compute_table1("grid", 0.01)
        assert len(set(rhos)) == len(rhos) <= 36  # the full box tabulates 59
        # n = N has a closed form, so rho = 1 never reaches Phi2
        assert 1.0 not in rhos
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["oracle", "grid"])
    def test_no_columns_start_no_round(self, monkeypatch, method):
        import levdiv.analysis

        def phi2(*args, **kwargs):
            raise AssertionError("a round was started")

        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", phi2)
        # a box with no columns is rejected before any round: no scenario
        # (first, before the market sizes), or no chi or mu value
        with pytest.raises(DomainError, match="^scenarios must be non-empty$"):
            critical_table([], [0], [0.4, 1.6], method)
        no_markets = "^" + re.escape("a box needs at least one market (chi/mu value)") + "$"
        with pytest.raises(DomainError, match=no_markets):
            critical_table([SCENARIO, LeverageScenario(0.25, 0.5)], [10, 40], [], method)
        with pytest.raises(DomainError, match=no_markets):
            mu_sensitivity(SCENARIO, M10, [], method)

    def test_unknown_method_rejected_when_no_cell_is_open(self):
        # the bracket decides chi = 0.001 without Phi2, which would otherwise
        # have been the only place the method was checked
        with pytest.raises(DomainError, match="unknown method 'quad'"):
            critical_table([SCENARIO], [10], [0.001], "quad")


class TestBox:
    """A box tabulates z once per (scenario, market, n), for every N."""

    def test_z_table_is_z_score_at_every_cell(self):
        from levdiv.analysis import _box

        rng = np.random.default_rng(20261022)
        scenarios = [LeverageScenario(*sorted(rng.uniform(0.02, 0.98, size=2))) for _ in range(3)]
        chis_ = np.exp(rng.uniform(math.log(1e-3), math.log(9.0), size=4)).tolist()
        drifts = rng.uniform(-0.5, 0.5, size=4).tolist()
        sizes = [9, 1, 4, 4]
        cols, chi, z = _box(scenarios, sizes, chis_, drifts, 1e-6)
        assert chi.tolist() == chis_ and z.shape == (2, 3, 4, 9)
        assert list(zip(*cols.tolist())) == list(itertools.product(range(3), sizes, range(4)))
        for s, scenario in enumerate(scenarios):
            for level, f in enumerate((scenario.f_normal, scenario.f_abnormal)):
                for m, (chi_, mu) in enumerate(zip(chis_, drifts)):
                    for size in sizes:
                        for n in range(1, size + 1):
                            want = z_score(BankStrategy(f, n), MarketParams(size, chi_, drift=mu))
                            got = z[level, s, m, n - 1]
                            assert np.array(got).view(np.int64) == np.array(want).view(np.int64)

    def test_single_cell_does_not_tabulate_up_to_the_market_size(self):
        # a delta_phi2 cell reads z at its own n only; a table up to N = 1e8
        # would take 1.6 GB
        delta_phi2(SCENARIO, 5, MarketParams(10, 1.6))  # imports and caches outside the trace
        tracemalloc.start()
        try:
            delta_phi2(SCENARIO, 5, MarketParams(10**8, 1.6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBracket:
    """Phi1-only bounds on delta, and the bracket lo <= n* <= hi they give."""

    def test_bounds_hold_against_integral_reference(self):
        from levdiv.analysis import _box, _bounds

        rng = np.random.default_rng(20261020)
        scenarios = [LeverageScenario(*sorted(rng.uniform(0.02, 0.98, size=2))) for _ in range(8)]
        chis_ = np.exp(rng.uniform(math.log(1e-3), math.log(9.0), size=6))
        drifts = rng.uniform(-0.5, 0.5, size=6)
        top = 500
        low, high, full = _bounds(_box(scenarios, [top], chis_.tolist(), drifts.tolist(), 0.0)[2])
        f = np.array([[sc.f_normal, sc.f_abnormal] for sc in scenarios])[:, None, None, :]
        n = np.arange(1, top + 1)
        z_a = z_cells(f[..., 1], n, chis_[:, None], drifts[:, None])
        z_n = z_cells(f[..., 0], n, chis_[:, None], drifts[:, None])
        # z on both sides of 0: below, straddling and above
        assert (z_a < 0).any() and ((z_n < 0) & (z_a > 0)).any() and (z_n > 0).any()
        # any market size N >= n: rho = 1, n/500 and a random one between; the
        # reference sums up to 80 pieces, good to about 3e-15 where delta ~ 1
        for size in (n, top, rng.integers(n, top + 1, size=(len(scenarios), len(chis_), top))):
            ref = reference_delta(f[..., 0], f[..., 1], n, size, chis_[:, None], drifts[:, None])
            assert (low - ref).max() <= 5e-15
            assert (ref - high).max() <= 5e-15
            if size is n:
                assert np.abs(full - ref).max() <= 5e-15

    @pytest.mark.parametrize("method", ["oracle", "grid"])
    def test_full_overlap_cell_is_the_phi2_closed_form(self, method):
        # a scan closes a column risky at n = N from _bounds, so its delta
        # there must carry the bits of the Phi2 route it replaces
        from levdiv.analysis import _box, _bounds

        rng = np.random.default_rng(20261021)
        for _ in range(20):
            scenario = LeverageScenario(*sorted(rng.uniform(0.02, 0.98, size=2)))
            size = int(rng.integers(1, 300))
            market = MarketParams.from_chi(size, math.exp(rng.uniform(math.log(1e-3), math.log(9.0))))
            market = replace(market, drift=rng.uniform(-0.5, 0.5))
            full = _bounds(_box([scenario], [size], [market.chi], [market.drift], 0.0)[2])[2]
            assert full[0, 0, -1] == delta_phi2(scenario, size, market, method)

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-2, 0.05, 0.2, 1.0])
    @pytest.mark.parametrize("method", ["oracle", "grid"], ids=["oracle", "grid"])
    def test_bracket_holds_critical_level(self, method, eps):
        from levdiv.analysis import _box, _bracket
        from levdiv.gaussian import _error_bound

        margin = _error_bound(method)
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        box = _box(scenarios, SCAN_SIZES, SCAN_CHIS, [0.0] * len(SCAN_CHIS), eps)
        cols = box[0]
        lo, hi = _bracket(box, eps, margin)
        for s, size, m, low, high in zip(*cols.tolist(), lo.tolist(), hi.tolist()):
            n_star = full_box_critical(scenarios[s], size, SCAN_CHIS[m], 0.0, method, eps)
            assert low <= effective_critical(n_star, size) <= high
        market = MarketParams.from_chi(40, 0.4)
        shift = [mu * market.horizon for mu in SCAN_DRIFTS]
        lo, hi = _bracket(_box([SCENARIO], [40], [market.chi] * len(shift), shift, eps), eps, margin)
        for mu, low, high in zip(shift, lo.tolist(), hi.tolist()):
            n_star = full_box_critical(SCENARIO, 40, market.chi, mu, method, eps)
            assert low <= effective_critical(n_star, 40) <= high

    def test_bracket_decides_most_columns(self):
        from levdiv.analysis import _box, _bracket
        from levdiv.gaussian import _ORACLE_BOUND

        # N = 2..200 at 20 chi and eps 0.01: the bracket alone fixes n* in
        # over a third of the columns
        scenarios, chis_ = [SCENARIO, LeverageScenario(0.25, 0.5)], default_chi_grid(points=20)
        box = _box(scenarios, range(2, 201), chis_, [0.0] * len(chis_), 1e-2)
        cols = box[0]
        lo, hi = _bracket(box, 1e-2, _ORACLE_BOUND)
        closed = (lo > cols[1]) | (np.minimum(hi, cols[1]) <= lo)
        assert closed.mean() > 1 / 3
        assert (lo <= hi).all()

    def test_dense_box_matches_sweep(self):
        # every cell of N = 2..200 at 20 chi through one sweep per scenario;
        # a column's n* is one more than its largest risky n
        scenarios, sizes, chis_ = [SCENARIO, LeverageScenario(0.25, 0.5)], range(2, 201), default_chi_grid(points=20)
        for scenario in scenarios:
            sweep = regime_sweep(scenario, sizes, chis_)
            for eps in (1e-6, 1e-3, 1e-2):
                (table,) = critical_table([scenario], sizes, chis_, "oracle", eps)
                star = {(size, chi): 1 for size in sizes for chi in chis_.tolist()}
                risky = ~(sweep.delta_phi2 <= eps)
                for key in zip(sweep.market_size[risky].tolist(), sweep.chi[risky].tolist(), sweep.n[risky].tolist()):
                    star[key[:2]] = max(star[key[:2]], key[2] + 1)
                assert table == {(size, chi): None if k > size else k for (size, chi), k in star.items()}


class TestScanBatches:
    """A scan's open cells are cut into bounded batches without moving any n*."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 1e-2])
    @pytest.mark.parametrize("method", ["oracle", "grid"], ids=["oracle", "grid"])
    def test_forced_batches_match_full_box(self, monkeypatch, method, eps):
        import levdiv.analysis

        rng = np.random.default_rng(20261019)
        sizes = [1, 2, 3, *rng.integers(4, 41, size=4).tolist()]
        chis_ = np.exp(rng.uniform(math.log(1e-3), math.log(9.0), size=5)).tolist()
        drifts = rng.uniform(-0.2, 0.2, size=3).tolist()
        real_phi2, calls = levdiv.analysis.binorm_cdf, []

        def phi2(z, rho, method):
            calls.append(np.asarray(rho))
            return real_phi2(z, rho, method)

        monkeypatch.setattr(levdiv.analysis, "_SCAN_BUDGET", 3)
        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", phi2)
        scenarios = [SCENARIO, LeverageScenario(0.25, 0.5)]
        tables = critical_table(scenarios, sizes, chis_, method, eps)
        for scenario, table in zip(scenarios, tables):
            assert table == {
                (size, chi): full_box_critical(scenario, size, chi, 0.0, method, eps)
                for size in sizes
                for chi in chis_
            }
        assert len(calls) > 1
        for size, chi in zip(sizes, chis_ + chis_):
            market = MarketParams.from_chi(size, chi)
            scan = mu_sensitivity(SCENARIO, market, drifts, method, eps)
            assert scan == {
                mu: full_box_critical(SCENARIO, size, market.chi, mu * market.horizon, method, eps) for mu in drifts
            }
            market = replace(market, drift=drifts[0])
            assert critical_diversification(SCENARIO, market, method, eps) == full_box_critical(
                SCENARIO, size, market.chi, market.drift * market.horizon, method, eps
            )
        assert not any((rho == 1.0).any() for rho in calls)

    @pytest.mark.parametrize("eps", [1e-6, 1e-2])
    @pytest.mark.parametrize("method", ["oracle", "grid"])
    def test_table1_makes_at_most_one_phi2_call(self, monkeypatch, method, eps):
        import levdiv.analysis

        real_phi2, calls = levdiv.analysis.binorm_cdf, []

        def phi2(z, rho, method):
            calls.append(rho)
            return real_phi2(z, rho, method)

        monkeypatch.setattr(levdiv.analysis, "binorm_cdf", phi2)
        compute_table1(method, eps)
        assert len(calls) <= 1

    def test_scan_memory_does_not_grow_with_the_box(self):
        from levdiv.analysis import _SCAN_BUDGET, _box, _bracket
        from levdiv.gaussian import _ORACLE_BOUND

        # the N <= 800 box has 2.6 times the cells of the N <= 500 one, and
        # each leaves more than one batch of cells open
        scenarios, chis_, peaks = [SCENARIO, LeverageScenario(0.25, 0.5)], default_chi_grid(points=20), []
        for top in (500, 800):
            box = _box(scenarios, range(2, top + 1), chis_, [0.0] * len(chis_), 1e-2)
            cols = box[0]
            lo, hi = _bracket(box, 1e-2, _ORACLE_BOUND)
            assert np.maximum(np.minimum(hi, cols[1]) - lo, 0).sum() > _SCAN_BUDGET
            tracemalloc.start()
            try:
                critical_table(scenarios, range(2, top + 1), chis_, "oracle", 1e-2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


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

    # columns whose levels are finite at every drift, eps 0.01: crashing
    # markets need more diversification, booming ones less
    @pytest.mark.parametrize(
        "scenario, size, levels",
        [
            (LeverageScenario(0.10, 0.25), 40, [9, 7, 6, 5, 4]),
            (LeverageScenario(0.25, 0.50), 200, [56, 27, 17, 12, 9]),
        ],
    )
    @pytest.mark.parametrize("method", ["oracle", "grid"])
    def test_drift_ordering_on_finite_levels(self, scenario, size, levels, method):
        drifts = [-0.3, -0.15, 0.0, 0.15, 0.3]
        scan = mu_sensitivity(scenario, MarketParams.from_chi(size, 1.6), drifts, method, 0.01)
        assert list(scan.values()) == levels

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
    with pytest.raises(DomainError, match="True"):
        build()
