"""Acceptance suite: one test per exit criterion.

Each test prints a single ``[criterion k] ...: PASS/FAIL`` line (run with
``pytest -s -v`` to see them for passing tests) and then asserts, so the
suite both documents and enforces the criteria.  Monte Carlo criteria use
fixed seeds and are therefore deterministic.
"""

import math
import time

import numpy as np

from critical_order import effective_critical

from levdiv import (
    BankStrategy,
    FixedOverlap,
    GridSpec,
    LeverageScenario,
    MarketParams,
    SimConfig,
    binorm_cdf_oracle,
    critical_diversification,
    default_chi_grid,
    delta_phi2,
    estimate_default_probs,
    individual_pd,
    mu_sensitivity,
    phi1,
    regime_sweep,
    systemic_pd,
    z_score,
)
from levdiv.cli import (
    PUBLISHED_CRITICAL_N,
    TABLE1_CHIS,
    TABLE1_MARKET_SIZES,
    TABLE1_SCENARIOS,
    compute_table1,
    main,
)
from levdiv.gaussian import binorm_cdf_grid

EPS_SAFE = 1e-6


def report(k: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {k}] {name}: {'PASS' if ok else 'FAIL'}" + (f"  {detail}" if detail else ""))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_table1_reproduction():
    """All 24 published critical-diversification values within +/-1,
    oracle method, epsilon_safe = 1e-6, under 2 minutes."""
    t0 = time.time()
    computed = compute_table1(method="oracle", epsilon_safe=EPS_SAFE)
    elapsed = time.time() - t0
    lines = ["scenario        chi   N    computed  published  |diff|"]
    mismatches = none_off = 0
    worst_ratio = 0.0
    for (fn, fa) in TABLE1_SCENARIOS:
        for chi in TABLE1_CHIS:
            for size, got, want in zip(
                TABLE1_MARKET_SIZES, computed[(fn, fa)][chi], PUBLISHED_CRITICAL_N[(fn, fa)][chi]
            ):
                ok_cell = got is not None and abs(got - want) <= 1
                mismatches += not ok_cell
                none_off += got is None
                if got is not None:
                    worst_ratio = max(worst_ratio, got / size)
                lines.append(
                    f"{{{fn},{fa}}}".ljust(16)
                    + f"{chi:<6}{size:<5}"
                    + f"{'none' if got is None else got:<10}{want:<11}"
                    + ("n/a" if got is None else f"{abs(got - want)}")
                )
    lines.append(f"(computed n*/N ratios reach {worst_ratio:.2f}; runtime {elapsed:.1f}s)")
    detail = "\n".join(lines)
    ok = mismatches == 0 and elapsed < 120.0
    report(
        1,
        "Table 1 reproduction (+/-1, oracle, eps=1e-6)",
        ok,
        f"{mismatches}/24 cells off: {none_off} none, {mismatches - none_off} finite",
    )
    assert ok, (
        "the exact bivariate normal CDF with epsilon_safe=1e-6 does not "
        "reproduce the published reference values; no constant threshold on "
        "the exact differential can (the per-cell admissible intervals are "
        "disjoint), so the reference values appear to be artifacts of a "
        "different numerical procedure:\n" + detail
    )


# --------------------------------------------------------------- criterion 2


def _battery_200():
    rng = np.random.default_rng(20240811)
    triples = []
    for _ in range(60):  # independence block
        triples.append((rng.uniform(-4, 4), rng.uniform(-4, 4), 0.0))
    for rho in np.linspace(-0.95, 0.95, 40):  # arcsine block
        triples.append((0.0, 0.0, float(rho)))
    for i in range(20):  # degenerate block
        triples.append((rng.uniform(-3, 3), rng.uniform(-3, 3), 1.0 if i % 2 else -1.0))
    gen_rhos = [-0.9, -0.7, -0.45, -0.2, -0.05, 0.15, 0.35, 0.6, 0.8, 0.95]
    for rho in gen_rhos:  # generic block
        for _ in range(8):
            triples.append((rng.uniform(-4, 4), rng.uniform(-4, 4), rho))
    assert len(triples) == 200
    return triples


def test_criterion_2_bivariate_cdf_correctness():
    t0 = time.time()
    triples = _battery_200()
    worst_oracle = 0.0
    worst_grid = 0.0
    for z1, z2, rho in triples:
        val = binorm_cdf_oracle(z1, z2, rho)
        if rho == 0.0:
            worst_oracle = max(worst_oracle, abs(val - phi1(z1) * phi1(z2)))
        elif z1 == 0.0 and z2 == 0.0:
            closed = 0.25 + math.asin(rho) / (2.0 * math.pi)
            worst_oracle = max(worst_oracle, abs(val - closed))
        elif rho == 1.0:
            assert val == phi1(min(z1, z2))
        elif rho == -1.0:  # P(-z2 <= X <= z1), in the form that keeps a small result
            lo, hi = min(z1, z2), max(z1, z2)
            assert val == max(0.0, phi1(lo) - phi1(-hi) if lo < 0.0 else 1.0 - phi1(-lo) - phi1(-hi))
        if abs(rho) <= 1.0 - 1e-9:  # the grid serves the diagonal: both of the triple's points on it
            z = np.array([z1, z2])
            worst_grid = max(worst_grid, np.abs(binorm_cdf_grid(z, rho) - binorm_cdf_oracle(z, z, rho)).max())

    conv_points = np.array([-1.5, 0.4, 0.2, 1.0, -0.8, -2.5, 2.0, 0.7])
    conv_rhos = (-0.6, 0.3, 0.8)
    errs = []
    for cells in (250, 500, 1000, 2000):
        spec = GridSpec(cells_per_axis=cells)
        errs.append(
            max(
                np.abs(binorm_cdf_grid(conv_points, rho, spec) - binorm_cdf_oracle(conv_points, conv_points, rho)).max()
                for rho in conv_rhos
            )
        )
    non_increasing = all(a >= b for a, b in zip(errs, errs[1:]))
    elapsed = time.time() - t0
    ok = worst_oracle <= 1e-7 and worst_grid <= 1e-3 and non_increasing
    report(
        2,
        "bivariate CDF battery (200 triples)",
        ok,
        f"oracle worst {worst_oracle:.2e}, grid worst {worst_grid:.2e}, "
        f"refinement errors {['%.2e' % e for e in errs]}, {elapsed:.1f}s",
    )
    assert worst_oracle <= 1e-7
    assert worst_grid <= 1e-3
    assert non_increasing, errs


# --------------------------------------------------------------- criterion 3

# (f, n, chi, steps): chi = 5.1 with n > 1 uses finer stepping because the
# discrete-rebalancing bias at 250 steps is comparable to the 3 SE budget
# at 1e5 paths (see notes); n = 1 has no rebalancing bias at any stepping.
MARGINAL_BATTERY = [
    (0.10, 1, 1.6, 250),
    (0.25, 4, 1.6, 250),
    (0.50, 16, 1.6, 250),
    (0.50, 1, 5.1, 250),
    (0.10, 4, 5.1, 1000),
    (0.25, 16, 5.1, 1000),
]


def test_criterion_3_monte_carlo_marginals():
    t0 = time.time()
    failures = []
    details = []
    for i, (f, n, chi, steps) in enumerate(MARGINAL_BATTERY):
        market = MarketParams.from_chi(n, chi)
        strategy = BankStrategy(f, n)
        config = SimConfig(
            market=market,
            strategies=(strategy, strategy),
            overlap=FixedOverlap(n),
            paths=100_000,
            steps_per_horizon=steps,
            seed=97 + i,
        )
        res = estimate_default_probs(config)
        target = individual_pd(strategy, market)
        dev = abs(res.pd1_hat - target)
        budget = 3.0 * res.se_pd1
        details.append(
            f"f={f} n={n} chi={chi} steps={steps}: |dev|={dev:.5f} vs 3SE={budget:.5f}"
        )
        if dev > budget:
            failures.append(details[-1])
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(
        3,
        "Monte Carlo marginals vs Phi1(z), 1e5 paths",
        ok,
        f"{len(MARGINAL_BATTERY)} configs, {elapsed:.0f}s",
    )
    for line in details:
        print("   ", line)
    assert not failures, failures
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


# --------------------------------------------------------------- criterion 4

JOINT_CONFIGS = [
    # (N, n, k): k/n = n/N so the simulated overlap matches the analytic rho
    (8, 4, 2),
    (16, 4, 1),
]


def test_criterion_4_monte_carlo_joint():
    failures = []
    details = []
    for i, (N, n, k) in enumerate(JOINT_CONFIGS):
        market = MarketParams.from_chi(N, 1.6)
        strategy = BankStrategy(0.25, n)
        config = SimConfig(
            market=market,
            strategies=(strategy, strategy),
            overlap=FixedOverlap(k),
            paths=100_000,
            steps_per_horizon=250,
            seed=211 + i,
        )
        res = estimate_default_probs(config)
        z = z_score(strategy, market)
        target = binorm_cdf_oracle(z, z, n / N)
        dev = abs(res.joint_pd_hat - target)
        budget = max(3.0 * res.se_joint, 0.005)
        details.append(
            f"N={N} n={n} k={k}: joint dev {dev:.5f} vs {budget:.5f}, "
            f"corr {res.realized_correlation:.4f} (target {k / n})"
        )
        if dev > budget:
            failures.append(details[-1])
    ok = not failures
    report(4, "Monte Carlo joint defaults vs Phi2(z,z,n/N)", ok)
    for line in details:
        print("   ", line)
    assert not failures, failures


# --------------------------------------------------------------- criterion 5


def test_criterion_5_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(555)

    # 500 randomized scenarios: the leverage differential is never negative
    worst = 0.0
    for _ in range(500):
        lo, hi = sorted(rng.uniform(0.02, 0.98, size=2))
        if hi - lo < 1e-6:
            hi = min(0.99, lo + 1e-3)
        N = int(rng.integers(2, 41))
        n = int(rng.integers(1, N + 1))
        chi = float(rng.uniform(0.01, 9.0))
        market = MarketParams.from_chi(N, chi)
        d = delta_phi2(LeverageScenario(lo, hi), n, market)
        worst = min(worst, d)
        # joint never exceeds marginal on the same draws
        s = BankStrategy(hi, n)
        assert systemic_pd(s, market) <= individual_pd(s, market) + 1e-12
    assert worst >= -1e-6, worst

    # Phi2 monotone in each argument and in rho
    zs = np.linspace(-3.0, 3.0, 7)
    rhos = np.linspace(-0.95, 0.95, 9)
    for rho in rhos:
        for fixed in (-1.0, 0.5):
            vals = [binorm_cdf_oracle(z, fixed, rho) for z in zs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    for z1, z2 in [(-1.0, 0.5), (0.0, 0.0), (1.5, -2.0)]:
        vals = [binorm_cdf_oracle(z1, z2, rho) for rho in rhos]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    for z in (-1.0, 0.5, 0.0, 1.5, -2.0):
        grid_vals = [binorm_cdf_grid(z, rho) for rho in (-0.8, -0.3, 0.2, 0.7)]
        assert all(a <= b + 1e-3 for a, b in zip(grid_vals, grid_vals[1:]))

    # individual_pd monotone in leverage
    market = MarketParams.from_chi(20, 1.6)
    for n in (1, 5, 20):
        pds = [individual_pd(BankStrategy(f, n), market) for f in np.linspace(0.05, 0.95, 10)]
        assert all(a < b for a, b in zip(pds, pds[1:]))

    # suffix-safe minimality of the critical level, verified by construction
    probes = [
        (LeverageScenario(0.1, 0.25), MarketParams.from_chi(40, 1.6)),
        (LeverageScenario(0.1, 0.25), MarketParams.from_chi(10, 0.4)),
        (LeverageScenario(0.25, 0.5), MarketParams.from_chi(10, 0.05)),
    ]
    for scenario, mkt in probes:
        n_star = critical_diversification(scenario, mkt)
        assert n_star is not None
        for n in range(n_star, mkt.market_size + 1):
            assert delta_phi2(scenario, n, mkt) <= EPS_SAFE
        if n_star > 1:
            assert delta_phi2(scenario, n_star - 1, mkt) > EPS_SAFE
    assert critical_diversification(
        LeverageScenario(0.25, 0.5), MarketParams.from_chi(10, 9.0)
    ) is None

    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report(5, "property suite (nonnegativity, monotonicity, minimality)", ok, f"{elapsed:.1f}s")
    assert ok, f"property suite took {elapsed:.1f}s (limit 60s)"


# --------------------------------------------------------------- criterion 6


def test_criterion_6_qualitative_claims():
    t0 = time.time()
    # (a) critical level non-decreasing in market size for all six columns
    computed = compute_table1(method="oracle", epsilon_safe=EPS_SAFE)
    monotone_ok = True
    for (fn, fa) in TABLE1_SCENARIOS:
        for chi in TABLE1_CHIS:
            enc = [
                effective_critical(v, size)
                for v, size in zip(computed[(fn, fa)][chi], TABLE1_MARKET_SIZES)
            ]
            monotone_ok &= all(a <= b for a, b in zip(enc, enc[1:]))

    # (b) risky-cell fraction non-increasing with market size on the sweep box
    fractions = {}
    fraction_ok = True
    for fn, fa in TABLE1_SCENARIOS:
        sweep = regime_sweep(
            LeverageScenario(fn, fa), list(TABLE1_MARKET_SIZES), default_chi_grid()
        )
        fr = [sweep.risky_fraction(size) for size in TABLE1_MARKET_SIZES]
        fractions[(fn, fa)] = fr
        fraction_ok &= all(a >= b for a, b in zip(fr, fr[1:]))

    # (c) drift direction: crashing markets need at least as much
    # diversification, booming markets at most as much
    scan = mu_sensitivity(
        LeverageScenario(0.25, 0.5), MarketParams.from_chi(20, 5.1), [-0.05, 0.0, 0.05]
    )
    enc = {mu: effective_critical(v, 20) for mu, v in scan.items()}
    drift_ok = enc[-0.05] >= enc[0.0] >= enc[0.05]

    # (a) and (c) encode None as N + 1, so say how many levels they compared
    # were finite
    levels_a = [v for column in computed.values() for values in column.values() for v in values]
    finite_a = sum(v is not None for v in levels_a)
    finite_c = sum(v is not None for v in scan.values())

    elapsed = time.time() - t0
    ok = monotone_ok and fraction_ok and drift_ok
    report(
        6,
        "qualitative regime claims",
        ok,
        f"(a) n* monotone in N: {monotone_ok}, {finite_a} of {len(levels_a)} levels finite; "
        f"(b) risky fractions {({k: [round(x, 3) for x in v] for k, v in fractions.items()})}; "
        f"(c) mu ordering {dict(sorted(enc.items()))}, {finite_c} of {len(scan)} levels finite; "
        f"{elapsed:.1f}s",
    )
    assert monotone_ok
    assert fraction_ok, fractions
    assert drift_ok, enc


# --------------------------------------------------------------- criterion 7


def test_criterion_7_determinism(tmp_path):
    sweep_args = [
        "sweep", "--f-normal", "0.1", "--f-abnormal", "0.25",
        "--N-values", "10", "--chi-points", "12",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_args + ["--out", str(a)]) == 0
    assert main(sweep_args + ["--out", str(b)]) == 0
    sweep_ok = a.read_bytes() == b.read_bytes()

    sim_args = [
        "simulate", "--f", "0.25", "--n", "4", "--N", "8", "--chi", "1.6",
        "--paths", "5000", "--steps", "50", "--seed", "17",
        "--overlap", "fixed:2", "--output", "json",
    ]
    sa, sb = tmp_path / "sim_a.json", tmp_path / "sim_b.json"
    assert main(sim_args + ["--out", str(sa)]) == 0
    assert main(sim_args + ["--out", str(sb)]) == 0
    sim_ok = sa.read_bytes() == sb.read_bytes()

    ok = sweep_ok and sim_ok
    # each path is reduced to a few scalars by the worker that draws it, and
    # those are summed in path-index order over chunks of a fixed number of
    # paths, with no shared mutable state, so thread counts cannot change the
    # totals; the byte-level check covers the end-to-end pipeline
    report(7, "byte-identical sweep and simulate reruns", ok)
    assert sweep_ok
    assert sim_ok
