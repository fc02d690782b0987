"""Correctness checks of the benchmark's outputs against references that do
not come from levdiv.

Analytic reference: Phi2(h, h, rho) = Phi(h) - 2 T(h, sqrt((1 - rho)/(1 + rho)))
with Owen's T from ``scipy.special.owens_t`` (Owen 1956), a different
algorithm from levdiv's quadrature and grid routes.  A seeded sample of
cells is recomputed with mpmath at 30 digits to confirm the reference itself.

Monte Carlo targets: Phi(z) for each bank, Phi2(z, z, k/n) for fixed overlap
k, and for random selection the hypergeometric mixture
sum_k P(K = k) Phi2(z, z, k/n), K ~ Hypergeometric(N, n, n).

``PUBLISHED_CRITICAL_N`` is never used: the published table is a known,
reported mismatch, not a correctness target.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np
from scipy.special import ndtr, owens_t

# Oracle deltas must match to 1e-9; the grid to its documented 1e-3 bound.
# A cell whose reference delta lies within that tolerance of epsilon_safe
# cannot be called by the method, so it is counted as unresolved, not failed.
DELTA_TOL = {"oracle": 1e-9, "grid": 1e-3}
# Monte Carlo tolerance in binomial standard errors.  Discretisation bias at
# 2000 paths is below 0.5 SE (measured over 20 seeds), so a false alarm
# needs a 5.5-sigma draw: about 4e-8 per check, 1e-4 over a hundred runs of
# 27 checks.  A 10 SE shift is caught.
MC_TOL_SE = 6.0
MPMATH_SAMPLE = 24
MPMATH_TOL = 1e-12


class Checks:
    """Tally of checks attempted and failed, with the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unresolved = 0
        self.max_abs_err = 0.0
        self.max_dev_se = 0.0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# ------------------------------------------------------------- references


def z_score(f, n, chi):
    """Default threshold of a bank with leverage f and n of the projects (mu = 0)."""
    return -(np.log(1.0 / f) - chi / n) / np.sqrt(2.0 * chi / n)


def phi2_diag(h, rho):
    """Phi2(h, h, rho) for rho in [0, 1] through Owen's T."""
    h = np.asarray(h, dtype=float)
    a = np.sqrt((1.0 - np.asarray(rho, dtype=float)) / (1.0 + np.asarray(rho, dtype=float)))
    return ndtr(h) - 2.0 * owens_t(h, a)


def delta_ref(fn, fa, n, size, chi):
    n = np.asarray(n, dtype=float)
    rho = n / np.asarray(size, dtype=float)
    return phi2_diag(z_score(fa, n, chi), rho) - phi2_diag(z_score(fn, n, chi), rho)


def phi2_diag_mpmath(h: float, rho: float) -> float:
    import mpmath

    with mpmath.workdps(30):
        h = mpmath.mpf(h)
        a = mpmath.sqrt((1 - mpmath.mpf(rho)) / (1 + mpmath.mpf(rho)))
        t = mpmath.quad(lambda x: mpmath.exp(-h * h * (1 + x * x) / 2) / (1 + x * x), [0, a])
        return float(mpmath.ncdf(h) - t / mpmath.pi)


def chi_grid(points: int) -> np.ndarray:
    """The standard log-spaced chi grid on [0.001, 9]."""
    return np.logspace(math.log10(0.001), math.log10(9.0), points)


def hypergeom_pmf(size: int, n: int) -> dict[int, float]:
    """P(K = k) for the overlap of two independent n-subsets of size items."""
    total = math.comb(size, n)
    return {
        k: math.comb(n, k) * math.comb(size - n, n - k) / total
        for k in range(max(0, 2 * n - size), n + 1)
    }


def critical_ref(deltas: dict[int, float], size: int, eps: float, tol: float) -> tuple[int | None, int]:
    """Suffix-safe critical level from reference deltas, and the number of
    scanned cells too close to eps to call (nonzero means unresolved)."""
    n_star, unresolved = None, 0
    for n in range(size, 0, -1):
        d = deltas[n]
        unresolved += abs(d - eps) <= tol
        if d > eps:
            break
        n_star = n
    return n_star, unresolved


# ------------------------------------------------------------- analytic


def check_analytic(commands, codes: dict, files: dict, digests: list[dict], checks: Checks, seed: int) -> None:
    """Check the last repeat's exit codes and output files; every earlier
    repeat must match it byte for byte."""
    for cmd in commands:
        checks.check(codes[cmd.tag] == 0, f"{cmd.tag}: exit code {codes[cmd.tag]}")
        for rep in digests[:-1]:
            checks.check(rep[cmd.tag] == digests[-1][cmd.tag], f"{cmd.tag}: output differs between repeats")
        text = files[cmd.tag]
        if cmd.kind == "sweep":
            check_sweep(cmd, text, checks)
        else:
            check_table1(cmd, text, checks)
    check_reference_sample(seed, checks)


def parse_sweep(text: str) -> list[tuple[int, int, float, float, str]]:
    """Rows of a sweep CSV; a malformed file parses as no rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["N", "n", "chi", "delta_phi2", "regime"]:
        return []
    try:
        return [(int(r[0]), int(r[1]), float(r[2]), float(r[3]), r[4]) for r in rows[1:]]
    except (ValueError, IndexError):
        return []


def check_sweep(cmd, text: str, checks: Checks) -> None:
    rows = parse_sweep(text)
    chis = chi_grid(cmd.chi_points)
    expected = [(size, n, c) for size in cmd.sizes for c in range(len(chis)) for n in range(1, size + 1)]
    checks.check(len(rows) == len(expected), f"{cmd.tag}: {len(rows)} cells, expected {len(expected)}")
    if len(rows) != len(expected):
        return
    got = np.array([(r[0], r[1], r[2], r[3]) for r in rows])
    want_cells = np.array([(s, n, chis[c]) for s, n, c in expected])
    same_cells = bool(np.array_equal(got[:, :2], want_cells[:, :2])) and bool(
        np.allclose(got[:, 2], want_cells[:, 2], rtol=1e-12, atol=0.0)
    )
    checks.check(same_cells, f"{cmd.tag}: cell coordinates differ from the standard box")
    if not same_cells:
        return
    fn, fa = cmd.scenario
    ref = delta_ref(fn, fa, want_cells[:, 1], want_cells[:, 0], want_cells[:, 2])
    err = np.abs(got[:, 3] - ref)
    tol = DELTA_TOL[cmd.method]
    checks.max_abs_err = max(checks.max_abs_err, float(err.max()))
    resolved = np.abs(ref - cmd.eps) > tol
    for i, row in enumerate(rows):
        checks.check(bool(err[i] <= tol), f"{cmd.tag}: N={row[0]} n={row[1]} chi={row[2]!r} delta off by {err[i]:.3e}")
        if resolved[i]:
            want = "safe" if ref[i] <= cmd.eps else "risky"
            checks.check(row[4] == want, f"{cmd.tag}: N={row[0]} n={row[1]} chi={row[2]!r} labelled {row[4]}")
        else:
            checks.unresolved += 1


TABLE1_SIZES = (10, 20, 30, 40)
TABLE1_CHIS = (1.6, 5.1, 8.9)


def check_table1(cmd, text: str, checks: Checks) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    ok_shape = (
        len(rows) == 1 + len(TABLE1_SIZES)
        and all(len(r) == len(header) > 0 for r in rows[1:])
        and [r[0] for r in rows[1:]] == [str(s) for s in TABLE1_SIZES]
    )
    checks.check(ok_shape, f"{cmd.tag}: unexpected table layout")
    if not ok_shape:
        return
    tol = DELTA_TOL[cmd.method]
    for fn, fa in ((0.10, 0.25), (0.25, 0.50)):
        for chi in TABLE1_CHIS:
            col = f"fn{fn}_fa{fa}_chi{chi}"
            if col not in header:
                checks.check(False, f"{cmd.tag}: missing column {col}")
                continue
            j = header.index(col)
            for i, size in enumerate(TABLE1_SIZES):
                ns = np.arange(1, size + 1)
                deltas = dict(zip(ns.tolist(), delta_ref(fn, fa, ns, size, chi).tolist()))
                want, unresolved = critical_ref(deltas, size, cmd.eps, tol)
                if unresolved:
                    checks.unresolved += unresolved
                    continue
                got = rows[1 + i][j]
                checks.check(
                    got == ("none" if want is None else str(want)),
                    f"{cmd.tag}: {col} N={size} critical {got}, reference {want}",
                )


def cells_evaluated(cmd, text: str) -> int:
    """Cells whose delta a command computes: every cell of a sweep; for
    table1, the cells its downward scan visits, from n = N to the first
    risky n, read off the critical levels it printed."""
    if cmd.kind == "sweep":
        return sum(cmd.sizes) * cmd.chi_points
    rows = list(csv.reader(io.StringIO(text)))
    cells = 0
    for row in rows[1:]:
        if not row or not row[0].isdigit():
            continue
        size = int(row[0])
        for value in row[1 : 1 + len(TABLE1_CHIS) * 2]:
            if value == "none":
                cells += 1
            elif value.isdigit():
                cells += size - int(value) + (1 if int(value) == 1 else 2)
    return cells


def check_reference_sample(seed: int, checks: Checks) -> None:
    """The Owen's T reference must agree with mpmath on a seeded sample of
    (h, rho) pairs spanning the thresholds the workloads produce."""
    rng = random.Random(seed)
    for _ in range(MPMATH_SAMPLE):
        size = rng.choice((10, 20, 30, 40))
        n = rng.randint(1, size)
        chi = rng.choice((*chi_grid(100).tolist(), *TABLE1_CHIS))
        f = rng.choice((0.10, 0.25, 0.50))
        h, rho = float(z_score(f, n, chi)), n / size
        ref, exact = float(phi2_diag(h, rho)), phi2_diag_mpmath(h, rho)
        checks.check(abs(ref - exact) <= MPMATH_TOL, f"reference Phi2({h!r}, {rho!r}) off mpmath by {abs(ref - exact):.3e}")


# ------------------------------------------------------------- Monte Carlo


def mc_targets(case) -> tuple[float, float]:
    """(individual PD, joint PD) of two identical banks in one case."""
    z = float(z_score(case.f, case.n, case.chi))
    pd = float(ndtr(z))
    if case.shared is not None:
        return pd, float(phi2_diag(z, case.shared / case.n))
    mix = sum(p * float(phi2_diag(z, k / case.n)) for k, p in hypergeom_pmf(case.market_size, case.n).items())
    return pd, mix


def check_montecarlo(configs, repeats: list[dict], checks: Checks) -> None:
    """Each estimate within MC_TOL_SE standard errors of its target, and every
    repeat bit-identical to the first."""
    last = repeats[-1]["results"]
    for case, config in configs:
        res = last[case.name]
        for rep in repeats[:-1]:
            checks.check(rep["results"][case.name]["json"] == res["json"], f"{case.name}: repeated seed gave a different SimResult")
        est = json.loads(res["json"])
        checks.check(
            est["paths_used"] == config.paths and est["seed_used"] == config.seed,
            f"{case.name}: paths/seed not echoed",
        )
        pd, joint = mc_targets(case)
        for key, target in (("pd1_hat", pd), ("pd2_hat", pd), ("joint_pd_hat", joint)):
            se = math.sqrt(target * (1.0 - target) / config.paths)
            dev = abs(est[key] - target)
            checks.max_dev_se = max(checks.max_dev_se, dev / se)
            checks.check(dev <= MC_TOL_SE * se, f"{case.name}: {key}={est[key]!r} vs {target!r}, {dev / se:.1f} SE")
