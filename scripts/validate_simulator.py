#!/usr/bin/env python3
"""Run the Monte Carlo simulator against the analytic default probabilities
and print a comparison table: individual defaults vs Phi1(z), joint
defaults vs Phi2(z, z, k/n), and the realized asset correlation.  Each
deviation is also given in units of its binomial standard error (dev/se),
so sampling noise (a few SE at most) can be told apart from bias.

Each row is one in-process `levdiv simulate --overlap fixed:K --output json`
run and prints that command's own fields; a failing command ends the script
with its exit code.  Each row ends with its wall time and paths per second,
and a last line gives the total wall time.  The whole run's wall time and
peak resident memory go to stderr.  Pass --quick for a reduced path count.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time

from levdiv.cli import main as levdiv

# (f, n, N, k, chi, steps): the joint target uses the overlap-implied
# correlation k/n, so any (k, n) pairing is checkable
CONFIGS = [
    (0.10, 1, 2, 1, 1.6, 250),
    (0.25, 4, 8, 2, 1.6, 250),
    (0.50, 4, 8, 2, 1.6, 250),
    (0.25, 4, 16, 1, 5.1, 1000),
    (0.25, 16, 32, 8, 1.6, 250),
]


def simulate(argv: list[str]) -> dict:
    """The fields `levdiv simulate` prints as JSON; exits on its failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = levdiv(["simulate", *argv, "--output", "json"])
    if code != 0:
        print(f"levdiv simulate {' '.join(argv)} exited with code {code}", file=sys.stderr)
        sys.exit(code)
    # JSON writes a non-finite field (an SE multiple at SE 0, say) as null; print it as nan
    return {key: math.nan if value is None else value for key, value in json.loads(out.getvalue()).items()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--quick", action="store_true", help="use 10k paths")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    paths = 10_000 if args.quick else args.paths
    t_start = time.perf_counter()

    header = (
        f"{'f':>5} {'n':>3} {'N':>3} {'k':>3} {'chi':>4} | "
        f"{'pd_hat':>8} {'Phi1(z)':>8} {'dev/se':>7} | "
        f"{'joint':>8} {'Phi2':>8} {'dev':>8} {'dev/se':>7} | {'corr':>7} {'k/n':>5}"
    )
    print(header)
    print("-" * len(header))
    total = 0.0
    for f, n, N, k, chi, steps in CONFIGS:
        t0 = time.perf_counter()
        res = simulate([
            "--f", str(f), "--n", str(n), "--N", str(N), "--chi", str(chi), "--overlap", f"fixed:{k}",
            "--paths", str(paths), "--steps", str(steps), "--seed", str(args.seed),
        ])
        seconds = time.perf_counter() - t0
        total += seconds
        print(
            f"{f:>5} {n:>3} {N:>3} {k:>3} {chi:>4} | "
            f"{res['pd1_hat']:>8.5f} {res['analytic_pd']:>8.5f} {res['pd1_se_multiple']:>7.2f} | "
            f"{res['joint_pd_hat']:>8.5f} {res['analytic_joint_pd']:>8.5f} "
            f"{res['joint_abs_dev']:>8.5f} {res['joint_se_multiple']:>7.2f} | "
            f"{res['realized_correlation']:>7.4f} {res['target_correlation']:>5.2f}"
            f"   [{seconds:.2f} s, {paths / seconds:,.0f} paths/s]"
        )
    print(f"total {total:.2f} s for {len(CONFIGS)} rows of {paths:,} paths")
    elapsed = time.perf_counter() - t_start
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"validate simulator: {elapsed:.1f}s, peak RSS {peak:.1f} MB", file=sys.stderr)


if __name__ == "__main__":
    main()
