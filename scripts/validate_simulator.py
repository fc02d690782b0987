#!/usr/bin/env python3
"""Run the Monte Carlo simulator against the analytic default probabilities
and print a comparison table: individual defaults vs Phi1(z), joint
defaults vs Phi2(z, z, k/n), and the realized asset correlation.  Each
deviation is also given in units of its binomial standard error (dev/se),
so sampling noise (a few SE at most) can be told apart from bias.

Each row ends with its wall time and paths per second, and a last line
gives the total wall time.  Pass --quick for a reduced path count.
"""

import argparse
import time

from levdiv import (
    BankStrategy,
    FixedOverlap,
    MarketParams,
    SimConfig,
    estimate_default_probs,
    individual_pd,
    systemic_pd,
)
from levdiv.merton import correlation_law

# (f, n, N, k, chi, steps): the joint target uses the overlap-implied
# correlation k/n, so any (k, n) pairing is checkable
CONFIGS = [
    (0.10, 1, 2, 1, 1.6, 250),
    (0.25, 4, 8, 2, 1.6, 250),
    (0.50, 4, 8, 2, 1.6, 250),
    (0.25, 4, 16, 1, 5.1, 1000),
    (0.25, 16, 32, 8, 1.6, 250),
]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--quick", action="store_true", help="use 10k paths")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    paths = 10_000 if args.quick else args.paths

    header = (
        f"{'f':>5} {'n':>3} {'N':>3} {'k':>3} {'chi':>4} | "
        f"{'pd_hat':>8} {'Phi1(z)':>8} {'dev/se':>7} | "
        f"{'joint':>8} {'Phi2':>8} {'dev':>8} {'dev/se':>7} | {'corr':>7} {'k/n':>5}"
    )
    print(header)
    print("-" * len(header))
    total = 0.0
    for f, n, N, k, chi, steps in CONFIGS:
        market = MarketParams.from_chi(N, chi)
        strategy = BankStrategy(f, n)
        config = SimConfig(
            market=market,
            strategies=(strategy, strategy),
            overlap=FixedOverlap(k),
            paths=paths,
            steps_per_horizon=steps,
            seed=args.seed,
        )
        t0 = time.perf_counter()
        res = estimate_default_probs(config)
        seconds = time.perf_counter() - t0
        total += seconds
        pd_target = individual_pd(strategy, market)
        rho, _ = correlation_law(n, N, config.overlap)
        joint_target = systemic_pd(strategy, market, overlap=config.overlap)
        se_mult = abs(res.pd1_hat - pd_target) / res.se_pd1 if res.se_pd1 else float("inf")
        joint_dev = abs(res.joint_pd_hat - joint_target)
        joint_se_mult = joint_dev / res.se_joint if res.se_joint else float("inf")
        print(
            f"{f:>5} {n:>3} {N:>3} {k:>3} {chi:>4} | "
            f"{res.pd1_hat:>8.5f} {pd_target:>8.5f} {se_mult:>7.2f} | "
            f"{res.joint_pd_hat:>8.5f} {joint_target:>8.5f} "
            f"{joint_dev:>8.5f} {joint_se_mult:>7.2f} | "
            f"{res.realized_correlation:>7.4f} {rho:>5.2f}"
            f"   [{seconds:.2f} s, {paths / seconds:,.0f} paths/s]"
        )
    print(f"total {total:.2f} s for {len(CONFIGS)} rows of {paths:,} paths")


if __name__ == "__main__":
    main()
