#!/usr/bin/env python3
"""Map the boundary n*(N, chi) between the safe and risky regimes for both
leverage scenarios over N = 2..500 and 100 log-spaced chi in [0.001, 9]
(oracle Phi2, epsilon_safe = 0.01).

Writes results/boundary_map_{scenario}.csv with columns N, chi, n_star,
one row per (N, chi) in that order; n_star is "none" where even n = N is
risky.  Prints per scenario how many columns have no safe level, are safe
at every n, or have an interior boundary, and prints the elapsed time and
the peak resident memory to stderr.  The scan brackets each n* by Phi1
alone and evaluates Phi2 only at the cells the bracket leaves open, one
bounded batch at a time, so its memory does not grow with the box.
"""

import csv
import pathlib
import resource
import sys
import time

from levdiv import LeverageScenario, default_chi_grid
from levdiv.analysis import critical_table

SCENARIOS = {
    "fn0.10_fa0.25": LeverageScenario(0.10, 0.25),
    "fn0.25_fa0.50": LeverageScenario(0.25, 0.50),
}
MARKET_SIZES = range(2, 501)
EPSILON_SAFE = 0.01


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    tables = critical_table(list(SCENARIOS.values()), MARKET_SIZES, default_chi_grid(), "oracle", EPSILON_SAFE)
    elapsed = time.perf_counter() - t0
    for tag, table in zip(SCENARIOS, tables):
        path = out_dir / f"boundary_map_{tag}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "chi", "n_star"])
            writer.writerows((size, repr(chi), "none" if n is None else n) for (size, chi), n in table.items())
        levels = list(table.values())
        none, safe = levels.count(None), levels.count(1)
        print(
            f"{tag}: wrote {path} ({len(levels)} columns: {none} none, {safe} safe at every n, "
            f"{len(levels) - none - safe} interior)"
        )
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"boundary map: {elapsed:.1f}s, peak RSS {peak:.1f} MB", file=sys.stderr)


if __name__ == "__main__":
    main()
