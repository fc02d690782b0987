#!/usr/bin/env python3
"""Produce the regime-map data files for both leverage scenarios over the
standard box (N in {10,20,30,40}, n in [1, N], 100 log-spaced chi in
[0.001, 9]) and print per-N risky fractions.

Writes results/regime_map_{scenario}.csv (oracle Phi2) and
results/regime_map_{scenario}_grid.csv (grid Phi2) in long format
(N, n, chi, delta_phi2, regime), and prints how far the grid map is from
the oracle one: the largest |delta_phi2| gap and the number of cells whose
label differs.  Any plotting tool can render the maps from these files.
"""

import pathlib
import time

import numpy as np

from levdiv import LeverageScenario, default_chi_grid, regime_sweep

SCENARIOS = {
    "fn0.10_fa0.25": LeverageScenario(0.10, 0.25),
    "fn0.25_fa0.50": LeverageScenario(0.25, 0.50),
}


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    for tag, scenario in SCENARIOS.items():
        sweeps = {}
        for method, suffix in (("oracle", ""), ("grid", "_grid")):
            t0 = time.perf_counter()
            sweep = sweeps[method] = regime_sweep(scenario, [10, 20, 30, 40], default_chi_grid(), method=method)
            path = out_dir / f"regime_map_{tag}{suffix}.csv"
            # newline="": the text's \r\n line ends are written as they are on every OS
            path.write_text(sweep.to_csv(), encoding="utf-8", newline="")
            print(f"{tag} {method}: wrote {path} ({sweep.n.size} cells, {time.perf_counter() - t0:.1f}s)")
            for size in sweep.market_sizes():
                print(f"  N={size}: risky fraction {sweep.risky_fraction(size):.4f}")
        oracle, grid = sweeps["oracle"], sweeps["grid"]
        gap = float(np.max(np.abs(oracle.delta_phi2 - grid.delta_phi2)))
        flips = int(np.count_nonzero(oracle.risky != grid.risky))
        print(f"{tag} oracle vs grid: max |delta_phi2 gap| {gap:.3e}, {flips} of {oracle.n.size} labels differ")


if __name__ == "__main__":
    main()
