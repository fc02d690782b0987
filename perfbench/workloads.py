"""Workload inputs and timed bodies.

Inputs come from the workload definition and seed only; the program sees
nothing but the generated command lines and Monte Carlo configurations.  The analytic
workloads drive ``levdiv.cli.main`` in-process, so argument parsing and CSV
emission are on the timed path.  The Monte Carlo workload calls
``levdiv.simulate.estimate_default_probs``, as the acceptance suite does.

Every public levdiv name is looked up on its module at call time, so the
wrappers installed by ``tracer.py`` are picked up without any change here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass

WORKLOADS = ("analytic-oracle", "analytic-grid", "montecarlo")

SCENARIOS = ((0.10, 0.25), (0.25, 0.50))
CHI_POINTS = 100
ORACLE_SIZES = (10, 20, 30, 40)
GRID_SIZES = (10, 20)

# Tiny sizes keep the harness self-test fast; they are never benchmarked.
TINY_CHI_POINTS = 6
TINY_ORACLE_SIZES = (10,)
TINY_GRID_SIZES = (10,)

# Paths per Monte Carlo configuration: one repeat of all nine configurations
# takes about 4 s on a 2-core Xeon, so a run holds several repeats.
MC_PATHS = 2000
TINY_MC_PATHS = 200


@dataclass(frozen=True)
class McCase:
    """One Monte Carlo configuration; ``shared`` is None for random overlap."""

    f: float
    n: int
    market_size: int
    shared: int | None
    chi: float
    steps: int

    @property
    def name(self) -> str:
        overlap = "rand" if self.shared is None else f"k{self.shared}"
        return f"f{self.f}-N{self.market_size}-n{self.n}-{overlap}-chi{self.chi}-s{self.steps}"


# Criterion 3 (N = n, both banks hold every project), criterion 4 (N > n,
# fixed overlap k with k/n = n/N) and one random-selection configuration,
# which adds the second RNG stream and the per-path gather.
MC_CASES = (
    McCase(0.10, 1, 1, 1, 1.6, 250),
    McCase(0.25, 4, 4, 4, 1.6, 250),
    McCase(0.50, 16, 16, 16, 1.6, 250),
    McCase(0.50, 1, 1, 1, 5.1, 250),
    McCase(0.10, 4, 4, 4, 5.1, 1000),
    McCase(0.25, 16, 16, 16, 5.1, 1000),
    McCase(0.25, 4, 8, 2, 1.6, 250),
    McCase(0.25, 4, 16, 1, 1.6, 250),
    McCase(0.25, 4, 8, None, 1.6, 250),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--out <dir>/<tag>.csv`` is appended at run time."""

    tag: str
    argv: tuple[str, ...]
    method: str
    kind: str  # "sweep" or "table1"
    eps: float
    sizes: tuple[int, ...] = ()
    chi_points: int = 0
    scenario: tuple[float, float] = (0.0, 0.0)


def analytic_commands(workload: str, tiny: bool = False) -> list[Command]:
    """The CLI invocations of one repeat.  They cover the paper's fixed
    standard box, so they do not depend on the seed; the seed of an analytic
    run picks the cells re-verified with mpmath (``verify.py``)."""
    points = TINY_CHI_POINTS if tiny else CHI_POINTS
    cmds: list[Command] = []
    if workload == "analytic-oracle":
        sizes = TINY_ORACLE_SIZES if tiny else ORACLE_SIZES
        for fn, fa in SCENARIOS:
            cmds.append(_sweep("oracle", fn, fa, sizes, points))
        for eps in (1e-6, 1e-2):
            cmds.append(Command(f"table1-oracle-eps{eps!r}", ("table1", "--eps-safe", repr(eps)), "oracle", "table1", eps))
    elif workload == "analytic-grid":
        sizes = TINY_GRID_SIZES if tiny else GRID_SIZES
        cmds.append(_sweep("grid", *SCENARIOS[0], sizes, points))
        # table1 has a fixed box; at tiny sizes the sweep alone covers the grid
        if not tiny:
            cmds.append(
                Command("table1-grid-eps0.01", ("table1", "--method", "grid", "--eps-safe", "0.01"), "grid", "table1", 0.01)
            )
    else:
        raise ValueError(f"{workload!r} is not an analytic workload")
    return cmds


def _sweep(method: str, fn: float, fa: float, sizes: tuple[int, ...], points: int) -> Command:
    argv = [
        "sweep", "--f-normal", repr(fn), "--f-abnormal", repr(fa),
        "--N-values", ",".join(map(str, sizes)), "--chi-points", str(points),
    ]
    if method == "grid":
        argv += ["--method", "grid"]
    return Command(f"sweep-{method}-{fn}-{fa}", tuple(argv), method, "sweep", 1e-6, sizes, points, (fn, fa))


def mc_configs(seed: int, tiny: bool = False) -> list[tuple[McCase, object]]:
    """SimConfigs of one repeat; each case gets its own seed drawn from the
    workload seed, and every repeat reuses them."""
    import numpy as np

    from levdiv.merton import BankStrategy, MarketParams
    from levdiv.simulate import FixedOverlap, RandomSelection, SimConfig

    seeds = np.random.SeedSequence(seed).generate_state(len(MC_CASES), dtype=np.uint64)
    out = []
    for case, case_seed in zip(MC_CASES, seeds):
        strategy = BankStrategy(case.f, case.n)
        out.append(
            (
                case,
                SimConfig(
                    market=MarketParams.from_chi(case.market_size, case.chi),
                    strategies=(strategy, strategy),
                    overlap=RandomSelection() if case.shared is None else FixedOverlap(case.shared),
                    paths=TINY_MC_PATHS if tiny else MC_PATHS,
                    steps_per_horizon=case.steps,
                    seed=int(case_seed),
                ),
            )
        )
    return out


def build_inputs(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == "montecarlo":
        return mc_configs(seed, tiny)
    return analytic_commands(workload, tiny)


def run_analytic(commands: list[Command], out_dir: str) -> dict:
    """One repeat: every command once, each with a cold tabulation cache, as
    in a fresh CLI process.  Returns wall time, per-command times, output
    sizes and digests."""
    import levdiv.cli
    import levdiv.gaussian

    times: dict[str, float] = {}
    stdout: dict[str, str] = {}
    codes: dict[str, int] = {}
    t_start = time.perf_counter()
    for cmd in commands:
        levdiv.gaussian.tabulate_cdf_grid.cache_clear()
        buf = io.StringIO()
        argv = list(cmd.argv) + ["--out", os.path.join(out_dir, cmd.tag + ".csv")]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            codes[cmd.tag] = levdiv.cli.main(argv)
        times[cmd.tag] = time.perf_counter() - t0
        stdout[cmd.tag] = buf.getvalue()
    wall = time.perf_counter() - t_start
    digests: dict[str, str] = {}
    out_bytes = 0
    for cmd in commands:
        path = os.path.join(out_dir, cmd.tag + ".csv")
        data = stdout[cmd.tag].encode()
        with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
            data += fh.read()
        digests[cmd.tag] = hashlib.sha256(data).hexdigest()
        out_bytes += len(data)
    return {
        "wall_s": wall,
        "times": times,
        "codes": codes,
        "digests": digests,
        "output_bytes": out_bytes,
    }


def run_montecarlo(configs: list) -> dict:
    """One repeat: every configuration once, results kept for checking."""
    import levdiv.simulate

    times: dict[str, float] = {}
    results: dict[str, dict] = {}
    t_start = time.perf_counter()
    for case, config in configs:
        t0 = time.perf_counter()
        res = levdiv.simulate.estimate_default_probs(config)
        times[case.name] = time.perf_counter() - t0
        results[case.name] = {"json": res.to_json(), "paths": config.paths, "seed": config.seed}
    wall = time.perf_counter() - t_start
    return {"wall_s": wall, "times": times, "results": results}
