#!/usr/bin/env python3
"""levdiv benchmark: regime maps, critical levels and the Monte Carlo cross-check.

    python3 perfbench/run.py --workload analytic-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a levdiv checkout; the program is imported from
``src/`` of that checkout and nowhere else.  Workloads (BENCHMARK.json says
why each was chosen):

* ``analytic-oracle``: ``levdiv sweep`` for both leverage scenarios on the
  standard box (N in 10..40, n in 1..N, 100 log-spaced chi) and ``levdiv
  table1`` at eps 1e-6 and 1e-2, through ``levdiv.cli.main`` in-process.
* ``analytic-grid``: ``levdiv sweep --method grid`` for 0.10 -> 0.25 on
  N in {10, 20} (each correlation tabulated once) and ``levdiv table1
  --method grid --eps-safe 0.01`` (correlations revisited, so the 4-entry
  cache evicts and rebuilds).  The cache starts cold for every command.
* ``montecarlo``: the six criterion-3 and two criterion-4 configurations of
  the acceptance suite and one random-selection configuration, each at
  2000 paths, through ``levdiv.simulate.estimate_default_probs``.

The analytic inputs are the paper's fixed box; their seed picks the cells
re-verified with mpmath.  The Monte Carlo seed keys every configuration's
random streams.  Each run repeats the workload body for ``--seconds`` (at
least twice) in a child process with one compute thread, then checks the
outputs against references that do not come from levdiv (``verify.py``).

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median over 5 fresh processes of importing levdiv and
  building the inputs;
* ``wall_s``: median time of one repeat of the workload body;
* ``throughput``: work of one repeat over ``wall_s``; the work is cells
  whose delta is computed (every sweep cell, and the cells table1's
  downward scans visit) on the analytic workloads, and paths on
  ``montecarlo``.  The report lists it as ``cells_per_s`` or ``paths_per_s``;
* ``peak_rss_mb``: peak resident memory of the workload's child process.

With ``--trace 1`` the run spends half its time untraced and half under the
tracer of ``tracer.py``, and the result holds the per-layer metrics,
including the tracing overhead.  ``--workload all`` runs the three
workloads in turn.

Lines before the last give every metric with its unit, sample count and
tail percentile, ``ops_failed_frac`` (failed checks over checks attempted),
any failed checks, and a ``report:`` JSON line with provenance.  The last
line is the result object.  When the program cannot be run, the exit code
is nonzero and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, HERE)

import verify  # noqa: E402
import workloads  # noqa: E402

MC_CASE_NAMES = [case.name for case in workloads.MC_CASES]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(mode: str, base: list[str], result_path: str, timeout: float, extra: tuple = ()) -> dict:
    """Run child.py to completion (killed and reaped on timeout); return its JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *base, result_path, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} failed with code {proc.returncode}:\n{proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def tail(values) -> tuple[str, float] | None:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", percentile(values, q)
    return None


# ------------------------------------------------------------- metrics


def end_to_end(items: int, reps: list[dict], setup: list[float], rss: float) -> dict:
    """Each metric as (value, unit, samples); ``items`` is the work of one
    repeat, in cells (analytic) or paths (Monte Carlo)."""
    walls = [r["wall_s"] for r in reps]
    rates = [items / w for w in walls]
    return {
        "setup_s": (median(setup), "s", setup),
        "wall_s": (median(walls), "s", walls),
        "throughput": (median(rates), "1/s", rates),
        "peak_rss_mb": (rss, "MB", [rss]),
    }


def per_layer(inputs, untraced: list[dict], traced: list[dict], checks: verify.Checks) -> dict:
    """Per-layer metrics of one traced run, each as (value, unit, samples).
    Counts are those of one repeat and must repeat exactly."""
    snaps = [r["trace"] for r in traced]
    counts = snaps[0]["counts"]
    for snap in snaps[1:]:
        checks.check(snap["counts"] == counts, "traced counts differ between repeats")
    n = len(snaps)

    def count(value, unit="count"):
        return (value, unit, n)

    def timed(key, unit):
        vals = [s["times"][key] for s in snaps]
        return (median(vals), unit, vals)

    def pooled(key, scale, unit, q):
        vals = [d for s in snaps for d in s["durations"][key]]
        return (scale * percentile(vals, q), unit, len(vals))

    hits, tabs = counts["gaussian.grid.cache_hits"], counts["gaussian.grid.tabulations"]
    possible = counts["analysis.critical_n.possible"]
    m = {
        "gaussian.oracle.calls": count(counts["gaussian.oracle.calls"]),
        "gaussian.oracle.us_per_call.p50": pooled("oracle_s", 1e6, "us", 50),
        "gaussian.oracle.us_per_call.p99": pooled("oracle_s", 1e6, "us", 99),
        "gaussian.oracle.self_s": timed("gaussian.oracle.self_s", "s"),
        "gaussian.grid.tabulations": count(tabs),
        "gaussian.grid.cache_hits": count(hits),
        "gaussian.grid.evictions": count(counts["gaussian.grid.evictions"]),
        "gaussian.grid.hit_ratio": count(hits / (hits + tabs) if hits + tabs else 0.0, "ratio"),
        "gaussian.grid.tabulate_ms.p50": pooled("tabulate_s", 1e3, "ms", 50),
        "gaussian.grid.tabulate_mb_computed": count(counts["gaussian.grid.tabulate_mb_computed"], "MB"),
        "gaussian.grid.lookups": count(counts["gaussian.grid.lookups"]),
        "gaussian.grid.lookup_us.p50": pooled("lookup_s", 1e6, "us", 50),
        "merton.z_score.calls": count(counts["merton.z_score.calls"]),
        "merton.z_score.self_s": timed("merton.z_score.self_s", "s"),
        "analysis.delta_phi2.cells": count(counts["analysis.delta_phi2.cells"]),
        "analysis.self_s": timed("analysis.self_s", "s"),
        "analysis.critical_n.scanned_ratio": count(
            counts["analysis.critical_n.scanned"] / possible if possible else 0.0, "ratio"
        ),
        "analysis.unresolved_cells": (checks.unresolved, "count", 1),
        "simulate.paths": count(counts["simulate.paths"]),
        "simulate.normals_drawn": count(counts["simulate.normals_drawn"]),
        "simulate.rng.constructions": count(counts["simulate.rng.constructions"]),
        "simulate.rng.construct_us_per_path": timed("simulate.rng.construct_us_per_path", "us"),
        "simulate.rng.ns_per_normal": timed("simulate.rng.ns_per_normal", "ns"),
        "simulate.select.us_per_path": timed("simulate.select.us_per_path", "us"),
        "simulate.kernel_self_s": timed("simulate.kernel_self_s", "s"),
    }
    # per-configuration cost comes from the untraced repeats
    paths = {case.name: cfg.paths for case, cfg in inputs} if isinstance(inputs[0], tuple) else {}
    for name in MC_CASE_NAMES:
        vals = [1e6 * r["times"][name] / paths[name] for r in untraced] if name in paths else []
        m[f"simulate.us_per_path.{name}"] = (median(vals), "us", vals)
    m["cli.format_s"] = timed("cli.format_s", "s")
    m["cli.output_bytes"] = (untraced[0].get("output_bytes", 0), "bytes", len(untraced))
    plain = median([r["wall_s"] for r in untraced])
    overhead = median([r["wall_s"] for r in traced]) - plain
    m["trace.overhead_s"] = (overhead, "s", len(untraced) + len(traced))
    m["trace.overhead_ratio"] = (overhead / plain, "ratio", len(untraced) + len(traced))
    return m


# ------------------------------------------------------------- provenance


def provenance(workload: str, seed: int, trace: bool, seconds: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "levdiv")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levdiv", "__init__.py")):
        print(f"error: no levdiv sources under {SRC}; run from the root of a levdiv checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload != "all":
        return run_one(args)
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": w})) for w in workloads.WORKLOADS]
    return max(codes)


def run_one(args) -> int:
    """One workload: set-up samples, the workload child, checks, report."""
    started = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    base = [args.workload, str(args.seed), "1" if args.tiny else "0"]
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setup.append(run_child("setup", base, os.path.join(run_dir, f"setup{i}.json"), 60)["setup_s"])
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_child(
            "workload", base, os.path.join(run_dir, "workload.json"), remaining,
            (str(args.seconds), str(args.trace), run_dir),
        )
        report = evaluate(args, result, setup, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


def evaluate(args, result: dict, setup: list[float], run_dir: str) -> dict:
    inputs = workloads.build_inputs(args.workload, args.seed, args.tiny)
    untraced, traced = result["untraced"], result["traced"]
    checks = verify.Checks()
    reps = untraced + traced
    if args.workload == "montecarlo":
        verify.check_montecarlo(inputs, reps, checks)
        items = sum(cfg.paths for _, cfg in inputs)
    else:
        files = {cmd.tag: _read(os.path.join(run_dir, cmd.tag + ".csv")) for cmd in inputs}
        verify.check_analytic(inputs, reps[-1]["codes"], files, [r["digests"] for r in reps], checks, args.seed)
        items = sum(verify.cells_evaluated(cmd, files[cmd.tag]) for cmd in inputs)

    e2e = end_to_end(items, untraced, setup, result["peak_rss_mb"])
    layers = per_layer(inputs, untraced, traced, checks) if args.trace else {}
    extra = {"ops_failed_frac": (checks.failed / checks.attempted if checks.attempted else 1.0, "ratio", checks.attempted)}
    if args.workload == "montecarlo":
        extra["paths_per_s"] = e2e["throughput"]
        extra["max_dev_se"] = (checks.max_dev_se, "SE", checks.attempted)
    else:
        extra["cells_per_s"] = e2e["throughput"]
        extra["max_abs_err"] = (checks.max_abs_err, "1", 1)
        extra["unresolved_cells"] = (checks.unresolved, "count", 1)
    chosen = layers if args.trace else e2e
    metrics = {k: {"value": float(v[0]), "unit": v[1]} for k, v in chosen.items()}
    return {
        "result": {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        },
        "provenance": provenance(args.workload, args.seed, bool(args.trace), args.seconds),
        "table": {k: _row(v) for k, v in {**chosen, **extra}.items()},
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "command_s": _command_times(untraced),
        "failures": checks.failures,
        "spans": traced[0]["trace"]["spans"] if traced else {},
        "edges": traced[0]["trace"]["edges"] if traced else {},
    }


def _read(path: str) -> str:
    """A command's output file; a command that failed may have written none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def _row(v: tuple) -> dict:
    value, unit, samples = v
    row = {"value": float(value), "unit": unit, "samples": len(samples) if isinstance(samples, list) else int(samples)}
    if isinstance(samples, list) and (t := tail(samples)):
        row["tail"] = {t[0]: t[1]}
    return row


def _command_times(reps: list[dict]) -> dict:
    names = reps[0]["times"].keys()
    return {name: median([r["times"][name] for r in reps]) for name in names}


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(
        f"levdiv benchmark: workload {prov['workload']}, seed {prov['seed']}, trace {prov['trace']}, "
        f"{report['repeats']['untraced']} untraced + {report['repeats']['traced']} traced repeats"
    )
    print(f"{'metric':<58} {'value':>16} {'unit':<6} {'samples':>8}  tail")
    for name, row in report["table"].items():
        t = ", ".join(f"{k} {v:.6g}" for k, v in row.get("tail", {}).items()) or "-"
        print(f"{name:<58} {row['value']:>16.6g} {row['unit']:<6} {row['samples']:>8}  {t}")
    for line in report["failures"]:
        print(f"FAILED: {line}")
    print("report: " + json.dumps({k: v for k, v in report.items() if k != "result"}, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
