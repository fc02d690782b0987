#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Checks that every metric named in BENCHMARK.json and every report-only
metric is emitted with a unit and a sample count, that perturbed outputs (a
delta shifted by 1e-6, a Monte Carlo estimate shifted by 10 standard
errors) are counted as failed operations, and that the benchmark refuses to
run, printing no result, where the levdiv sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import verify  # noqa: E402
import workloads  # noqa: E402

REPORT_ONLY = {
    "analytic-oracle": ("ops_failed_frac", "cells_per_s", "max_abs_err", "unresolved_cells"),
    "analytic-grid": ("ops_failed_frac", "cells_per_s", "max_abs_err", "unresolved_cells"),
    "montecarlo": ("ops_failed_frac", "paths_per_s", "max_dev_se"),
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def test_every_metric_emitted():
    spec = _spec()
    _require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            _require(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            _require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
            _require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == want, f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            report = json.loads(next(line for line in lines if line.startswith("report: "))[len("report: "):])
            for name in [*want, *REPORT_ONLY[workload]]:
                row = report["table"].get(name)
                _require(row is not None and "unit" in row and "samples" in row, f"{workload}: {name} missing from report")
            for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed"):
                _require(key in report["provenance"], f"provenance lacks {key}")


def test_perturbed_delta_is_flagged():
    import levdiv.cli

    cmd = next(c for c in workloads.analytic_commands("analytic-oracle", tiny=True) if c.kind == "sweep")
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = os.path.join(tmp, "sweep.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            _require(levdiv.cli.main([*cmd.argv, "--out", path]) == 0, "sweep failed")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    clean = verify.Checks()
    verify.check_sweep(cmd, text, clean)
    _require(clean.attempted > 0 and clean.failed == 0, f"clean sweep flagged: {clean.failures}")

    lines = text.splitlines(keepends=True)
    fields = lines[5].rstrip("\r\n").split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[5] = ",".join(fields) + "\r\n"
    shifted = verify.Checks()
    verify.check_sweep(cmd, "".join(lines), shifted)
    _require(shifted.failed >= 1 and shifted.failed / shifted.attempted > 0, "a delta shifted by 1e-6 was not flagged")


def test_perturbed_estimate_is_flagged():
    configs = [pair for pair in workloads.mc_configs(5, tiny=True) if pair[0].shared is None]
    case, config = configs[0]
    reps = [workloads.run_montecarlo(configs) for _ in range(2)]
    clean = verify.Checks()
    verify.check_montecarlo(configs, reps, clean)
    _require(clean.attempted > 0 and clean.failed == 0, f"clean estimate flagged: {clean.failures}")

    est = json.loads(reps[-1]["results"][case.name]["json"])
    target, _ = verify.mc_targets(case)
    se = math.sqrt(target * (1.0 - target) / config.paths)
    est["pd1_hat"] += math.copysign(10.0 * se, est["pd1_hat"] - target)
    for rep in reps:
        rep["results"][case.name]["json"] = json.dumps(est, indent=2)
    shifted = verify.Checks()
    verify.check_montecarlo(configs, reps, shifted)
    _require(shifted.failed == 1, f"a 10 SE shift gave {shifted.failed} failures")


def test_refuses_without_sources():
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, "analytic-oracle", 0)
    _require(proc.returncode != 0, "benchmark ran without levdiv sources")
    _require('"correct"' not in proc.stdout, "benchmark printed a result without levdiv sources")


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
