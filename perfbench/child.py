"""Child process of the benchmark: one set-up measurement, or one workload.

    python3 perfbench/child.py setup    WORKLOAD SEED TINY RESULT_JSON
    python3 perfbench/child.py workload WORKLOAD SEED TINY RESULT_JSON SECONDS TRACE OUT_DIR

``setup`` times, from the first line of this process, importing levdiv and
building the workload's inputs.  ``workload`` repeats the workload body for
SECONDS (at least twice, so repeated outputs can be compared); with TRACE=1
it spends the first half untraced and the second half under the tracer.
Each writes its findings as JSON to RESULT_JSON and prints nothing.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)


def import_levdiv():
    import levdiv
    import levdiv.cli  # noqa: F401

    if not os.path.abspath(levdiv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"levdiv imported from {levdiv.__file__}, not from {SRC}")


def main(argv: list[str]) -> int:
    mode, workload, seed, tiny, result_path = argv[:5]
    seed, tiny = int(seed), tiny == "1"
    import_levdiv()
    import workloads

    inputs = workloads.build_inputs(workload, seed, tiny)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        result = {"setup_s": setup_s}
    else:
        seconds, trace, out_dir = float(argv[5]), argv[6] == "1", argv[7]
        result = run_workload(workload, inputs, seconds, trace, out_dir)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def repeat(body, seconds: float, min_repeats: int) -> list[dict]:
    reps: list[dict] = []
    start = time.perf_counter()
    while len(reps) < min_repeats or time.perf_counter() - start < seconds:
        reps.append(body())
    return reps


def run_workload(workload: str, inputs, seconds: float, trace: bool, out_dir: str) -> dict:
    import workloads

    if workload == "montecarlo":
        def body():
            return workloads.run_montecarlo(inputs)
    else:
        def body():
            return workloads.run_analytic(inputs, out_dir)

    untraced = repeat(body, seconds / 2 if trace else seconds, 1 if trace else 2)
    traced: list[dict] = []
    if trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr)

        def traced_body():
            tr.reset()
            rep = body()
            rep["trace"] = tracing.snapshot(tr)
            return rep

        traced = repeat(traced_body, seconds / 2, 2)
    return {"untraced": untraced, "traced": traced}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
