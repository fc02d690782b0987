"""Span tracing from outside the program.

``install`` replaces public levdiv functions with timing wrappers at the
module attribute where their caller looks them up (``analysis`` imports
``binorm_cdf`` by name, so the wrapper goes on ``levdiv.analysis``).  Each
span records its name, its parent span, its duration and its self time
(duration minus the part covered by child spans).  Spans are aggregated in
memory per name and per (parent, name) edge; ``snapshot`` turns one
repeat's aggregate into counts and times for the per-layer metrics.  No
file under ``src/`` is touched.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


class Tracer:
    """Keeps the open-span stack and per-name aggregates of closed spans."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.tabulate_s: list[float] = []

    def begin(self, name: str) -> list:
        frame = [name, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        dt = perf_counter() - frame[2]
        self.stack.pop()
        name = frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total += dt
        st.self_time += dt - frame[1]
        st.durations.append(dt)
        self.edges[(parent[0] if parent is not None else "", name)] += 1
        return dt

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)

        return traced


class _TracedGenerator:
    """Forwards to a numpy Generator, timing the draws levdiv makes."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, out=None, **kwargs):
        frame = self._tracer.begin("simulate.standard_normal")
        try:
            return self._gen.standard_normal(size, *args, out=out, **kwargs)
        finally:
            self._tracer.end(frame)
            self._tracer.counts["normals"] += out.size if out is not None else math.prod(size)

    def permutation(self, x):
        frame = self._tracer.begin("simulate.permutation")
        try:
            return self._gen.permutation(x)
        finally:
            self._tracer.end(frame)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each levdiv module where callers bind them."""
    import levdiv.analysis as analysis
    import levdiv.cli as cli
    import levdiv.gaussian as gaussian
    import levdiv.simulate as simulate

    # gaussian: analysis.systemic_pd -> binorm_cdf -> oracle | grid -> lookup
    gaussian.binorm_cdf_oracle = tracer.wrap("gaussian.binorm_cdf_oracle", gaussian.binorm_cdf_oracle)
    gaussian.binorm_cdf_grid = tracer.wrap("gaussian.binorm_cdf_grid", gaussian.binorm_cdf_grid)
    analysis.binorm_cdf = tracer.wrap("gaussian.binorm_cdf", analysis.binorm_cdf)
    gaussian.CdfGrid.lookup = tracer.wrap("gaussian.CdfGrid.lookup", gaussian.CdfGrid.lookup)
    gaussian.tabulate_cdf_grid = _wrap_tabulate(tracer, gaussian.tabulate_cdf_grid)

    # merton, as bound by analysis
    analysis.z_score = tracer.wrap("merton.z_score", analysis.z_score)
    analysis.asset_correlation = tracer.wrap("merton.asset_correlation", analysis.asset_correlation)

    # analysis: entry points as bound by cli, inner calls as bound by analysis
    cli.regime_sweep = tracer.wrap("analysis.regime_sweep", cli.regime_sweep)
    cli.critical_diversification = _wrap_critical(tracer, cli.critical_diversification)
    analysis.delta_phi2 = tracer.wrap("analysis.delta_phi2", analysis.delta_phi2)
    analysis.systemic_pd = tracer.wrap("analysis.systemic_pd", analysis.systemic_pd)
    analysis.SweepResult.to_csv = tracer.wrap("analysis.SweepResult.to_csv", analysis.SweepResult.to_csv)

    # simulate: the estimator as called by the benchmark, its helpers as
    # bound inside simulate
    simulate.estimate_default_probs = _wrap_estimate(tracer, simulate.estimate_default_probs)
    simulate.select_holdings = tracer.wrap("simulate.select_holdings", simulate.select_holdings)
    original_rng = simulate.path_rng

    @functools.wraps(original_rng)
    def path_rng(*args, **kwargs):
        frame = tracer.begin("simulate.path_rng")
        try:
            gen = original_rng(*args, **kwargs)
        finally:
            tracer.end(frame)
        return _TracedGenerator(gen, tracer)

    simulate.path_rng = path_rng

    cli.main = tracer.wrap("cli.main", cli.main)


def _wrap_tabulate(tracer: Tracer, cached):
    """Counts tabulations (cache misses), hits and evictions of the
    lru_cache'd tabulation, and the bytes each tabulation computes."""

    @functools.wraps(cached)
    def tabulate(*args, **kwargs):
        before = cached.cache_info()
        frame = tracer.begin("gaussian.tabulate_cdf_grid")
        try:
            grid = cached(*args, **kwargs)
        finally:
            dt = tracer.end(frame)
        after = cached.cache_info()
        if after.misses > before.misses:
            tracer.counts["tabulations"] += 1
            tracer.counts["tabulate_bytes"] += grid.node_values.nbytes
            tracer.tabulate_s.append(dt)
            if after.currsize == before.currsize:
                tracer.counts["evictions"] += 1
        else:
            tracer.counts["cache_hits"] += 1
        return grid

    tabulate.cache_clear = cached.cache_clear
    tabulate.cache_info = cached.cache_info
    return tabulate


def _wrap_critical(tracer: Tracer, fn):
    @functools.wraps(fn)
    def critical_diversification(scenario, market, *args, **kwargs):
        tracer.counts["critical_n_possible"] += market.market_size
        frame = tracer.begin("analysis.critical_diversification")
        try:
            return fn(scenario, market, *args, **kwargs)
        finally:
            tracer.end(frame)

    return critical_diversification


def _wrap_estimate(tracer: Tracer, fn):
    from levdiv.simulate import RandomSelection

    @functools.wraps(fn)
    def estimate_default_probs(config, *args, **kwargs):
        tracer.counts["paths"] += config.paths
        if isinstance(config.overlap, RandomSelection):
            tracer.counts["random_paths"] += config.paths
        frame = tracer.begin("simulate.estimate_default_probs")
        try:
            return fn(config, *args, **kwargs)
        finally:
            tracer.end(frame)

    return estimate_default_probs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


ANALYSIS_SPANS = (
    "analysis.regime_sweep",
    "analysis.critical_diversification",
    "analysis.delta_phi2",
    "analysis.systemic_pd",
)


def snapshot(tracer: Tracer) -> dict:
    """Counts and times of one repeat; counts must repeat exactly."""
    c = tracer.counts
    paths = c["paths"]

    def stat(name: str) -> Stat:
        return tracer.stats.get(name, Stat())

    hits, tabs = c["cache_hits"], c["tabulations"]
    counts = {
        "gaussian.oracle.calls": stat("gaussian.binorm_cdf_oracle").calls,
        "gaussian.grid.tabulations": tabs,
        "gaussian.grid.cache_hits": hits,
        "gaussian.grid.evictions": c["evictions"],
        "gaussian.grid.lookups": stat("gaussian.CdfGrid.lookup").calls,
        "gaussian.grid.tabulate_mb_computed": c["tabulate_bytes"] / 1e6,
        "merton.z_score.calls": stat("merton.z_score").calls,
        "analysis.delta_phi2.cells": stat("analysis.delta_phi2").calls,
        "analysis.critical_n.scanned": tracer.edges[("analysis.critical_diversification", "analysis.delta_phi2")],
        "analysis.critical_n.possible": c["critical_n_possible"],
        "simulate.paths": paths,
        "simulate.normals_drawn": c["normals"],
        "simulate.rng.constructions": stat("simulate.path_rng").calls,
    }
    times = {
        "gaussian.oracle.self_s": stat("gaussian.binorm_cdf_oracle").self_time,
        "merton.z_score.self_s": stat("merton.z_score").self_time,
        "analysis.self_s": sum(stat(name).self_time for name in ANALYSIS_SPANS),
        "cli.format_s": stat("cli.main").self_time + stat("analysis.SweepResult.to_csv").total,
        "simulate.rng.construct_us_per_path": 1e6 * _ratio(stat("simulate.path_rng").total, paths),
        "simulate.rng.ns_per_normal": 1e9 * _ratio(stat("simulate.standard_normal").total, c["normals"]),
        "simulate.select.us_per_path": 1e6 * _ratio(stat("simulate.select_holdings").total, c["random_paths"]),
        "simulate.kernel_self_s": stat("simulate.estimate_default_probs").self_time,
    }
    durations = {
        "oracle_s": stat("gaussian.binorm_cdf_oracle").durations,
        "lookup_s": stat("gaussian.CdfGrid.lookup").durations,
        "tabulate_s": tracer.tabulate_s,
    }
    spans = {
        name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
        for name, st in sorted(tracer.stats.items())
    }
    edges = {f"{parent or '<root>'} -> {name}": n for (parent, name), n in sorted(tracer.edges.items())}
    return {"counts": counts, "times": times, "durations": durations, "spans": spans, "edges": edges}
