"""Brute-force Monte Carlo cross-check of the analytic default probabilities.

Two banks hold equally weighted, periodically rebalanced portfolios drawn
from N independent GBM projects.  Per path the simulator draws exact
per-step GBM increments, applies the contrarian rebalancing rule (sell
winners, buy losers, total value unchanged), and records individual and
joint defaults a_i(T) <= f_i * a_i(0).

Randomness is counter-based: path p of a run with seed s consumes the
Philox stream keyed (s, p), so every path is reproducible in isolation.
Stream 0 carries the price shocks in (step, project) order, for all N projects
under random selection but under a fixed overlap of k only for the n1 + n2 - k
projects [0, n1 + n2 - k) the banks hold; stream 1 carries the random selection.

The default counts do not depend on how paths are chunked.  The float
moment sums behind `realized_correlation` are added per chunk, with a
chunk size fixed by the config.  Each chunk is split into one slice per
usable CPU, and one worker thread does all of a slice's work: it re-keys a
single generator to each path's streams, draws the shocks (and, under
random selection, the holdings), and reduces them to per-step book returns
in a small scratch block, a few paths at a time.  Every count and sum is
taken on the calling thread over whole chunks, and each path's returns are
computed in the same order whatever block holds them, so neither the
thread count nor the scratch block size affects any output.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, is_int
from .merton import BankStrategy, FixedOverlap, MarketParams, OverlapMode, RandomSelection, check_overlap

# Chunk size is a pure function of the config (never of the environment): it
# fixes the order in which the moment sums are added, so this value must not
# change.  It sizes no block of shocks; a chunk holds only its book returns.
_CHUNK_BUDGET = 8_000_000  # path-steps x projects per chunk
# Doubles in each worker's scratch block (~1 MB, so it stays in cache while a
# sub-block is drawn, exponentiated and reduced).  No output depends on it.
_SCRATCH_BUDGET = 131_072


def _chunk_size(steps: int, market_size: int) -> int:
    return max(1, min(4096, _CHUNK_BUDGET // (steps * market_size)))


@dataclass(frozen=True)
class SimConfig:
    market: MarketParams
    strategies: tuple[BankStrategy, BankStrategy]
    overlap: OverlapMode = RandomSelection()
    paths: int = 100_000
    steps_per_horizon: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        n1, n2 = (s.diversification for s in self.strategies)
        N = self.market.market_size
        if n1 > N or n2 > N:
            raise ConfigError(f"diversification ({n1}, {n2}) exceeds market size {N}")
        check_overlap(self.overlap, n1, n2, N)
        if not is_int(self.paths) or self.paths < 1:
            raise ConfigError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not is_int(self.steps_per_horizon) or self.steps_per_horizon < 1:
            raise ConfigError(f"steps_per_horizon must be an integer >= 1, got {self.steps_per_horizon!r}")
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    @property
    def dt(self) -> float:
        return self.market.horizon / self.steps_per_horizon


def path_rng(seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, path_index), one counter block per stream."""
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=stream << 128, key=key))


def _repoint(gen: np.random.Generator, state: dict, path_index: int, stream: int):
    """Re-key `gen` in place to draw exactly what path_rng(seed, path_index,
    stream) would, for about an eighth of the cost of building that one.

    `state` is the state of a fresh path_rng(seed, ...) generator, reused from
    call to call: key word 1 is the path, counter word 2 the stream, and the
    output buffer stays marked empty.
    """
    state["state"]["key"][1] = path_index
    state["state"]["counter"][2] = stream
    gen.bit_generator.state = state
    return gen


@dataclass(frozen=True)
class SimResult:
    """Estimated default frequencies with binomial standard errors."""

    pd1_hat: float
    pd2_hat: float
    joint_pd_hat: float
    se_pd1: float
    se_pd2: float
    se_joint: float
    realized_correlation: float
    paths_used: int
    seed_used: int
    terminal_values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pd1_hat": self.pd1_hat,
                "pd2_hat": self.pd2_hat,
                "joint_pd_hat": self.joint_pd_hat,
                "se_pd1": self.se_pd1,
                "se_pd2": self.se_pd2,
                "se_joint": self.se_joint,
                "realized_correlation": self.realized_correlation,
                "paths_used": self.paths_used,
                "seed_used": self.seed_used,
            },
            indent=2,
        )


def select_holdings(config: SimConfig, path_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path holdings for both banks (sorted project indices).  Under a
    fixed overlap of k, bank 1 takes [0, n1) and bank 2 [n1 - k, n1 - k + n2)."""
    n1, n2 = (s.diversification for s in config.strategies)
    if isinstance(config.overlap, FixedOverlap):
        start2 = n1 - config.overlap.shared
        return np.arange(n1), np.arange(start2, start2 + n2)
    rng = path_rng(config.seed, path_index, stream=1)
    return _draw_holdings(rng, config.market.market_size, n1, n2)


def _draw_holdings(rng, N: int, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    # random selection, from a generator on the path's stream 1
    return np.sort(rng.permutation(N)[:n1]), np.sort(rng.permutation(N)[:n2])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_default_probs(config: SimConfig, collect_terminals: bool = False) -> SimResult:
    """Estimate individual and joint default frequencies.

    Paths are processed in index order with a chunk size that depends only
    on the config, and each path's shocks come from its own keyed stream.
    Worker threads, one per usable CPU, fill contiguous slices of a chunk
    with per-(path, step) log returns, drawing each path's shocks and
    holdings themselves; the counts and moment sums are then reduced over
    whole chunks on the calling thread, so identical configs produce
    bitwise-identical results at any thread count and scratch block size.
    """
    m = config.market
    steps, N = config.steps_per_horizon, m.market_size
    dt = config.dt
    drift_term = (m.drift - 0.5 * m.sigma**2) * dt
    vol_term = m.sigma * math.sqrt(dt)
    log_limits = (
        math.log(config.strategies[0].leverage),
        math.log(config.strategies[1].leverage),
    )
    random_mode = isinstance(config.overlap, RandomSelection)
    n1, n2 = (s.diversification for s in config.strategies)
    if not random_mode:
        start2 = n1 - config.overlap.shared
        fixed = (range(n1), range(start2, start2 + n2))
    width = N if random_mode else start2 + n2  # projects drawn: the fixed books' prefix
    # banks holding the same projects have the same returns: compute them once
    same_books = not random_mode and n1 == n2 == config.overlap.shared

    n_def = np.zeros(2, dtype=np.int64)
    n_joint = 0
    # pooled per-step log-return moments, accumulated in chunk order
    s_x = s_y = s_xx = s_yy = s_xy = 0.0
    n_obs = 0
    terminals = np.empty((config.paths, 2)) if collect_terminals else None

    chunk = _chunk_size(steps, N)
    log_ret = np.empty((1 if same_books else 2, chunk, steps))

    def fill(start: int, lo: int, hi: int) -> None:
        # rows [lo, hi) of the chunk that begins at path `start`, a scratch
        # sub-block of paths at a time, from one generator re-keyed per path
        gen = path_rng(config.seed, start + lo)
        state = gen.bit_generator.state
        sub = min(hi - lo, max(1, _SCRATCH_BUDGET // (steps * width)))
        scratch = np.empty((sub, steps, width))
        if random_mode:
            held = (np.empty((sub, n1), dtype=int), np.empty((sub, n2), dtype=int))
        for a in range(lo, hi, sub):
            block = scratch[: min(sub, hi - a)]
            for j in range(len(block)):
                _repoint(gen, state, start + a + j, 0).standard_normal((steps, width), out=block[j])
                if random_mode:
                    _repoint(gen, state, start + a + j, 1)
                    held[0][j], held[1][j] = _draw_holdings(gen, N, n1, n2)
            block *= vol_term
            block += drift_term
            np.exp(block, out=block)
            for bank in range(log_ret.shape[0]):
                out = log_ret[bank, a : a + len(block)]
                if not random_mode:
                    # fixed books are added column by column, random books
                    # pairwise: the summation orders the estimator always had
                    np.copyto(out, block[:, :, fixed[bank][0]])
                    for col in fixed[bank][1:]:
                        out += block[:, :, col]
                    out /= len(fixed[bank])
                else:
                    books = held[bank][: len(block), None, :]
                    np.take_along_axis(block, books, axis=2).mean(axis=2, out=out)
                np.log(out, out=out)

    workers = min(_usable_cpus(), chunk)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, config.paths, chunk):
            size = min(chunk, config.paths - start)
            parts = min(workers, size)
            cuts = [size * w // parts for w in range(parts + 1)]
            list(pool.map(lambda lo, hi: fill(start, lo, hi), cuts[:-1], cuts[1:]))

            x, y = log_ret[0, :size], log_ret[-1, :size]
            logfac1 = x.sum(axis=1)
            # identical books: bank 2's row sums and moments are bank 1's, taken once
            logfac2 = logfac1 if same_books else y.sum(axis=1)
            d1 = logfac1 <= log_limits[0]
            d2 = logfac2 <= log_limits[1]
            n_def[0] += int(d1.sum())
            n_def[1] += int(d2.sum())
            n_joint += int((d1 & d2).sum())
            s_x += float(x.sum())
            s_xx += float((x * x).sum())
            if not same_books:
                s_y += float(y.sum())
                s_yy += float((y * y).sum())
                s_xy += float((x * y).sum())
            n_obs += size * steps
            if terminals is not None:
                terminals[start : start + size, 0] = np.exp(logfac1)
                terminals[start : start + size, 1] = np.exp(logfac2)

    if same_books:
        s_y, s_yy, s_xy = s_x, s_xx, s_xx
    paths = config.paths
    p1, p2, pj = n_def[0] / paths, n_def[1] / paths, n_joint / paths
    var_x = s_xx / n_obs - (s_x / n_obs) ** 2
    var_y = s_yy / n_obs - (s_y / n_obs) ** 2
    cov = s_xy / n_obs - (s_x / n_obs) * (s_y / n_obs)
    denom = math.sqrt(var_x * var_y) if var_x > 0 and var_y > 0 else 0.0
    corr = cov / denom if denom > 0 else float("nan")

    def se(p: float) -> float:
        return math.sqrt(p * (1.0 - p) / paths)

    return SimResult(
        pd1_hat=float(p1),
        pd2_hat=float(p2),
        joint_pd_hat=float(pj),
        se_pd1=se(p1),
        se_pd2=se(p2),
        se_joint=se(pj),
        realized_correlation=float(corr),
        paths_used=paths,
        seed_used=config.seed,
        terminal_values=terminals,
    )
