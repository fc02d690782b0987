"""Brute-force Monte Carlo cross-check of the analytic default probabilities.

Two banks with one strategy (the paper's identical banks) each hold an equally
weighted, periodically rebalanced book of n of N independent GBM projects.
Per path the simulator draws exact per-step GBM increments, applies the
contrarian rebalancing rule (sell winners, buy losers, total value unchanged),
and records individual and joint defaults a_i(T) <= f * a_i(0).

Randomness is counter-based: path p of a run with seed s consumes the
Philox stream keyed (s, p), so every path is reproducible in isolation.
Stream 0 carries the price shocks in (step, project) order, for all N projects
under random selection but under a fixed overlap of k only for the 2n - k
projects [0, 2n - k) the banks hold; stream 1 carries the random selection.

A chunk is a fixed number of paths, and each worker reduces every path
to a few scalars as soon as its book log-returns are formed: each book's
log growth (the row sum over steps) and sum of squares, and, for books
that differ, the sum of their cross products.  The default counts and
terminal values come from the growths alone.  The float moment sums
behind `realized_correlation` run per path, then per chunk, then chunk by
chunk in path order.  Each chunk is split into one slice per usable CPU,
and one worker thread does all of a slice's work: it re-keys a single
generator to each path's streams, draws the shocks (and, under random
selection, the holdings), and reduces them in a small scratch block, a
few paths at a time.  Each path's sums are taken over the same contiguous
row whatever block holds it, so neither the thread count nor the scratch
block size affects any output.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, is_int
from .merton import BankStrategy, FixedOverlap, MarketParams, OverlapMode, RandomSelection, check_overlap

# Paths per chunk.  It fixes the order in which the moment sums are added,
# so this value must not change; a chunk holds only a few scalars per path.
_CHUNK_PATHS = 4096
# Doubles in each worker's scratch block (~1 MB, so it stays in cache while a
# sub-block is drawn, exponentiated and reduced).  No output depends on it.
_SCRATCH_BUDGET = 131_072


@dataclass(frozen=True)
class SimConfig:
    market: MarketParams
    strategies: tuple[BankStrategy, BankStrategy]  # both banks use one strategy: the entries are equal
    overlap: OverlapMode = RandomSelection()
    paths: int = 100_000
    steps_per_horizon: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        first, second = self.strategies
        if first != second:
            raise DomainError(f"both banks use one strategy, got {first} and {second}")
        check_overlap(self.overlap, first.diversification, self.market.market_size)
        if not math.isfinite(self.market.sigma * self.market.sigma):
            raise DomainError(f"sigma^2 = 2 chi / T must be finite, got {self.market!r}")
        if not is_int(self.paths) or self.paths < 1:
            raise DomainError(f"paths must be an integer >= 1, got {self.paths!r}")
        if not is_int(self.steps_per_horizon) or self.steps_per_horizon < 1:
            raise DomainError(f"steps_per_horizon must be an integer >= 1, got {self.steps_per_horizon!r}")
        if not is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

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
        """Every field but ``terminal_values``, in declaration order."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "terminal_values"}
        return json.dumps(doc, indent=2)


def _fixed_books(config: SimConfig) -> tuple[range, range]:
    """The books under a fixed overlap of k: bank 1 holds projects [0, n)
    and bank 2 [n - k, 2n - k)."""
    n = config.strategies[0].diversification
    start2 = n - config.overlap.shared
    return range(n), range(start2, start2 + n)


def select_holdings(config: SimConfig, path_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path holdings for both banks (sorted project indices): the fixed
    books of ``_fixed_books``, or a random draw from the path's stream 1."""
    if isinstance(config.overlap, FixedOverlap):
        return tuple(np.array(book) for book in _fixed_books(config))
    rng = path_rng(config.seed, path_index, stream=1)
    return _draw_holdings(rng, config.market.market_size, config.strategies[0].diversification)


def _draw_holdings(rng, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # random selection, from a generator on the path's stream 1: bank 1, then bank 2
    return np.sort(rng.permutation(N)[:n]), np.sort(rng.permutation(N)[:n])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_default_probs(config: SimConfig, collect_terminals: bool = False) -> SimResult:
    """Estimate individual and joint default frequencies.

    Paths are processed in index order, a fixed number per chunk, and each
    path's shocks come from its own keyed stream.  Worker threads, one per
    usable CPU, take contiguous slices of a chunk, draw each path's shocks
    and holdings themselves, and reduce each path to its books' log growth,
    sums of squares and cross-product sum; the counts and moment sums are
    then taken from those per-path scalars on the calling thread, so
    identical configs produce bitwise-identical results at any thread count
    and scratch block size.
    """
    m = config.market
    steps, N = config.steps_per_horizon, m.market_size
    dt = config.dt
    drift_term = (m.drift - 0.5 * m.sigma**2) * dt
    vol_term = m.sigma * math.sqrt(dt)
    log_limit = math.log(config.strategies[0].leverage)
    n = config.strategies[0].diversification
    random_mode = isinstance(config.overlap, RandomSelection)
    fixed = None if random_mode else _fixed_books(config)
    width = N if random_mode else fixed[1].stop  # projects drawn: the fixed books' prefix [0, 2n - k)
    # banks holding the same projects have the same returns: compute them once
    same_books = not random_mode and fixed[0] == fixed[1]
    books = 1 if same_books else 2

    n_def = np.zeros(2, dtype=np.int64)
    n_joint = 0
    # per-step log-return moments (sum, sum of squares) per book, and the
    # cross-product sum, accumulated chunk by chunk
    moments = np.zeros((books, 2))
    s_xy = 0.0
    terminals = np.empty((config.paths, 2)) if collect_terminals else None

    chunk = min(_CHUNK_PATHS, config.paths)
    # per path of a chunk: each book's log growth and sum of squared log
    # returns, and the books' cross-product sum when they differ
    sums = np.empty((books, 2, chunk))
    cross = np.empty(chunk)

    def fill(start: int, lo: int, hi: int) -> None:
        # paths [lo, hi) of the chunk that begins at path `start`, a scratch
        # sub-block of paths at a time, from one generator re-keyed per path
        gen = path_rng(config.seed, start + lo)
        state = gen.bit_generator.state
        sub = min(hi - lo, max(1, _SCRATCH_BUDGET // (steps * width)))
        scratch = np.empty((sub, steps, width))
        log_ret = np.empty((books, sub, steps))
        tiny = np.finfo(float).tiny
        if random_mode:
            held = np.empty((2, sub, n), dtype=int)
        for a in range(lo, hi, sub):
            block = scratch[: min(sub, hi - a)]
            ret, rows = log_ret[:, : len(block)], slice(a, a + len(block))
            for j in range(len(block)):
                _repoint(gen, state, start + a + j, 0).standard_normal((steps, width), out=block[j])
                if random_mode:
                    _repoint(gen, state, start + a + j, 1)
                    held[:, j] = _draw_holdings(gen, N, n)
            block *= vol_term
            block += drift_term
            np.exp(block, out=block)
            for bank, out in enumerate(ret):
                if not random_mode:
                    # fixed books are added column by column, random books
                    # pairwise: the summation orders the estimator always had
                    np.copyto(out, block[:, :, fixed[bank][0]])
                    for col in fixed[bank][1:]:
                        out += block[:, :, col]
                    out /= len(fixed[bank])
                else:
                    np.take_along_axis(block, held[bank, : len(block), None, :], axis=2).mean(axis=2, out=out)
                # a mean that underflowed to 0 or a subnormal is retaken from
                # the path's redrawn shocks as m + log(mean(exp(x - m))) over
                # the book's log returns x, m = max(x); no other entry moves
                low = np.argwhere(out < tiny) if out.min() < tiny else np.empty((0, 2), dtype=int)
                out[low[:, 0], low[:, 1]] = 1.0
                np.log(out, out=out)
                redrawn = {
                    j: _repoint(gen, state, start + a + j, 0).standard_normal((steps, width)) * vol_term + drift_term
                    for j in set(low[:, 0].tolist())
                }
                for j, t in low.tolist():
                    x = redrawn[j][t, held[bank, j] if random_mode else fixed[bank]]
                    out[j, t] = x.max() + np.log(np.mean(np.exp(x - x.max())))
            # each path's row sums: log growth, cross product, then squares
            ret.sum(axis=2, out=sums[:, 0, rows])
            if not same_books:
                (ret[0] * ret[1]).sum(axis=1, out=cross[rows])
            np.square(ret, out=ret).sum(axis=2, out=sums[:, 1, rows])

    workers = min(_usable_cpus(), chunk)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, config.paths, chunk):
            size = min(chunk, config.paths - start)
            parts = min(workers, size)
            cuts = [size * w // parts for w in range(parts + 1)]
            list(pool.map(lambda lo, hi: fill(start, lo, hi), cuts[:-1], cuts[1:]))

            # identical books: bank 2's growths and moments are bank 1's
            logfac = sums[[0, -1], 0, :size]
            defaults = logfac <= log_limit
            n_def += defaults.sum(axis=1)
            n_joint += int((defaults[0] & defaults[1]).sum())
            moments += sums[:, :, :size].sum(axis=2)
            if not same_books:
                s_xy += float(cross[:size].sum())
            if terminals is not None:
                terminals[start : start + size] = np.exp(logfac).T

    (s_x, s_xx), (s_y, s_yy) = moments[[0, -1]].tolist()
    if same_books:
        s_xy = s_xx
    paths = config.paths
    n_obs = paths * steps
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
