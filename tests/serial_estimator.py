"""Single-threaded reference Monte Carlo estimator, for tests only.

Every path of a chunk is drawn on the calling thread, `exp` runs out of
place over the whole chunk, and each bank's holdings are gathered into a
copy, so the chunk's per-(path, step) book returns are held whole.  Each
path draws shocks for the projects of `drawn_projects` only.  The moment
sums run in the library's order: per path (row sums over steps), then per
chunk, then chunk by chunk, with the chunk size read from
`levdiv.simulate._CHUNK_PATHS` at call time.  The library's estimator must
return the same bits for every config, at any worker count.
"""

from __future__ import annotations

import math

import numpy as np

import levdiv.simulate
from levdiv import FixedOverlap, RandomSelection, SimConfig, SimResult, path_rng
from levdiv.simulate import select_holdings


def fixed_holdings(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic holdings with exactly k shared projects: bank 1 takes
    [0, n1), bank 2 takes [n1 - k, n1 - k + n2)."""
    assert isinstance(config.overlap, FixedOverlap)
    n1, n2 = (s.diversification for s in config.strategies)
    k = config.overlap.shared
    return np.arange(n1), np.arange(n1 - k, n1 - k + n2)


def drawn_projects(config: SimConfig) -> int:
    """Projects a path draws shocks for, per step: all N under random
    selection, the n1 + n2 - k held ones [0, n1 + n2 - k) under a fixed
    overlap of k."""
    if isinstance(config.overlap, RandomSelection):
        return config.market.market_size
    return sum(s.diversification for s in config.strategies) - config.overlap.shared


def serial_estimate(config: SimConfig, collect_terminals: bool = False) -> SimResult:
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
    if not random_mode:
        h_fixed = fixed_holdings(config)

    n_def = np.zeros(2, dtype=np.int64)
    n_joint = 0
    # pooled per-step log-return moments: per path, per chunk, then in chunk order
    s_x = s_y = s_xx = s_yy = s_xy = 0.0
    n_obs = 0
    terminals = np.empty((config.paths, 2)) if collect_terminals else None

    chunk = levdiv.simulate._CHUNK_PATHS
    width = drawn_projects(config)
    xi = np.empty((min(chunk, config.paths), steps, width))
    for start in range(0, config.paths, chunk):
        size = min(chunk, config.paths - start)
        block = xi[:size]
        for i in range(size):
            path_rng(config.seed, start + i).standard_normal((steps, width), out=block[i])
        growth = np.exp(drift_term + vol_term * block)

        if random_mode:
            idx1 = np.empty((size, config.strategies[0].diversification), dtype=int)
            idx2 = np.empty((size, config.strategies[1].diversification), dtype=int)
            for i in range(size):
                idx1[i], idx2[i] = select_holdings(config, start + i)
            indices = (idx1, idx2)

        rets = []
        for bank in (0, 1):
            if random_mode:
                held = np.take_along_axis(growth, indices[bank][:, None, :], axis=2)
            else:
                held = growth[:, :, h_fixed[bank]]
            rets.append(np.log(held.mean(axis=2)))

        logfac1 = rets[0].sum(axis=1)
        logfac2 = rets[1].sum(axis=1)
        d1 = logfac1 <= log_limits[0]
        d2 = logfac2 <= log_limits[1]
        n_def[0] += int(d1.sum())
        n_def[1] += int(d2.sum())
        n_joint += int((d1 & d2).sum())
        s_x += float(logfac1.sum())
        s_y += float(logfac2.sum())
        s_xx += float((rets[0] * rets[0]).sum(axis=1).sum())
        s_yy += float((rets[1] * rets[1]).sum(axis=1).sum())
        s_xy += float((rets[0] * rets[1]).sum(axis=1).sum())
        n_obs += size * steps
        if terminals is not None:
            terminals[start : start + size, 0] = np.exp(logfac1)
            terminals[start : start + size, 1] = np.exp(logfac2)

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
