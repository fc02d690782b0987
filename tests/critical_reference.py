"""Critical diversification from the full box, for tests.

delta_phi2 is evaluated at every n in [1, N] of one market, one Phi2 call
per leverage level, and n* is read off a reversed cumulative AND over n.
The z and correlation arithmetic repeats the library's operation for
operation, so the deltas carry the library's bits and a critical level
found any other way must match this one exactly.
"""

import math

import numpy as np

from levdiv import binorm_cdf


def full_box_critical(scenario, market, method, epsilon_safe):
    """Smallest n whose suffix [n, N] is safe, or None if n = N is risky."""
    size, chi = market.market_size, market.chi
    n = np.arange(1, size + 1, dtype=float)
    pd = []
    for f in (scenario.f_normal, scenario.f_abnormal):
        z = -(math.log(1.0 / f) + market.drift * market.horizon - chi / n) / np.sqrt(2.0 * chi / n)
        pd.append(binorm_cdf(z, z, n / size, method))
    safe_run = int(np.logical_and.accumulate((pd[1] - pd[0] <= epsilon_safe)[::-1]).sum())
    return size - safe_run + 1 if safe_run else None
