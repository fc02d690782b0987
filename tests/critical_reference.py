"""Critical diversification from the full box, for tests.

delta_phi2 is evaluated at every n in [1, N] of one market, one Phi2 call
per leverage level, and n* is read off a reversed cumulative AND over n.
The z and correlation arithmetic repeats the library's operation for
operation, so the deltas carry the library's bits and a critical level
found any other way must match this one exactly.

``limit_critical`` is n*'s large-market limit, from Phi1 alone.
"""

import math

import numpy as np
from scipy.special import ndtr

from levdiv import binorm_cdf


def full_box_critical(scenario, size, chi, shift, method, epsilon_safe):
    """Smallest n whose suffix [n, N] is safe, or None if n = N is risky,
    for market size N = size at risk constant chi and shift mu T."""
    n = np.arange(1, size + 1, dtype=float)
    pd = []
    for f in (scenario.f_normal, scenario.f_abnormal):
        z = -(math.log(1.0 / f) + shift - chi / n) / np.sqrt(2.0 * chi / n)
        pd.append(binorm_cdf(z, n / size, method))
    safe_run = int(np.logical_and.accumulate((pd[1] - pd[0] <= epsilon_safe)[::-1]).sum())
    return size - safe_run + 1 if safe_run else None


def limit_critical(scenario, chi, n_max, epsilon_safe):
    """n*'s limit as N -> infinity at zero drift: the smallest n whose
    suffix [n, n_max] has delta_inf(n) = Phi(z_a(n))^2 - Phi(z_n(n))^2 <=
    epsilon_safe, or n_max + 1 if n = n_max is above it.  z does not depend
    on N, and rho = n/N -> 0 makes Phi2(z, z, rho) -> Phi(z)^2."""
    n = np.arange(1, n_max + 1, dtype=float)
    limit = []
    for f in (scenario.f_normal, scenario.f_abnormal):
        z = -(math.log(1.0 / f) - chi / n) / np.sqrt(2.0 * chi / n)
        limit.append(ndtr(z) ** 2)
    safe_run = int(np.logical_and.accumulate((limit[1] - limit[0] <= epsilon_safe)[::-1]).sum())
    return n_max - safe_run + 1
