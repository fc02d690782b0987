"""The leverage differential as one integral, for tests.

On the diagonal, d/dz Phi2(z, z, rho) = 2 phi(z) Phi(z sqrt((1 - rho) /
(1 + rho))), so

    delta_phi2 = integral from z_n to z_a of 2 phi(z) Phi(z sqrt((1 - rho) / (1 + rho))) dz,

one smooth integrand with no difference of two Phi2 values and no branch
at rho -> 1 (at rho = 1 it is Phi(z_a) - Phi(z_n)).  The integral is taken
by a 24-node Gauss-Legendre rule on pieces of [z_n, z_a] no wider than 1,
with z clipped to +/-40, past which the integrand is below 1e-340.  The z
formula and Phi (scipy's ``ndtr``) are this module's own, not the
library's.
"""

import math

import numpy as np
from scipy.special import ndtr

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_Z_CLIP = 40.0
_PIECE = 1.0


def z_threshold(f, n, chi, drift=0.0, horizon=1.0):
    """z = -(ln(1/f) + mu T - chi/n) / sqrt(2 chi/n); arrays broadcast."""
    n = np.asarray(n, dtype=float)
    return -(np.log(1.0 / np.asarray(f, dtype=float)) + drift * horizon - chi / n) / np.sqrt(2.0 * chi / n)


def reference_delta(f_normal, f_abnormal, n, market_size, chi, drift=0.0):
    """delta_phi2 at the cells (n, N, chi, mu) at T = 1, for the leverage
    move f_normal -> f_abnormal; all arguments are arrays that broadcast."""
    n, size, chi = np.broadcast_arrays(
        np.asarray(n, dtype=float), np.asarray(market_size, dtype=float), np.asarray(chi, dtype=float)
    )
    lo = np.clip(z_threshold(f_normal, n, chi, drift), -_Z_CLIP, _Z_CLIP)
    hi = np.clip(z_threshold(f_abnormal, n, chi, drift), -_Z_CLIP, _Z_CLIP)
    rho = n / size
    slope = np.sqrt((1.0 - rho) / (1.0 + rho))
    pieces = np.maximum(np.ceil((hi - lo) / _PIECE), 1.0)
    width = (hi - lo) / pieces
    total = np.zeros(lo.shape)
    for p in range(int(pieces.max(initial=1.0))):
        a = lo + p * width
        z = (a + width / 2.0)[..., None] + (width / 2.0)[..., None] * _NODES
        f = 2.0 * np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi) * ndtr(z * slope[..., None])
        total += np.where(p < pieces, (f * _WEIGHTS).sum(-1) * width / 2.0, 0.0)
    return total
