"""Reference Phi2 by adaptive quadrature, and the bivariate density, for
tests only.

Phi2(a, b, rho) = Phi(a) Phi(b)
    + 1/(2 pi) * int_0^asin(rho) exp(-(a^2 + b^2 - 2 a b sin t) / (2 cos^2 t)) dt

follows from d Phi2 / d rho = binorm_pdf(a, b, rho); the substitution
rho = sin t removes the 1/sqrt(1 - r^2) endpoint singularity, so scipy's
adaptive ``quad`` converges for any |rho| < 1.  Adaptive quadrature of
the same integral is an independent check of the library's fixed
Gauss-Legendre oracle; scipy.integrate is imported here, never by levdiv.
"""

import math

from scipy.integrate import quad
from scipy.special import ndtr

from levdiv import DomainError


def phi2_quad(z1: float, z2: float, rho: float) -> tuple[float, float]:
    """(Phi2(z1, z2, rho), quad's absolute error estimate of the integral
    term, already divided by 2 pi); exact closed forms at rho in {0, +1, -1}."""
    if rho == 0.0:
        return float(ndtr(z1) * ndtr(z2)), 0.0
    if rho == 1.0:
        return float(ndtr(min(z1, z2))), 0.0
    if rho == -1.0:
        return max(0.0, float(ndtr(z1) + ndtr(z2) - 1.0)), 0.0

    def integrand(t: float) -> float:
        s = math.sin(t)
        c2 = math.cos(t) ** 2
        return math.exp(-(z1 * z1 + z2 * z2 - 2.0 * z1 * z2 * s) / (2.0 * c2))

    tail, abserr = quad(integrand, 0.0, math.asin(rho), epsabs=1e-13, limit=200)
    val = float(ndtr(z1) * ndtr(z2)) + tail / (2.0 * math.pi)
    return min(1.0, max(0.0, val)), abserr / (2.0 * math.pi)


def binorm_pdf(z1: float, z2: float, rho: float) -> float:
    """Standard bivariate normal density at (z1, z2) with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise DomainError("binorm_pdf requires finite coordinates")
    if abs(rho) >= 1.0:
        raise DomainError(
            "density is degenerate at |rho| = 1; use the closed-form CDF cases"
        )
    omr2 = 1.0 - rho * rho
    # grouping keeps the value bitwise symmetric under (z1, z2) swap
    q = (z1 * z1 + z2 * z2) - 2.0 * rho * (z1 * z2)
    return math.exp(-q / (2.0 * omr2)) / (2.0 * math.pi * math.sqrt(omr2))
