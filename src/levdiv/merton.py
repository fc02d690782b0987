"""Single-bank Merton quantities, the overlap-induced asset correlation and
the joint default probability of two banks.

A bank with debt-to-asset ratio f holding n equally weighted projects out
of a pool of N defaults at horizon T when its asset value falls to or
below its debt.  Under the rebalanced-portfolio dynamics the default
probability is Phi1(z) with

    z = -(ln(1/f) + mu T - chi/n) / sqrt(2 chi / n),   chi = sigma^2 T / 2.

Two banks that each hold n projects, k of them shared, have book returns
with correlation k/n (``correlation_law``) and joint PD Phi2(z, z, k/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_int
from .gaussian import binorm_cdf, phi1

_F_BOUNDARY_TOL = 1e-12


def check_leverage(name: str, f: float) -> None:
    """The one leverage rule, for a bank and for a scenario: f must lie
    more than _F_BOUNDARY_TOL inside (0, 1)."""
    if not math.isfinite(f) or f <= _F_BOUNDARY_TOL or f >= 1.0 - _F_BOUNDARY_TOL:
        raise DomainError(f"{name} must lie in ({_F_BOUNDARY_TOL}, 1 - {_F_BOUNDARY_TOL}), got {f!r}")


def check_chi(chi: float) -> None:
    """The one risk-constant rule of an analytic cell: chi = sigma^2 T / 2 > 0."""
    if not chi > 0.0:
        raise DomainError(f"an analytic cell needs chi > 0 (sigma > 0 and T > 0), got chi={chi!r}")


@dataclass(frozen=True)
class MarketParams:
    """Shared market environment: N projects, the risk constant
    chi = sigma^2 T / 2, the horizon T and the GBM drift."""

    market_size: int
    chi: float
    horizon: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if not is_int(self.market_size) or self.market_size < 1:
            raise DomainError(f"market_size must be an integer >= 1, got {self.market_size!r}")
        for name in ("chi", "horizon", "drift"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.horizon <= 0.0:
            raise DomainError(f"horizon must be > 0, got {self.horizon}")
        # chi = 0 (sigma = 0) is allowed as the deterministic price limit; the
        # analytic operations below require chi > 0 and reject it there.
        if self.chi < 0.0:
            raise DomainError(f"chi must be >= 0, got {self.chi}")

    @property
    def sigma(self) -> float:
        """Project volatility sqrt(2 chi / T)."""
        return math.sqrt(2.0 * self.chi / self.horizon)

    @classmethod
    def from_chi(cls, market_size: int, chi: float, drift: float = 0.0) -> "MarketParams":
        """A market at risk constant chi with T = 1, so sigma = sqrt(2 chi)."""
        return cls(market_size, chi, drift=drift)

    @classmethod
    def from_sigma(cls, market_size: int, sigma: float, horizon: float = 1.0, drift: float = 0.0) -> "MarketParams":
        """A market with project volatility sigma over horizon T, stored as
        chi = sigma^2 T / 2."""
        if not math.isfinite(sigma) or sigma < 0.0:
            raise DomainError(f"sigma must be finite and >= 0, got {sigma!r}")
        return cls(market_size, 0.5 * sigma * sigma * horizon, horizon, drift)


@dataclass(frozen=True)
class BankStrategy:
    """One bank's choice of leverage f in (0,1) and diversification count n."""

    leverage: float
    diversification: int

    def __post_init__(self) -> None:
        check_leverage("leverage", self.leverage)
        if not is_int(self.diversification) or self.diversification < 1:
            raise DomainError(
                f"diversification must be an integer >= 1, got {self.diversification!r}"
            )


@dataclass(frozen=True)
class FixedOverlap:
    """The two banks share exactly `shared` projects."""

    shared: int


@dataclass(frozen=True)
class RandomSelection:
    """Each bank draws its projects uniformly without replacement, per path."""


OverlapMode = FixedOverlap | RandomSelection


def check_overlap(overlap: OverlapMode | None, n: int, market_size: int) -> None:
    """The one book-size and overlap rule, for two books of n of the N projects (None: the mean)."""
    if n > market_size:
        raise DomainError(f"diversification {n} exceeds market size {market_size}")
    if isinstance(overlap, FixedOverlap):
        k, lo = overlap.shared, max(0, 2 * n - market_size)
        if not is_int(k) or not lo <= k <= n:
            raise DomainError(f"shared project count {k!r} must lie in [{lo}, {n}] for n={n}, N={market_size}")
    elif not isinstance(overlap, RandomSelection | None):
        raise DomainError(f"unknown overlap mode {overlap!r}")


def z_cells(f, n, chi, shift):
    """Default threshold z = -(ln(1/f) + shift - q) / sqrt(2 q), q = chi/n and
    shift = mu T, at cells given as arrays that broadcast.  ln(1/f) is
    libm's ``math.log(1.0 / f)``, once per entry of f: numpy's log and
    -log(f) differ from it in the last bit for some leverages.  Where 2 q
    overflows, sqrt(2 q) is sqrt(2) sqrt(q).  A non-finite z is a DomainError."""
    log = np.array([math.log(1.0 / x) for x in np.ravel(f).tolist()]).reshape(np.shape(f))
    with np.errstate(all="ignore"):
        q = chi / np.asarray(n, dtype=float)
        z = -(log + shift - q) / np.where(np.isinf(2.0 * q), math.sqrt(2.0) * np.sqrt(q), np.sqrt(2.0 * q))
    if not np.isfinite(z).all():
        cell = [np.broadcast_to(x, z.shape)[~np.isfinite(z)][0].item() for x in (f, n, chi, shift)]
        raise DomainError("z is not finite at f={!r}, n={!r}, chi={!r}, shift={!r}".format(*cell))
    return z


def z_score(strategy: BankStrategy, market: MarketParams) -> float:
    """Default threshold in standard-normal units: ``z_cells`` at one cell."""
    check_overlap(None, strategy.diversification, market.market_size)
    check_chi(market.chi)
    return float(z_cells(strategy.leverage, strategy.diversification, market.chi, market.drift * market.horizon))


def individual_pd(strategy: BankStrategy, market: MarketParams) -> float:
    """Probability that the bank's assets at T are at or below its debt."""
    return phi1(z_score(strategy, market))


def correlation_law(n, market_size: int, overlap: OverlapMode | None = None):
    """Support and weights of the correlation k/n of two books of n of the N
    projects that share k: with no overlap, the paper's mean n/N as a point
    mass (n may be an array); k/n for ``FixedOverlap(k)``; and under
    ``RandomSelection`` the hypergeometric(N, n, n) law of K."""
    if overlap is None:
        return n / market_size, 1.0
    check_overlap(overlap, n, market_size)
    if isinstance(overlap, FixedOverlap):
        return overlap.shared / n, 1.0
    ks = np.arange(max(0, 2 * n - market_size), n + 1)
    pmf = [math.comb(n, k) * math.comb(market_size - n, n - k) / math.comb(market_size, n) for k in ks.tolist()]
    return ks / n, np.array(pmf)


def asset_correlation(n: int, market: MarketParams) -> float:
    """Portfolio-return correlation n/N between two banks that each hold n
    of the N available projects."""
    if not is_int(n) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    check_overlap(None, n, market.market_size)
    return correlation_law(n, market.market_size)[0]


def systemic_pd(
    strategy: BankStrategy, market: MarketParams, method: str = "oracle", overlap: OverlapMode | None = None
) -> float:
    """Joint default probability of two banks using the same strategy on the
    same market: Phi2(z, z, rho) averaged over ``correlation_law``.  With no
    overlap that is the paper's Phi2(z, z, n/N).  Under ``RandomSelection``
    the hypergeometric mixture is at least that, by Jensen's inequality,
    because Phi2(z, z, rho) is convex in rho on [0, 1]."""
    z = z_score(strategy, market)
    rho, weight = correlation_law(strategy.diversification, market.market_size, overlap)
    return float(np.sum(weight * binorm_cdf(z, rho, method)))
