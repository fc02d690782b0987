"""Single-bank Merton quantities, the overlap-induced asset correlation and
the joint default probability under random project selection.

A bank with debt-to-asset ratio f holding n equally weighted projects out
of a pool of N defaults at horizon T when its asset value falls to or
below its debt.  Under the rebalanced-portfolio dynamics the default
probability is Phi1(z) with

    z = -(ln(1/f) + mu T - chi/n) / sqrt(2 chi / n),   chi = sigma^2 T / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StrategyMarketMismatchError
from .gaussian import binorm_cdf, phi1

_F_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class MarketParams:
    """Shared market environment: N projects, GBM drift/volatility, horizon."""

    market_size: int
    sigma: float
    horizon: float = 1.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.market_size, int) or self.market_size < 1:
            raise DomainError(f"market_size must be an integer >= 1, got {self.market_size!r}")
        for name in ("sigma", "horizon", "drift"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        # sigma = 0 is allowed as the deterministic price limit; the analytic
        # operations below require chi > 0 and reject it there.
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        if self.horizon <= 0.0:
            raise DomainError(f"horizon must be > 0, got {self.horizon}")

    @property
    def chi(self) -> float:
        """Market risk constant sigma^2 T / 2."""
        return 0.5 * self.sigma**2 * self.horizon

    @classmethod
    def from_chi(cls, market_size: int, chi: float, drift: float = 0.0) -> "MarketParams":
        """Canonical (sigma, T) representation of a chi-only parameterization:
        T = 1, sigma = sqrt(2 chi)."""
        if not math.isfinite(chi) or chi < 0.0:
            raise DomainError(f"chi must be finite and >= 0, got {chi!r}")
        return cls(market_size=market_size, sigma=math.sqrt(2.0 * chi), horizon=1.0, drift=drift)

    def with_drift(self, drift: float) -> "MarketParams":
        return replace(self, drift=drift)


@dataclass(frozen=True)
class BankStrategy:
    """One bank's choice of leverage f in (0,1) and diversification count n."""

    leverage: float
    diversification: int

    def __post_init__(self) -> None:
        f = self.leverage
        if not math.isfinite(f) or f <= _F_BOUNDARY_TOL or f >= 1.0 - _F_BOUNDARY_TOL:
            raise DomainError(
                f"leverage must lie strictly inside (0, 1), got {f!r}"
            )
        if not isinstance(self.diversification, int) or self.diversification < 1:
            raise DomainError(
                f"diversification must be an integer >= 1, got {self.diversification!r}"
            )


def _check_pair(strategy: BankStrategy, market: MarketParams) -> None:
    if strategy.diversification > market.market_size:
        raise StrategyMarketMismatchError(
            f"diversification {strategy.diversification} exceeds market size "
            f"{market.market_size}"
        )


def z_score(strategy: BankStrategy, market: MarketParams) -> float:
    """Default threshold in standard-normal units."""
    _check_pair(strategy, market)
    chi = market.chi
    if chi <= 0.0:
        raise DomainError("z_score requires chi > 0 (sigma > 0 and T > 0)")
    n = strategy.diversification
    num = math.log(1.0 / strategy.leverage) + market.drift * market.horizon - chi / n
    return -num / math.sqrt(2.0 * chi / n)


def individual_pd(strategy: BankStrategy, market: MarketParams) -> float:
    """Probability that the bank's assets at T are at or below its debt."""
    return phi1(z_score(strategy, market))


def asset_correlation(n: int, market: MarketParams) -> float:
    """Portfolio-return correlation n/N between two banks that each hold n
    of the N available projects."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if n > market.market_size:
        raise DomainError(
            f"n={n} exceeds market size {market.market_size}"
        )
    return n / market.market_size


def random_overlap_joint_pd(strategy: BankStrategy, market: MarketParams) -> float:
    """Joint default probability of two banks that each draw their n
    projects at random: sum_k P(K = k) Phi2(z, z, k/n), the overlap K being
    hypergeometric(N, n, n).  Phi2 at the mean correlation n/N (the paper's
    value, ``analysis.systemic_pd``) is lower, because Phi2(z, z, rho) is
    convex in rho on [0, 1]."""
    z = z_score(strategy, market)
    n, size = strategy.diversification, market.market_size
    ks = range(max(0, 2 * n - size), n + 1)
    pmf = [math.comb(n, k) * math.comb(size - n, n - k) / math.comb(size, n) for k in ks]
    return float((np.array(pmf) * binorm_cdf(z, z, np.array(ks) / n)).sum())
