"""Leverage, diversification and joint bank default probabilities.

Analytic core: individual default probability Phi1(z), systemic (joint)
default probability Phi2(z, z, n/N), the leverage-increase differential,
critical diversification levels and regime sweeps.  A brute-force Monte
Carlo simulator of rebalanced GBM portfolios serves as an independent
cross-check of the analytic pipeline.
"""

from .analysis import (
    EPSILON_SAFE,
    LeverageScenario,
    SweepResult,
    critical_diversification,
    default_chi_grid,
    delta_phi2,
    mu_sensitivity,
    regime_sweep,
)
from .errors import DomainError
from .gaussian import (
    DEFAULT_GRID,
    CdfGrid,
    GridSpec,
    binorm_cdf,
    binorm_cdf_oracle,
    phi1,
    tabulate_cdf_grid,
)
from .merton import (
    BankStrategy,
    FixedOverlap,
    MarketParams,
    RandomSelection,
    asset_correlation,
    individual_pd,
    systemic_pd,
    z_score,
)
from .simulate import (
    SimConfig,
    SimResult,
    estimate_default_probs,
    path_rng,
)

__version__ = "0.1.0"

__all__ = [
    "BankStrategy",
    "CdfGrid",
    "DEFAULT_GRID",
    "DomainError",
    "EPSILON_SAFE",
    "FixedOverlap",
    "GridSpec",
    "LeverageScenario",
    "MarketParams",
    "RandomSelection",
    "SimConfig",
    "SimResult",
    "SweepResult",
    "asset_correlation",
    "binorm_cdf",
    "binorm_cdf_oracle",
    "critical_diversification",
    "default_chi_grid",
    "delta_phi2",
    "estimate_default_probs",
    "individual_pd",
    "mu_sensitivity",
    "path_rng",
    "phi1",
    "regime_sweep",
    "systemic_pd",
    "tabulate_cdf_grid",
    "z_score",
]
