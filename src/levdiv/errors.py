"""Exception types and the integer-count check shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class DegenerateCorrelationError(DomainError):
    """Correlation too close to +/-1 for the requested numerical method."""


class StrategyMarketMismatchError(DomainError):
    """Bank strategy is incompatible with the market it is evaluated against."""


class ConfigError(ValueError):
    """Invalid discretization or run configuration."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool (True would count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)
