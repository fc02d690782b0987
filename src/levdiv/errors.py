"""The package's two error contracts, DomainError (an input outside an
operation's mathematical domain) and ConfigError (an invalid run or
discretization setting), and its integer-count check."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """Invalid discretization or run configuration."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool (True would count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)
