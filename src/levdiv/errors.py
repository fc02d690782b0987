"""The package's one refusal contract, DomainError, and its integer-count
check."""


class DomainError(ValueError):
    """An input, setting or configuration that an operation refuses."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool (True would count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)
