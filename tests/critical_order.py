"""Order-comparable encoding of critical diversification levels, for tests."""


def effective_critical(n_star: int | None, market_size: int) -> int:
    """Encode a critical level so levels compare by order: "no safe level"
    sorts above every feasible level as market_size + 1."""
    return market_size + 1 if n_star is None else n_star
