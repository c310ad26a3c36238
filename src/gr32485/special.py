"""The central binomial ratio feeding the series expansions."""

from __future__ import annotations

__all__ = ["central_binomial_ratio"]


def central_binomial_ratio(n: int) -> float:
    """binom(2n, n) / 4**n, accumulated as prod(1 - 1/(2j)) to avoid overflow."""
    if n < 0:
        raise ValueError("central_binomial_ratio: n must be nonnegative")
    value = 1.0
    for j in range(1, n + 1):
        value *= 1.0 - 0.5 / j
    return value
