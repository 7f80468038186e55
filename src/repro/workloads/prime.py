"""Prime factorisation utilities.

CoSA formulates scheduling as a *prime-factor allocation* problem: every loop
bound is decomposed into its prime factors and each factor is assigned to a
(memory level, spatial/temporal) slot.  These helpers provide the
factorisation and divisor enumeration.
"""

from __future__ import annotations

from functools import lru_cache


def factorize(value: int) -> list[int]:
    """Return the prime factors of ``value`` in non-decreasing order.

    ``factorize(1)`` returns an empty list; ``factorize(12)`` returns
    ``[2, 2, 3]``.  Raises :class:`ValueError` for non-positive input.
    """
    if value < 1:
        raise ValueError(f"can only factorize positive integers, got {value}")
    factors: list[int] = []
    remaining = value
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return factors


@lru_cache(maxsize=4096)
def divisors(value: int) -> tuple[int, ...]:
    """Return all positive divisors of ``value`` in increasing order."""
    if value < 1:
        raise ValueError(f"divisors requires a positive integer, got {value}")
    small: list[int] = []
    large: list[int] = []
    candidate = 1
    while candidate * candidate <= value:
        if value % candidate == 0:
            small.append(candidate)
            if candidate != value // candidate:
                large.append(value // candidate)
        candidate += 1
    return tuple(small + large[::-1])
