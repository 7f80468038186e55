"""Prime factorisation utilities.

CoSA formulates scheduling as a *prime-factor allocation* problem: every loop
bound is decomposed into its prime factors and each factor is assigned to a
(memory level, spatial/temporal) slot.  These helpers provide the
factorisation, the enumeration of all multiplicative splits (used by the
baseline mappers), and divisor enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod


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


def prime_factor_multiset(value: int) -> dict[int, int]:
    """Return the prime factorisation of ``value`` as ``{prime: multiplicity}``."""
    counts: dict[int, int] = {}
    for factor in factorize(value):
        counts[factor] = counts.get(factor, 0) + 1
    return counts


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


def all_factorizations(value: int, num_parts: int) -> list[tuple[int, ...]]:
    """Enumerate all ordered splits of ``value`` into ``num_parts`` factors.

    Every returned tuple has length ``num_parts`` and its entries multiply to
    ``value``.  This is the per-dimension tiling space explored by the
    brute-force baselines (a factor of 1 means "no tile at this level").
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if num_parts == 1:
        return [(value,)]
    results: list[tuple[int, ...]] = []
    for head in divisors(value):
        for tail in all_factorizations(value // head, num_parts - 1):
            results.append((head,) + tail)
    return results


def product(values) -> int:
    """Integer product of an iterable (empty product is 1)."""
    return prod(values, start=1)
