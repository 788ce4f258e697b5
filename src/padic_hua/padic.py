"""Primes, p-adic valuations and the default precision window.

Every p-adic quantity in the package is a stack of residue matrices (see
the matrix module): p^-shift times integers known modulo p^digits, with
singular numbers read off as integer arrays with per-matrix floors.
This module holds what that model shares: prime validation, valuations
of integers, the exception raised when a computation runs out of
certified digits, and the default window.
"""

from __future__ import annotations

from functools import lru_cache

MAX_PRIME = 2**31


class PrecisionExhausted(ArithmeticError):
    """An operation ran out of certified p-adic digits."""


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    """Validate p as a prime in [2, 2^31]; returns p."""
    if not isinstance(p, int) or p < 2 or p > MAX_PRIME:
        raise ValueError(f"prime must be an integer in [2, {MAX_PRIME}], got {p!r}")
    if p in (2, 3):
        return p
    if p % 2 == 0 or p % 3 == 0:
        raise ValueError(f"{p} is not prime")
    # Deterministic Miller-Rabin; these bases suffice far beyond 2^31.
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if base % p == 0:
            continue
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")
    return p


def int_valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n; requires n != 0.

    At p = 2 it counts trailing zero bits.  Otherwise it divides by
    p^(2^j) for j from the largest that divides n down to 0, so a valuation
    v costs O(log v) big-integer divisions, not v of them.
    """
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:  # the trailing zero bits
        return (n & -n).bit_length() - 1
    powers = [p]
    while n % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    v = 0
    for j in range(len(powers) - 2, -1, -1):
        q, r = divmod(n, powers[j])
        if not r:
            n = q
            v += 1 << j
    return v


# Default working window: digits of absolute precision, and the guard
# digits that are not trusted when certifying singular numbers (see the
# matrix module's floor convention).
DIGITS = 24
GUARD = 8
