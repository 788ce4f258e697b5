"""Partitions and multiplicity profiles of singular-number tuples.

A Partition holds weakly decreasing positive parts; its tail counts
X_i = #{j : part_j >= i} are the natural state variable of the sampling
chains (l_i = X_i - X_{i+1} recovers the multiplicities).  An LProfile is
the two-sided analogue for a finite tuple with parts of any sign:
multiplicities l_i over i in Z with sum N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


def _conjugate(xs) -> tuple:
    """Conjugate of a weakly decreasing sequence of positive integers: entry
    j is the number of terms >= j, for j = 1..xs[0]; one pass from the
    smallest term up."""
    out = []
    count = len(xs)
    for x in reversed(xs):
        out.extend([count] * (x - len(out)))
        count -= 1
    return tuple(out)


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive integers (possibly empty)."""

    parts: tuple

    def __post_init__(self):
        for i, part in enumerate(self.parts):
            if not isinstance(part, int) or part < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts}")
            if i and part > self.parts[i - 1]:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")

    @classmethod
    def from_tail_counts(cls, tail_counts: Iterable[int]) -> "Partition":
        """Rebuild from X_1, X_2, ... (trailing zeros optional)."""
        xs = list(tail_counts)
        while xs and xs[-1] == 0:
            xs.pop()
        for i, x in enumerate(xs):
            if x < 1 or (i and x > xs[i - 1]):
                raise ValueError(f"tail counts must decrease weakly to 0, got {xs}")
        return cls(_conjugate(xs))

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def tail_counts(self) -> tuple:
        """(X_1, ..., X_{largest}), X_i the number of parts >= i; empty for
        the empty partition."""
        return _conjugate(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_in_box(max_parts: int, max_part: int):
    """All partitions with at most max_parts parts, each <= max_part.

    Each partition is generated exactly once (its parts spell out the
    unique recursion path), in a fixed deterministic order.
    """
    def rec(slots, cap):
        yield ()
        if slots == 0:
            return
        for first in range(cap, 0, -1):
            for rest in rec(slots - 1, first):
                yield (first,) + rest

    for parts in rec(max_parts, max_part):
        yield Partition(parts)


@dataclass(frozen=True)
class LProfile:
    """Multiplicities l_i over i in Z of a finite weakly decreasing tuple."""

    mult: tuple  # sorted ((i, l_i), ...) with l_i > 0

    def __post_init__(self):
        prev = None
        for i, l in self.mult:
            if l <= 0:
                raise ValueError(f"multiplicities must be positive, got {self.mult}")
            if prev is not None and i <= prev:
                raise ValueError(f"indices must be strictly increasing, got {self.mult}")
            prev = i

    @classmethod
    def from_multiplicities(cls, mult: Mapping[int, int]) -> "LProfile":
        return cls(tuple(sorted((i, l) for i, l in mult.items() if l)))

    @classmethod
    def from_singular_values(cls, values: Iterable[int]) -> "LProfile":
        counts: dict = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls.from_multiplicities(counts)

    @property
    def total(self) -> int:
        """N = sum of all multiplicities."""
        return sum(l for _, l in self.mult)

    def __repr__(self):
        return f"LProfile({dict(self.mult)})"
