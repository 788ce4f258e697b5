"""Exact q-series primitives.

Finite q-Pochhammer symbols (a; q)_n = prod_{j=0}^{n-1} (1 - a*q^j) are
computed as exact rationals.  The infinite product (a; q)_oo is returned as a
certified rational bracket [lower, upper] whose width is controlled by the
caller.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Bracket:
    """Closed rational interval certified to contain a real value.

    Width guarantees are documented by the producing operation; every
    arithmetic operation below is outward-correct (the result bracket
    contains every possible combination of points from the operands).
    """

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"empty bracket: [{self.lower}, {self.upper}]")

    @classmethod
    def exact(cls, value: Rational) -> "Bracket":
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def overlaps(self, other: "Bracket") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper

    def __add__(self, other):
        o = _as_bracket(other)
        return Bracket(self.lower + o.lower, self.upper + o.upper)

    __radd__ = __add__

    def __neg__(self):
        return Bracket(-self.upper, -self.lower)

    def __sub__(self, other):
        return self + (-_as_bracket(other))

    def __rsub__(self, other):
        return _as_bracket(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Bracket):
            # An exact scalar keeps the endpoints' order when it is >= 0
            # and swaps them when it is negative.
            s = _as_fraction(other)
            if s >= 0:
                return Bracket(self.lower * s, self.upper * s)
            return Bracket(self.upper * s, self.lower * s)
        products = (self.lower * other.lower, self.lower * other.upper,
                    self.upper * other.lower, self.upper * other.upper)
        return Bracket(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self):
        if self.lower >= 0:
            return self
        if self.upper <= 0:
            return -self
        return Bracket(Fraction(0), max(-self.lower, self.upper))

    def __float__(self):
        return float(self.midpoint)

    def __repr__(self):
        return f"Bracket({self.lower}, {self.upper})"


def _as_bracket(value) -> Bracket:
    if isinstance(value, Bracket):
        return value
    return Bracket.exact(value)


def _as_fraction(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


# Prefix products (a;q)_0, (a;q)_1, ... per (a, q), keyed by the four ints
# of a and q: hashing ints is much cheaper than hashing two Fractions.
_POCHHAMMER_CACHE: dict = {}


def pochhammer(a: Rational, q: Rational, n: int) -> Fraction:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - a*q^j), exactly; (a; q)_0 = 1."""
    if n < 0:
        raise ValueError(f"pochhammer length must be >= 0, got {n}")
    a, q = _as_fraction(a), _as_fraction(q)
    key = (a.numerator, a.denominator, q.numerator, q.denominator)
    prefix = _POCHHAMMER_CACHE.get(key)
    if prefix is None:
        prefix = _POCHHAMMER_CACHE[key] = [Fraction(1)]
    while len(prefix) <= n:
        j = len(prefix) - 1
        prefix.append(prefix[-1] * (1 - a * q**j))
    return prefix[n]


def truncation_order(a: Rational, q: Rational, eps: Rational) -> int:
    """Smallest K with a*q^K/(1-q) <= min(eps, 1/2).

    The geometric tail bound sum_{j>=K} a*q^j = a*q^K/(1-q) controls the
    infinite-product remainder via prod_{j>=K}(1 - a*q^j) >= 1 - a*q^K/(1-q).
    Requires q < 1.
    """
    a, q, eps = _as_fraction(a), _as_fraction(q), _as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if q >= 1:
        raise ValueError(f"need q < 1 for a geometric tail, got q = {q}")
    target = min(eps, Fraction(1, 2))
    # With every denominator positive (1 - q = (qd - qn)/qd > 0),
    # a q^K/(1-q) > target  iff  an qn^K qd td > tn ad qd^K (qd - qn):
    # two integer products stepped by qn and qd, and no gcd per step.
    qn, qd = q.numerator, q.denominator
    lhs = a.numerator * qd * target.denominator
    rhs = target.numerator * a.denominator * (qd - qn)
    k = 0
    while lhs > rhs:
        lhs *= qn
        rhs *= qd
        k += 1
    return k


# Brackets of (a;q)_oo per truncation order, keyed by the ints of a, q and
# K: the bracket depends on eps only through K, and many eps share one K.
_POCHHAMMER_INF_CACHE: dict = {}


def pochhammer_inf(a: Rational, q: Rational, eps: Rational) -> Bracket:
    """Certified bracket of width <= eps around (a; q)_oo.

    Requires 0 <= a < 1 and 0 < q < 1.  Truncates at K given by
    truncation_order and brackets the tail by
    1 - a*q^K/(1-q) <= prod_{j>=K}(1 - a*q^j) <= 1.
    """
    a, q = _as_fraction(a), _as_fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"need 0 < q < 1, got q = {q}")
    if a < 0 or a >= 1:
        raise ValueError(f"need 0 <= a < 1 for a convergent positive product, got a = {a}")
    if a == 0:
        return Bracket.exact(1)
    k = truncation_order(a, q, eps)
    key = (a.numerator, a.denominator, q.numerator, q.denominator, k)
    bracket = _POCHHAMMER_INF_CACHE.get(key)
    if bracket is None:
        head = pochhammer(a, q, k)
        tail_lower = 1 - a * q**k / (1 - q)
        bracket = _POCHHAMMER_INF_CACHE[key] = Bracket(head * tail_lower, head)
    return bracket
