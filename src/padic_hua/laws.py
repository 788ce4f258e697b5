"""Exact probability laws on singular numbers and partitions.

Every finite formula here is an exact rational in p and t, where the
deformation parameter t in (0, p) packages the exponent s through
t = p^-s (all s-dependence of the finite laws enters as powers of p^-s).
Quantities involving an infinite q-Pochhammer come back as certified
Brackets instead.

Notation used throughout: q = 1/p and a = t/p = p^-(1+s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Union

from .padic import check_prime
from .partitions import LProfile, Partition, partitions_in_box
from .qseries import Bracket, pochhammer, pochhammer_inf

Mass = Union[Fraction, Bracket]


@dataclass(frozen=True)
class HuaParams:
    """Prime p and exact deformation parameter t = p^-s with s > -1."""

    p: int
    t: Fraction

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 < self.t < self.p:
            raise ValueError(f"need 0 < t < p, got t = {self.t}, p = {self.p}")

    @property
    def q(self) -> Fraction:
        return Fraction(1, self.p)

    @property
    def a(self) -> Fraction:
        """p^-(1+s) = t/p, the second Pochhammer base."""
        return self.t / self.p

    def with_s_zero(self) -> "HuaParams":
        """The undeformed parameters (t = 1) at the same p."""
        return _s_zero(self.p)

    def s_exponent(self):
        """Integer s with t = p^-s, or None if t is not a power of p."""
        num, den = self.t.numerator, self.t.denominator
        if num == 1:
            s = 0
            while den > 1:
                if den % self.p:
                    return None
                den //= self.p
                s += 1
            return s
        if den == 1:
            s = 0
            while num > 1:
                if num % self.p:
                    return None
                num //= self.p
                s -= 1
            return s
        return None


@lru_cache(maxsize=None)
def _s_zero(p: int) -> HuaParams:
    """HuaParams(p, 1), built once per prime: the chain samplers ask for it
    on every draw."""
    return HuaParams(p, Fraction(1))


def _singular_values(k) -> tuple:
    """Coerce to exact weakly decreasing ints; marked tuples are rejected."""
    if hasattr(k, "exact_values"):
        return tuple(k.exact_values())
    vals = tuple(int(v) for v in k)
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(f"not weakly decreasing: {vals}")
    return vals


def _normalization(hp: HuaParams, n: int) -> Fraction:
    """(a; q)_n^2 / (a; q)_2n."""
    return pochhammer(hp.a, hp.q, n) ** 2 / pochhammer(hp.a, hp.q, 2 * n)


# -- Markov kernel and its fixed laws ---------------------------------------


def kernel_p(hp: HuaParams, x1: int, x2: int) -> Fraction:
    """One-step transition mass from x1 to x2 (zero outside 0 <= x2 <= x1).

    P(x1, x2) = p^(-x2^2) t^x2 (q;q)_x1 (a;q)_x1
                / [(q;q)_x2 (q;q)_(x1-x2) (a;q)_x2].
    """
    if x1 < 0:
        raise ValueError(f"need x1 >= 0, got {x1}")
    if not 0 <= x2 <= x1:
        return Fraction(0)
    q, a = hp.q, hp.a
    num = Fraction(1, hp.p ** (x2 * x2)) * hp.t**x2 \
        * pochhammer(q, q, x1) * pochhammer(a, q, x1)
    den = pochhammer(q, q, x2) * pochhammer(q, q, x1 - x2) * pochhammer(a, q, x2)
    return num / den


def kernel_row(hp: HuaParams, x1: int) -> tuple:
    """The full row (P(x1, 0), ..., P(x1, x1)); sums to 1 exactly."""
    return tuple(kernel_p(hp, x1, x2) for x2 in range(x1 + 1))


def pi_s_prefactor(hp: HuaParams, x: int) -> Fraction:
    return Fraction(1, hp.p ** (x * x)) * hp.t**x \
        / (pochhammer(hp.q, hp.q, x) * pochhammer(hp.a, hp.q, x))


def pi_s_bracket(hp: HuaParams, x: int, eps) -> Bracket:
    """Certified bracket of the limiting entrance law at x:

    pi(x) = p^(-x^2) t^x (a;q)_oo / [(q;q)_x (a;q)_x].
    """
    if x < 0:
        return Bracket.exact(0)
    pre = pi_s_prefactor(hp, x)
    return pochhammer_inf(hp.a, hp.q, Fraction(eps) / pre) * pre


def pi_s_tail_bound(hp: HuaParams, x0: int, eps=Fraction(1, 10**9)) -> Fraction:
    """Rational upper bound for sum_{x >= x0} pi(x), valid for x0 >= 1.

    Uses pi(x) <= p^(-x^2) t^x / (q;q)_oo and a geometric comparison
    (consecutive terms shrink by t/p^(2x+1) < 1/4).
    """
    if x0 < 1:
        raise ValueError(f"tail bound needs x0 >= 1, got {x0}")
    qq_lower = pochhammer_inf(hp.q, hp.q, eps).lower
    first = Fraction(1, hp.p ** (x0 * x0)) * hp.t**x0 / qq_lower
    ratio = hp.t / hp.p ** (2 * x0 + 1)
    return first / (1 - ratio)


# -- finite-N entrance laws --------------------------------------------------


def pi_n(hp: HuaParams, n: int, x: int) -> Fraction:
    """Entrance mass at x in [0, n] for the two-sided chain started at the
    count of nonpositive singular numbers; zero outside the range.

    pi_n(x) = (a;q)_n^2 (q;q)_n^2 p^(-(n-x)^2) t^(n-x)
              / [(a;q)_2n (q;q)_x^2 (q;q)_(n-x) (a;q)_(n-x)].
    """
    if not 0 <= x <= n:
        return Fraction(0)
    q, a = hp.q, hp.a
    num = _normalization(hp, n) * pochhammer(q, q, n) ** 2 \
        * Fraction(1, hp.p ** ((n - x) * (n - x))) * hp.t ** (n - x)
    den = pochhammer(q, q, x) ** 2 * pochhammer(q, q, n - x) * pochhammer(a, q, n - x)
    return num / den


def tilde_pi_n(hp: HuaParams, n: int, x: int) -> Fraction:
    """Companion entrance law for the chain started at the count of
    nonnegative singular numbers.

    tilde_pi_n(x) = (a;q)_n^2 (q;q)_n^2 p^(-(n-x)^2)
                    / [(a;q)_2n (q;q)_x (a;q)_x (q;q)_(n-x)^2].
    """
    if not 0 <= x <= n:
        return Fraction(0)
    q, a = hp.q, hp.a
    num = _normalization(hp, n) * pochhammer(q, q, n) ** 2 \
        * Fraction(1, hp.p ** ((n - x) * (n - x)))
    den = pochhammer(q, q, x) * pochhammer(a, q, x) * pochhammer(q, q, n - x) ** 2
    return num / den


# -- the singular-number law in its four equivalent forms --------------------


def m_n_direct(hp: HuaParams, k) -> Fraction:
    """Mass of the singular-number tuple k under the size-N matrix law:

    norm * p^(-(s+2N) sum_{k_j>0} k_j - sum_j (2j-2N-1) k_j)
         * (q;q)_N^2 / prod_i (q;q)_{l_i}.
    """
    vals = _singular_values(k)
    n = len(vals)
    q = hp.q
    g = sum(v for v in vals if v > 0)
    b = sum((2 * j - 2 * n - 1) * kj for j, kj in enumerate(vals, 1))
    profile = LProfile.from_singular_values(vals)
    mult_prod = Fraction(1)
    for _, l in profile.mult:
        mult_prod *= pochhammer(q, q, l)
    return (_normalization(hp, n)
            * hp.t**g * Fraction(hp.p) ** (-2 * n * g)
            * Fraction(hp.p) ** (-b)
            * pochhammer(q, q, n) ** 2 / mult_prod)


def m_n_profile(hp: HuaParams, profile: LProfile) -> Fraction:
    """Same mass written purely in the multiplicities:

    norm * (q;q)_N^2 * t^(sum_j j l_j)
         * p^(-sum_{i>=1} (upper tail_i)^2 - sum_{i>=1} (lower tail_{-i})^2)
         / prod_i (q;q)_{l_i}.
    """
    n = profile.total
    q = hp.q
    weight = sum(i * l for i, l in profile.mult if i >= 1)
    upper_sq = sum(profile.upper_tail(i) ** 2
                   for i in range(1, max(profile.max_index, 0) + 1))
    lower_sq = sum(profile.lower_tail(-i) ** 2
                   for i in range(1, -min(profile.min_index, 0) + 1))
    mult_prod = Fraction(1)
    for _, l in profile.mult:
        mult_prod *= pochhammer(q, q, l)
    return (_normalization(hp, n) * pochhammer(q, q, n) ** 2
            * hp.t**weight
            * Fraction(1, hp.p ** (upper_sq + lower_sq)) / mult_prod)


def chain_product_rep1(hp: HuaParams, profile: LProfile) -> Fraction:
    """Entrance law tilde_pi_N at the nonnegative count, then the deformed
    chain down the positive tail sums and the undeformed chain down the
    complementary counts."""
    n = profile.total
    x0 = profile.upper_tail(0)
    out = tilde_pi_n(hp, n, x0)
    x, i = x0, 0
    while x > 0:
        nxt = profile.upper_tail(i + 1)
        out *= kernel_p(hp, x, nxt)
        x, i = nxt, i + 1
    hp0 = hp.with_s_zero()
    y, i = n - x0, 0
    while y > 0:
        nxt = profile.lower_tail(-i - 2)
        out *= kernel_p(hp0, y, nxt)
        y, i = nxt, i + 1
    return out


def chain_product_rep2(hp: HuaParams, profile: LProfile) -> Fraction:
    """Entrance law pi_N at the nonpositive count, deformed chain up the
    positive side, undeformed chain down the negative tail sums."""
    n = profile.total
    x0 = profile.lower_tail(0)
    out = pi_n(hp, n, x0)
    x, i = n - x0, 0
    while x > 0:
        nxt = profile.upper_tail(i + 2)
        out *= kernel_p(hp, x, nxt)
        x, i = nxt, i + 1
    hp0 = hp.with_s_zero()
    y, i = x0, 0
    while y > 0:
        nxt = profile.lower_tail(-i - 1)
        out *= kernel_p(hp0, y, nxt)
        y, i = nxt, i + 1
    return out


# -- the matrix-law density ----------------------------------------------------


def gamma_exponent(k) -> int:
    """g with gamma = p^g: the sum of the positive singular numbers.

    A singular tuple with markers is accepted while its floor is <= 0,
    since the markers then hide no positive value.
    """
    if hasattr(k, "positive_part"):
        return sum(k.positive_part())
    return sum(v for v in _singular_values(k) if v > 0)


def hua_density(hp: HuaParams, k) -> tuple:
    """Density of the size-N bi-invariant matrix law at singular numbers k.

    Returned as (power, coeff) with density = coeff * p^power against the
    additive volume; coeff = normalization * t^g absorbs all t-dependence
    and power = -2*N*g the rest of the weight gamma^-(s+2N).
    """
    if getattr(k, "p", hp.p) != hp.p:
        raise ValueError(f"matrix prime {k.p} != {hp.p}")
    g = gamma_exponent(k)
    n = len(getattr(k, "values", k))
    return (-2 * n * g, _normalization(hp, n) * hp.t**g)


# -- the limiting partition law ----------------------------------------------


def nu_bracket(hp: HuaParams, lam: Partition, eps) -> Bracket:
    """Certified mass of a partition under the limiting law:

    (a;q)_oo * p^(-sum_i X_i^2) * t^(weight) / prod_i (q;q)_{l_i},

    with X_i the tail counts.  Only the infinite product is inexact.
    """
    q = hp.q
    xs = lam.tail_counts()
    pre = Fraction(1, hp.p ** sum(x * x for x in xs)) * hp.t**lam.weight
    for i in range(1, lam.largest + 1):
        pre /= pochhammer(q, q, lam.multiplicity(i))
    return pochhammer_inf(hp.a, q, Fraction(eps) / pre) * pre


def nu_chain_bracket(hp: HuaParams, lam: Partition, eps) -> Bracket:
    """The same mass as the chain product pi(X_1) prod_i P(X_i, X_{i+1})."""
    xs = lam.tail_counts() + (0,)
    factor = Fraction(1)
    for i in range(len(xs) - 1):
        factor *= kernel_p(hp, xs[i], xs[i + 1])
    return pi_s_bracket(hp, xs[0], Fraction(eps) / factor) * factor


# -- pushforwards of the flat and multiplicative reference measures ----------


def vol_singular_law(p: int, n: int, k) -> Fraction:
    """Mass of the singular class k under the additive volume on Mat(n, Z_p):

    p^(-sum_i (2i-2n-1) k_i) * (q;q)_n^2 / prod_i (q;q)_{l_i}.
    """
    check_prime(p)
    vals = _singular_values(k)
    if len(vals) != n:
        raise ValueError(f"expected {n} values, got {len(vals)}")
    q = Fraction(1, p)
    b = sum((2 * i - 2 * n - 1) * ki for i, ki in enumerate(vals, 1))
    out = Fraction(p) ** (-b) * pochhammer(q, q, n) ** 2
    for _, l in LProfile.from_singular_values(vals).mult:
        out /= pochhammer(q, q, l)
    return out


def haar_orbit_mass(p: int, n: int, k) -> Fraction:
    """Multiplicative Haar mass of the double coset with singular numbers k:

    p^(-sum_i (2i-n-1) k_i) * (q;q)_n / prod_i (q;q)_{l_i}.
    """
    check_prime(p)
    vals = _singular_values(k)
    if len(vals) != n:
        raise ValueError(f"expected {n} values, got {len(vals)}")
    q = Fraction(1, p)
    b = sum((2 * i - n - 1) * ki for i, ki in enumerate(vals, 1))
    out = Fraction(p) ** (-b) * pochhammer(q, q, n)
    for _, l in LProfile.from_singular_values(vals).mult:
        out /= pochhammer(q, q, l)
    return out


# -- distribution of the largest part ----------------------------------------


def rr_cdf(p: int, s: int, x: int, eps) -> Bracket:
    """CDF of the largest part, P(k_1 < x), for s in {0, 1} as the sparse
    product over an arithmetic-progression class of (1 - p^-i).

    s = 0: i >= 1 with i = 0, +-x (mod 2x+1);
    s = 1: i >= 2 with i = 0, +-1 (mod 2x+1).
    """
    check_prime(p)
    if s not in (0, 1):
        raise ValueError(f"sparse product form only for s in {{0, 1}}, got {s}")
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    modulus = 2 * x + 1
    if s == 0:
        residues = {0, x % modulus, (-x) % modulus}
        start = 1
    else:
        residues = {0, 1, modulus - 1}
        start = 2
    # Tail: sum_{i > K} p^-i = p^-K / (p-1) <= eps.
    cutoff = start
    while Fraction(1, p**cutoff * (p - 1)) > min(eps, Fraction(1, 2)):
        cutoff += 1
    head = Fraction(1)
    for i in range(start, cutoff + 1):
        if i % modulus in residues:
            head *= 1 - Fraction(1, p**i)
    tail_lower = 1 - Fraction(1, p**cutoff * (p - 1))
    return Bracket(head * tail_lower, head)


def nu_k1_below(hp: HuaParams, x: int, eps) -> Bracket:
    """P(k_1 < x) under the limiting law by direct summation over all
    partitions with parts < x (multiplicity profiles l_1, ..., l_{x-1}).

    Independent of the sparse product in rr_cdf.  Requires t <= 1 so the
    tail over large part counts is geometrically dominated.
    """
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if hp.t > 1:
        raise ValueError("direct CDF tail bound requires t <= 1")
    eps = Fraction(eps)
    q = hp.q
    qq_inf_lower = pochhammer_inf(q, q, Fraction(1, 10**6)).lower
    slots = x - 1

    # Cap M on X_1 = number of parts, with tail bound
    # sum_{m > M} C(m+slots-1, slots-1) p^(-m^2) / (q;q)_oo^slots <= eps/2
    # (consecutive terms shrink by more than 1/2 once M >= 2).
    def tail_bound(m_cap: int) -> Fraction:
        if slots == 0:
            return Fraction(0)
        first = (Fraction(math.comb(m_cap + slots, slots - 1))
                 * Fraction(1, hp.p ** ((m_cap + 1) ** 2)))
        return 2 * first / qq_inf_lower**slots

    m_cap = max(2, slots)  # keeps the term ratio below 1/2 past the cap
    while tail_bound(m_cap) > eps / 2:
        m_cap += 1

    total = Fraction(0)

    def rec(level: int, remaining: int, tail_so_far: int, sq_sum: int,
            weight: int, mult_prod: Fraction):
        nonlocal total
        # tail_so_far = X_level once levels > level are fixed.
        if level == 0:
            total += (Fraction(1, hp.p**sq_sum) * hp.t**weight / mult_prod)
            return
        for l in range(remaining + 1):
            tail = tail_so_far + l
            rec(level - 1, remaining - l, tail,
                sq_sum + tail * tail, weight + level * l,
                mult_prod * pochhammer(q, q, l))

    # Levels run from part size x-1 down to 1; X_i accumulates top down.
    if slots == 0:
        total = Fraction(1)  # only the empty partition has all parts < 1
    else:
        rec(slots, m_cap, 0, 0, 0, Fraction(1))

    inf_bracket = pochhammer_inf(hp.a, q, eps / (2 * total))
    return inf_bracket * total + Bracket(Fraction(0), tail_bound(m_cap))


# -- combinatorial rewriting identities ---------------------------------------


def rewrite_identity_sides(k) -> tuple:
    """Both sides of the three tail-sum rewriting identities for a tuple k:

    1. sum_{k_j > 0} k_j (2j-1)       = sum_{i>=1} (upper tail_i)^2
    2. sum_{k_j <= 0} k_j (2j-2N-1)   = sum_{i>=1} (lower tail_{-i})^2
    3. sum_{k_j > 0} k_j              = sum_{j>=1} j l_j
    """
    vals = _singular_values(k)
    n = len(vals)
    profile = LProfile.from_singular_values(vals)
    item1 = (sum(kj * (2 * j - 1) for j, kj in enumerate(vals, 1) if kj > 0),
             sum(profile.upper_tail(i) ** 2
                 for i in range(1, max(profile.max_index, 0) + 1)))
    item2 = (sum(kj * (2 * j - 2 * n - 1) for j, kj in enumerate(vals, 1) if kj <= 0),
             sum(profile.lower_tail(-i) ** 2
                 for i in range(1, -min(profile.min_index, 0) + 1)))
    item3 = (sum(kj for kj in vals if kj > 0),
             sum(i * l for i, l in profile.mult if i >= 1))
    return item1, item2, item3


def rewrite_identity_check(k) -> tuple:
    return tuple(lhs == rhs for lhs, rhs in rewrite_identity_sides(k))


# -- boundary limit of the finite entrance laws -------------------------------


def pi_n_boundary_tv(hp: HuaParams, n: int, eps_atom=None) -> Bracket:
    """Certified total variation distance between the reflected finite
    entrance law x -> pi_n(n - x) and its limit pi."""
    if eps_atom is None:
        eps_atom = Fraction(1, hp.p ** (2 * n + 20))
    total = Bracket.exact(0)
    for x in range(n + 1):
        total = total + abs(pi_s_bracket(hp, x, eps_atom) - pi_n(hp, n, n - x))
    total = total + Bracket(Fraction(0), pi_s_tail_bound(hp, n + 1))
    return total * Fraction(1, 2)


# -- finite truncations packaged with their tail mass -------------------------


@dataclass(frozen=True)
class ExactLaw:
    """Finite outcome -> mass map plus the mass left outside the support."""

    masses: dict
    support: str
    tail: Mass

    def total_mass(self) -> Mass:
        out = self.tail
        for mass in self.masses.values():
            out = out + mass
        return out


def descending_tuples(n: int, lo: int, hi: int):
    """All weakly decreasing n-tuples with entries in [lo, hi]."""
    for comb in combinations_with_replacement(range(hi, lo - 1, -1), n):
        yield comb


def m_n_truncated_law(hp: HuaParams, n: int, bound: int) -> ExactLaw:
    """The singular-number law restricted to |k_i| <= bound, exact tail."""
    masses = {k: m_n_direct(hp, k) for k in descending_tuples(n, -bound, bound)}
    tail = 1 - sum(masses.values(), Fraction(0))
    return ExactLaw(masses, f"descending {n}-tuples with |k_i| <= {bound}", tail)


def nu_truncated_law(hp: HuaParams, max_parts: int, max_part: int,
                     eps_atom=Fraction(1, 10**12)) -> ExactLaw:
    """The limiting partition law restricted to X_1 <= max_parts and
    k_1 <= max_part; the tail is a certified bracket."""
    masses = {lam: nu_bracket(hp, lam, eps_atom)
              for lam in partitions_in_box(max_parts, max_part)}
    total = Bracket.exact(0)
    for mass in masses.values():
        total = total + mass
    tail = Bracket(max(Fraction(0), 1 - total.upper), 1 - total.lower)
    return ExactLaw(masses, f"partitions with at most {max_parts} parts, "
                            f"each <= {max_part}", tail)
