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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .padic import check_prime, int_valuation
from .partitions import (LProfile, Partition, descending_tuples,
                         partitions_in_box)
from .qseries import Bracket, pochhammer, pochhammer_inf, truncation_order

Mass = Union[Fraction, Bracket]


class HuaParams(NamedTuple):
    """Prime p and exact deformation parameter t = u/v = p^-s with s > -1,
    u/v in lowest terms.  Plain ints, so every cache and stream key reads
    the tuple itself; HuaParams.of builds one from outside input."""

    p: int
    u: int
    v: int

    @classmethod
    def of(cls, p: int, t) -> "HuaParams":
        """Validated parameters at prime p and rational t with 0 < t < p."""
        check_prime(p)
        t = Fraction(t)
        if not 0 < t < p:
            raise ValueError(f"need 0 < t < p, got t = {t}, p = {p}")
        return cls(p, t.numerator, t.denominator)

    @property
    def t(self) -> Fraction:
        return Fraction(self.u, self.v)

    @property
    def q(self) -> Fraction:
        return Fraction(1, self.p)

    @property
    def a(self) -> Fraction:
        """p^-(1+s) = t/p, the second Pochhammer base."""
        return Fraction(self.u, self.v * self.p)

    def with_s_zero(self) -> "HuaParams":
        """The undeformed parameters (t = 1) at the same p."""
        return HuaParams(self.p, 1, 1)

    def s_exponent(self):
        """Integer s with t = p^-s, or None if t is not a power of p; s is
        never negative, since t < p."""
        s = int_valuation(self.v, self.p)
        return s if self.u == 1 and self.v == self.p**s else None


def _singular_values(k) -> tuple:
    """Coerce to exact weakly decreasing ints; a marker (None) is refused."""
    vals = tuple(map(int, k))
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"not weakly decreasing: {vals}")
    return vals


@lru_cache(maxsize=None)
def _normalization(hp: HuaParams, n: int) -> Fraction:
    """(a; q)_n^2 / (a; q)_2n."""
    q, a = hp.q, hp.a
    return pochhammer(a, q, n) ** 2 / pochhammer(a, q, 2 * n)


@lru_cache(maxsize=None)
def _qq(p: int, l: int) -> tuple:
    """(c, e) with (q;q)_l = c / p^e: c = prod_{i<=l} (p^i - 1), which is
    prime to p, and e = l(l+1)/2."""
    c = 1
    for i in range(1, l + 1):
        c *= p**i - 1
    return c, l * (l + 1) // 2


def _qq_product(p: int, mults) -> tuple:
    """(c, e) with prod_l (q;q)_l = c / p^e over the multiplicities l."""
    c, e = 1, 0
    for l in mults:
        cl, el = _qq(p, l)
        c *= cl
        e += el
    return c, e


def _p_power_mass(num: int, den: int, p: int, e: int) -> Fraction:
    """num p^e / den as one Fraction, normalised once."""
    if e >= 0:
        return Fraction(num * p**e, den)
    return Fraction(num, den * p**-e)


@lru_cache(maxsize=1)
def _tail_counts(mult: tuple) -> tuple:
    """(upper, lower) tail counts of a profile's (index, multiplicity)
    pairs: upper[i] = sum_{j >= i} l_j for 0 <= i <= max(index, 0) and
    lower[i] = sum_{j <= -i} l_j for 0 <= i <= max(-index, 0).  Each tuple
    is one suffix sum, run from its own end of the multiplicities.  The
    forms of one profile are evaluated back to back, so the last profile's
    counts are kept."""
    upper = [0] * (max(max((i for i, _ in mult), default=0), 0) + 1)
    lower = [0] * (max(-min((i for i, _ in mult), default=0), 0) + 1)
    for i, l in mult:
        if i >= 0:
            upper[i] += l
        if i <= 0:
            lower[-i] += l
    for i in range(len(upper) - 2, -1, -1):
        upper[i] += upper[i + 1]
    for i in range(len(lower) - 2, -1, -1):
        lower[i] += lower[i + 1]
    return tuple(upper), tuple(lower)


# -- Markov kernel and its fixed laws ---------------------------------------


# Each finite law's row is built as (D, w): integer weights over one common
# denominator, the mass at i being w[i] / D.  A weight is a Gaussian binomial
# in p times products of (v p^i - u) and (p^i - 1) and a power of p, at
# t = u/v, so no gcd is taken on the way; the draw tables and the identity
# gates use the weights, and the Fraction rows are a view of them.


def _gaussian_binomials(p: int, n: int) -> list:
    """[n choose k]_p for k = 0..n; at q = 1/p,
    (q;q)_n / [(q;q)_k (q;q)_(n-k)] = [n choose k]_p p^(-k(n-k))."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (p ** (n - k) - 1) // (p ** (k + 1) - 1))
    return row


def _suffix_products(factors) -> list:
    """out[j] = prod(factors[j:]) for 0 <= j <= len(factors)."""
    out = [1]
    for f in reversed(factors):
        out.append(out[-1] * f)
    return out[::-1]


def kernel_weights(p: int, u: int, v: int, x1: int) -> tuple:
    """(D, w) with P(x1, x2) = w[x2] / D at t = u/v.  With m = x1 - x2,

    w[x2] = u^x2 [x1 choose x2]_p p^(m(m-1)/2) prod_{x2 < i <= x1} (v p^i - u),
    D = v^x1 p^(x1^2).
    """
    g = _gaussian_binomials(p, x1)
    a = _suffix_products([v * p**i - u for i in range(1, x1 + 1)])
    return v**x1 * p ** (x1 * x1), tuple(
        u**x2 * g[x2] * a[x2] * p ** ((x1 - x2) * (x1 - x2 - 1) // 2)
        for x2 in range(x1 + 1))


def _entrance_factors(p: int, u: int, v: int, n: int) -> tuple:
    """(D, g, a, c) of the entrance laws at t = u/v: D is
    prod_{n < i <= 2n} (v p^i - u), g[k] = [n choose k]_p,
    a[j] = prod_{j < i <= n} (v p^i - u) and c[j] = prod_{j < i <= n} (p^i - 1)."""
    d = math.prod(v * p**i - u for i in range(n + 1, 2 * n + 1))
    return (d, _gaussian_binomials(p, n),
            _suffix_products([v * p**i - u for i in range(1, n + 1)]),
            _suffix_products([p**i - 1 for i in range(1, n + 1)]))


def pi_n_weights(p: int, u: int, v: int, n: int) -> tuple:
    """(D, w) with pi_n(x) = w[x] / D at t = u/v.  With m = n - x and D, g,
    a, c as in _entrance_factors, w[x] = u^m g[x] a[m] c[x] p^(x^2)."""
    d, g, a, c = _entrance_factors(p, u, v, n)
    return d, tuple(u ** (n - x) * g[x] * a[n - x] * c[x] * p ** (x * x)
                    for x in range(n + 1))


def tilde_pi_n_weights(p: int, u: int, v: int, n: int) -> tuple:
    """(D, w) with tilde_pi_n(x) = w[x] / D at t = u/v.  With m = n - x and
    D, g, a, c as in _entrance_factors, w[x] = v^x g[x] a[x] c[m] p^(x^2)."""
    d, g, a, c = _entrance_factors(p, u, v, n)
    return d, tuple(v**x * g[x] * a[x] * c[n - x] * p ** (x * x)
                    for x in range(n + 1))


# The Fraction rows are kept in a bounded cache keyed by ints: rows of size x
# have denominators up to p^(x^2), so an unbounded cache would hold every row
# a run ever built for the life of the process.
LAW_ROW_CACHE_SIZE = 32


@lru_cache(maxsize=LAW_ROW_CACHE_SIZE)
def _fraction_row(weights, hp: HuaParams, size: int) -> tuple:
    """The masses w[i] / D of the row (D, w) = weights(*hp, size)."""
    d, w = weights(*hp, size)
    return tuple(Fraction(x, d) for x in w)


def kernel_p(hp: HuaParams, x1: int, x2: int) -> Fraction:
    """One-step transition mass from x1 to x2 (zero outside 0 <= x2 <= x1).

    P(x1, x2) = p^(-x2^2) t^x2 (q;q)_x1 (a;q)_x1
                / [(q;q)_x2 (q;q)_(x1-x2) (a;q)_x2].
    """
    if x1 >= 0 and not 0 <= x2 <= x1:
        return Fraction(0)
    return kernel_row(hp, x1)[x2]


def kernel_valuation(hp: HuaParams, x1: int, x2: int) -> int:
    """The p-adic valuation of P(x1, x2) > 0, 0 <= x2 <= x1, from the closed
    form of kernel_p without building the row.  With m = x1 - x2,
    e = v_p(u) and f = v_p(v) (one of them is 0): p^(-x2^2) t^x2 gives
    -x2^2 + x2 (e - f), the (q;q) ratio -x2 m (v_p (q;q)_n = -n(n+1)/2),
    and (a;q)_x1 / (a;q)_x2 = prod_{x2 < i <= x1} (v p^i - u) / (v p^i) the
    sum of v_p(v p^i - u) - i - f.  v_p(v p^i - u) is min(i, e) for
    i != e; at i = e >= 1 it is e + v_p(v - u / p^e), v - u / p^e being
    nonzero since t < p.  The range 0 <= x2 <= x1 is not checked here:
    cli._price_kernel, the one caller, asks only inside it.
    """
    p, u, v = hp
    e, f, m = int_valuation(u, p), int_valuation(v, p), x1 - x2

    def min_sum(n):  # sum of min(i, e) over 1 <= i <= n
        k = min(n, e)
        return k * (k + 1) // 2 + e * (n - k)

    factors = min_sum(x1) - min_sum(x2)
    if x2 < e <= x1:
        factors += int_valuation(v - u // p**e, p)
    return (-x2 * x2 + x2 * (e - f) - x2 * m + factors
            - (x1 * (x1 + 1) - x2 * (x2 + 1)) // 2 - m * f)


def kernel_row(hp: HuaParams, x1: int) -> tuple:
    """The full row (P(x1, 0), ..., P(x1, x1)), from kernel_weights; sums to
    1 exactly."""
    if x1 < 0:
        raise ValueError(f"need x1 >= 0, got {x1}")
    return _fraction_row(kernel_weights, hp, x1)


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


# The tolerance of the (q;q)_oo bracket whose lower end pi_s_tail_bound
# divides by.
TAIL_QQ_EPS = Fraction(1, 10**9)


def pi_s_tail_bound(hp: HuaParams, x0: int) -> Fraction:
    """Rational upper bound for sum_{x >= x0} pi(x), valid for x0 >= 1,
    which is not checked here: the one caller, pi_n_boundary_tv, passes
    x0 = n + 1 for the sizes n of run_nu_limit's grid.

    Uses pi(x) <= p^(-x^2) t^x / (q;q)_oo and a geometric comparison
    (consecutive terms shrink by t/p^(2x+1) < 1/4).
    """
    qq_lower = pochhammer_inf(hp.q, hp.q, TAIL_QQ_EPS).lower
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
    row = pi_n_row(hp, n)
    return row[x] if 0 <= x <= n else Fraction(0)


def tilde_pi_n(hp: HuaParams, n: int, x: int) -> Fraction:
    """Companion entrance law for the chain started at the count of
    nonnegative singular numbers; zero outside [0, n].

    tilde_pi_n(x) = (a;q)_n^2 (q;q)_n^2 p^(-(n-x)^2)
                    / [(a;q)_2n (q;q)_x (a;q)_x (q;q)_(n-x)^2].
    """
    row = tilde_pi_n_row(hp, n)
    return row[x] if 0 <= x <= n else Fraction(0)


def pi_n_row(hp: HuaParams, n: int) -> tuple:
    """(pi_n(0), ..., pi_n(n)), from pi_n_weights."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _fraction_row(pi_n_weights, hp, n)


def tilde_pi_n_row(hp: HuaParams, n: int) -> tuple:
    """(tilde_pi_n(0), ..., tilde_pi_n(n)), from tilde_pi_n_weights."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _fraction_row(tilde_pi_n_weights, hp, n)


# -- the singular-number law in its four equivalent forms --------------------


def m_n_direct(hp: HuaParams, k) -> Fraction:
    """Mass of the singular-number tuple k under the size-N matrix law:

    norm * p^(-(s+2N) sum_{k_j>0} k_j - sum_j (2j-2N-1) k_j)
         * (q;q)_N^2 / prod_i (q;q)_{l_i}.
    """
    vals = _singular_values(k)
    n = len(vals)
    p, u, v = hp
    g = sum(v for v in vals if v > 0)
    b = sum((2 * j - 2 * n - 1) * kj for j, kj in enumerate(vals, 1))
    norm = _normalization(hp, n)
    cn, en = _qq(p, n)
    cm, em = _qq_product(p, Counter(vals).values())
    return _p_power_mass(norm.numerator * u**g * cn * cn,
                         norm.denominator * v**g * cm,
                         p, em - 2 * en - 2 * n * g - b)


def m_n_profile(hp: HuaParams, profile: LProfile) -> Fraction:
    """Same mass written purely in the multiplicities:

    norm * (q;q)_N^2 * t^(sum_j j l_j)
         * p^(-sum_{i>=1} (upper tail_i)^2 - sum_{i>=1} (lower tail_{-i})^2)
         / prod_i (q;q)_{l_i}.
    """
    n = profile.total
    p, u, v = hp
    weight = sum(i * l for i, l in profile.mult if i >= 1)
    upper, lower = _tail_counts(profile.mult)
    tail_sq = sum(x * x for x in upper[1:]) + sum(x * x for x in lower[1:])
    norm = _normalization(hp, n)
    cn, en = _qq(p, n)
    cm, em = _qq_product(p, (l for _, l in profile.mult))
    return _p_power_mass(norm.numerator * u**weight * cn * cn,
                         norm.denominator * v**weight * cm,
                         p, em - 2 * en - tail_sq)


def _chain_mass(start: Fraction, walks) -> Fraction:
    """start times the kernel steps of each (hp, path) walk, which steps from
    each state of its path to the next until it reaches 0.  The factors'
    numerators and denominators are multiplied and normalised once."""
    num, den = start.numerator, start.denominator
    for hp, path in walks:
        for x, nxt in zip(path, path[1:]):
            if x == 0:
                break
            step = kernel_p(hp, x, nxt)
            num *= step.numerator
            den *= step.denominator
    return Fraction(num, den)


def chain_product_rep1(hp: HuaParams, profile: LProfile) -> Fraction:
    """Entrance law tilde_pi_N at the nonnegative count, then the deformed
    chain down the positive tail sums and the undeformed chain down the
    complementary counts."""
    upper, lower = _tail_counts(profile.mult)
    return _chain_mass(tilde_pi_n(hp, profile.total, upper[0]),
                       ((hp, upper + (0,)),
                        (hp.with_s_zero(), lower[1:] + (0,))))


def chain_product_rep2(hp: HuaParams, profile: LProfile) -> Fraction:
    """Entrance law pi_N at the nonpositive count, deformed chain up the
    positive side, undeformed chain down the negative tail sums."""
    upper, lower = _tail_counts(profile.mult)
    return _chain_mass(pi_n(hp, profile.total, lower[0]),
                       ((hp, upper[1:] + (0,)),
                        (hp.with_s_zero(), lower + (0,))))


# -- the matrix-law density ----------------------------------------------------


def gamma_exponent(k) -> int:
    """g with gamma = p^g: the sum of the positive singular numbers."""
    return sum(v for v in _singular_values(k) if v > 0)


def hua_density(hp: HuaParams, k) -> tuple:
    """Density of the size-N bi-invariant matrix law at singular numbers k.

    Returned as (power, coeff) with density = coeff * p^power against the
    additive volume; coeff = normalization * t^g absorbs all t-dependence
    and power = -2*N*g the rest of the weight gamma^-(s+2N).
    """
    g = gamma_exponent(k)
    n = len(k)
    return (-2 * n * g, _normalization(hp, n) * hp.t**g)


# -- the limiting partition law ----------------------------------------------


def _nu_weight(hp: HuaParams, lam: Partition) -> Fraction:
    """p^(-sum_i X_i^2) t^(weight) / prod_i (q;q)_{l_i}, with X_i the tail
    counts and l_i the multiplicities: the limiting mass of lam without its
    factor (a;q)_oo, from integers normalised once."""
    p, u, v = hp
    xs = lam.tail_counts()
    w = lam.weight
    cm, em = _qq_product(p, (x - nxt for x, nxt in zip(xs, xs[1:] + (0,))))
    return _p_power_mass(u**w, v**w * cm, p, em - sum(x * x for x in xs))


def nu_bracket(hp: HuaParams, lam: Partition, eps) -> Bracket:
    """Certified mass of a partition under the limiting law:

    (a;q)_oo * p^(-sum_i X_i^2) * t^(weight) / prod_i (q;q)_{l_i},

    with X_i the tail counts.  Only the infinite product is inexact.
    """
    pre = _nu_weight(hp, lam)
    return pochhammer_inf(hp.a, hp.q, Fraction(eps) / pre) * pre


def nu_chain_bracket(hp: HuaParams, lam: Partition, eps) -> Bracket:
    """The same mass as the chain product pi(X_1) prod_i P(X_i, X_{i+1})."""
    xs = lam.tail_counts() + (0,)
    factor = _chain_mass(Fraction(1), ((hp, xs),))
    return pi_s_bracket(hp, xs[0], Fraction(eps) / factor) * factor


# -- pushforwards of the flat and multiplicative reference measures ----------


def vol_singular_law(p: int, k) -> Fraction:
    """Mass of the singular class k under the additive volume on Mat(n, Z_p),
    n = len(k):

    p^(-sum_i (2i-2n-1) k_i) * (q;q)_n^2 / prod_i (q;q)_{l_i}.
    """
    check_prime(p)
    vals = _singular_values(k)
    n = len(vals)
    b = sum((2 * i - 2 * n - 1) * ki for i, ki in enumerate(vals, 1))
    cn, en = _qq(p, n)
    cm, em = _qq_product(p, Counter(vals).values())
    return _p_power_mass(cn * cn, cm, p, em - 2 * en - b)


def haar_orbit_mass(p: int, k) -> Fraction:
    """Multiplicative Haar mass of the double coset with singular numbers k
    in GL(n, Q_p), n = len(k):

    p^(-sum_i (2i-n-1) k_i) * (q;q)_n / prod_i (q;q)_{l_i}.
    """
    check_prime(p)
    vals = _singular_values(k)
    n = len(vals)
    b = sum((2 * i - n - 1) * ki for i, ki in enumerate(vals, 1))
    cn, en = _qq(p, n)
    cm, em = _qq_product(p, Counter(vals).values())
    return _p_power_mass(cn, cm, p, em - en - b)


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
    modulus = 2 * x + 1
    if s == 0:
        residues = {0, x % modulus, (-x) % modulus}
        start = 1
    else:
        residues = {0, 1, modulus - 1}
        start = 2
    # Tail: sum_{i > K} p^-i = q^(K+1) / (1-q) <= min(eps, 1/2), q = 1/p.
    q = Fraction(1, p)
    cutoff = max(start, truncation_order(q, q, eps))
    head = Fraction(1)
    for i in range(start, cutoff + 1):
        if i % modulus in residues:
            head *= 1 - Fraction(1, p**i)
    tail_lower = 1 - Fraction(1, p**cutoff * (p - 1))
    return Bracket(head * tail_lower, head)


def _nu_k1_check(hp: HuaParams, x: int) -> None:
    """Refuse what nu_k1_below cannot sum."""
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    if hp.t > 1:
        raise ValueError("direct CDF tail bound requires t <= 1")


def _nu_k1_box(hp: HuaParams, x: int, eps: Fraction) -> tuple:
    """(M, tail bound) of nu_k1_below(hp, x, eps): the cap M on X_1, the
    number of parts, of the box its partitions (parts < x) fill, and the
    bound on the capped-off mass,

    sum_{m > M} C(m+slots-1, slots-1) p^(-m^2) / (q;q)_oo^slots <= eps/2,

    slots = x - 1 (consecutive terms shrink by more than 1/2 once
    M >= 2)."""
    q = hp.q
    qq_inf_lower = pochhammer_inf(q, q, Fraction(1, 10**6)).lower
    slots = x - 1

    def tail_bound(m_cap: int) -> Fraction:
        if slots == 0:
            return Fraction(0)
        first = (Fraction(math.comb(m_cap + slots, slots - 1))
                 * Fraction(1, hp.p ** ((m_cap + 1) ** 2)))
        return 2 * first / qq_inf_lower**slots

    m_cap = max(2, slots)  # keeps the term ratio below 1/2 past the cap
    while tail_bound(m_cap) > eps / 2:
        m_cap += 1
    return m_cap, tail_bound(m_cap)


def nu_k1_below_terms(hp: HuaParams, x: int, eps, most: int):
    """How many partitions nu_k1_below(hp, x, eps) sums, C(M + x - 1, x - 1)
    for its cap M on the number of parts, or None when that is above
    ``most``; nothing is summed.  The box is at least x - 1 = slots parts
    long (M >= max(2, slots)), and C(2 slots, slots) >= 2^slots, so a
    large x is priced before M is sought.  Refuses what nu_k1_below
    refuses, with the same errors."""
    _nu_k1_check(hp, x)
    slots = x - 1
    if (slots > most.bit_length()
            or math.comb(max(2, slots) + slots, slots) > most):
        return None
    m_cap, _ = _nu_k1_box(hp, x, Fraction(eps))
    terms = math.comb(m_cap + slots, slots)
    return terms if terms <= most else None


def nu_k1_below(hp: HuaParams, x: int, eps) -> Bracket:
    """P(k_1 < x) under the limiting law by direct summation of the masses
    of all partitions with parts < x and at most a capped number of parts
    (see _nu_k1_box).

    Independent of the sparse product in rr_cdf.  Requires t <= 1 so the
    tail over large part counts is geometrically dominated.
    """
    _nu_k1_check(hp, x)
    eps = Fraction(eps)
    m_cap, tail = _nu_k1_box(hp, x, eps)
    total = sum((_nu_weight(hp, lam)
                 for lam in partitions_in_box(m_cap, x - 1)), Fraction(0))
    inf_bracket = pochhammer_inf(hp.a, hp.q, eps / (2 * total))
    return inf_bracket * total + Bracket(Fraction(0), tail)


# -- combinatorial rewriting identities ---------------------------------------


def rewrite_identity_sides(k, lengths) -> np.ndarray:
    """Both sides of the three tail-sum rewriting identities for each row of
    a stack of tuples, as a (rows, 3, 2) array of (left, right) pairs:

    1. sum_{k_j > 0} k_j (2j-1)       = sum_{i>=1} (upper tail_i)^2
    2. sum_{k_j <= 0} k_j (2j-2N-1)   = sum_{i>=1} (lower tail_{-i})^2
    3. sum_{k_j > 0} k_j              = sum_{i>=1} i l_i

    Row r of k holds a weakly decreasing tuple of N = lengths[r] entries,
    then zeros, which add to no side.  The left sides are sums over the
    positions j; the right sides count entries level by level: upper
    tail_i = #{k_j >= i}, lower tail_{-i} = #{k_j <= -i} and l_i =
    #{k_j = i}.  One tuple is a one-row stack.  The level counts hold rows
    x width x max |k_j| entries, so a caller passes large stacks in blocks.
    The row order is not checked here: the stacks of
    experiments._random_descending_tuples are sorted and zeroed so.
    """
    k = np.asarray(k, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)[:, None]
    j = np.arange(1, k.shape[1] + 1)
    pos = np.where(k > 0, k, 0)
    levels = np.arange(1, max(pos.max(initial=0), -k.min(initial=0)) + 1)
    upper = (k[:, :, None] >= levels).sum(axis=1)
    lower = (k[:, :, None] <= -levels).sum(axis=1)
    mult = (k[:, :, None] == levels).sum(axis=1)
    return np.stack([
        np.stack([(pos * (2 * j - 1)).sum(axis=1),
                  (upper * upper).sum(axis=1)], axis=1),
        np.stack([((k - pos) * (2 * j - 2 * lengths - 1)).sum(axis=1),
                  (lower * lower).sum(axis=1)], axis=1),
        np.stack([pos.sum(axis=1), mult @ levels], axis=1),
    ], axis=1)


def rewrite_identity_check(k, lengths) -> np.ndarray:
    """Per row and identity, whether the two sides agree: (rows, 3) bools."""
    sides = rewrite_identity_sides(k, lengths)
    return sides[..., 0] == sides[..., 1]


# -- boundary limit of the finite entrance laws -------------------------------


def pi_n_boundary_tv(hp: HuaParams, n: int) -> Bracket:
    """Certified total variation distance between the reflected finite
    entrance law x -> pi_n(n - x) and its limit pi; each atom of pi is
    bracketed to within p^-(2n + 20)."""
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
    tail: Mass


def m_n_truncated_law(hp: HuaParams, n: int, bound: int) -> ExactLaw:
    """The singular-number law restricted to |k_i| <= bound, exact tail."""
    masses = {k: m_n_direct(hp, k) for k in descending_tuples(n, -bound, bound)}
    tail = 1 - sum(masses.values(), Fraction(0))
    return ExactLaw(masses, tail)


# The tolerance of each partition's bracket in nu_truncated_law.
NU_ATOM_EPS = Fraction(1, 10**12)


def nu_truncated_law(hp: HuaParams, max_parts: int,
                     max_part: int) -> ExactLaw:
    """The limiting partition law restricted to X_1 <= max_parts and
    k_1 <= max_part, keyed by each partition's parts; the tail is a
    certified bracket."""
    masses = {lam.parts: nu_bracket(hp, lam, NU_ATOM_EPS)
              for lam in partitions_in_box(max_parts, max_part)}
    total = Bracket.exact(0)
    for mass in masses.values():
        total = total + mass
    tail = Bracket(max(Fraction(0), 1 - total.upper), 1 - total.lower)
    return ExactLaw(masses, tail)
