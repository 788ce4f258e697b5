"""Exact seedable samplers for every law in the package.

All discrete draws are exact: finite rows are sampled by inverse CDF over
integer cumulative weights with the row's common denominator, and the
infinite entrance law is sampled by refining certified brackets until the
uniform draw is provably separated from every atom boundary.  No atom is
ever misclassified.

Streams are single-owner; parallel use takes one child stream per draw
(see the rng module).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from .laws import (
    HuaParams,
    cumulative_weights,
    kernel_row,
    pi_n_row,
    pi_s_bracket,
)
from .matrix import (
    PadicMatrix,
    assemble_orbit,
    decode_residues,
    sample_haar_gl,
)
from .padic import PrecisionExhausted, check_prime
from .partitions import Partition
from .qseries import Bracket

# Absorption at 0 is almost sure and fast (masses decay like p^-x^2);
# the cap is a safety assertion, not a tuning knob.
CHAIN_STEP_CAP = 10_000


def _draw_table(row) -> tuple:
    """cumulative_weights of a law's row, which must sum to 1 exactly."""
    d, cum = cumulative_weights(row)
    if cum[-1] != d:
        raise AssertionError("row masses do not sum to 1 exactly")
    return d, cum


# The row tables below are keyed by (p, t.numerator, t.denominator, ...):
# hashing two ints per chain step is much cheaper than hashing a Fraction.


@lru_cache(maxsize=None)
def _kernel_cumulative(p: int, num: int, den: int, x1: int):
    return _draw_table(kernel_row(HuaParams(p, Fraction(num, den)), x1))


@lru_cache(maxsize=None)
def _pi_n_cumulative(p: int, num: int, den: int, n: int):
    return _draw_table(pi_n_row(HuaParams(p, Fraction(num, den)), n))


def _draw_from_cumulative(d: int, cum: tuple, rng) -> int:
    return bisect_right(cum, rng.randbelow(d))


def sample_kernel_step(hp: HuaParams, x: int, rng) -> int:
    """One exact step of the chain from state x (0 is absorbing)."""
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    if x == 0:
        return 0
    t = hp.t
    d, cum = _kernel_cumulative(hp.p, t.numerator, t.denominator, x)
    return _draw_from_cumulative(d, cum, rng)


def sample_pi_n(hp: HuaParams, n: int, rng) -> int:
    """Exact draw from the finite entrance law on [0, n]."""
    t = hp.t
    d, cum = _pi_n_cumulative(hp.p, t.numerator, t.denominator, n)
    return _draw_from_cumulative(d, cum, rng)


@lru_cache(maxsize=None)
def _pi_s_cumulative(p: int, t: Fraction, eps: Fraction,
                     support: int) -> tuple:
    """Certified brackets of the limiting entrance law's CDF at 0..support,
    each atom bracketed to within eps."""
    hp = HuaParams(p, t)
    cum = []
    acc = Bracket.exact(0)
    for x in range(support + 1):
        acc = acc + pi_s_bracket(hp, x, eps)
        cum.append(acc)
    return tuple(cum)


def sample_pi_s(hp: HuaParams, rng) -> int:
    """Exact draw from the limiting entrance law on Z_+.

    Inverse CDF with bracket refinement: the uniform draw is extended 64
    bits at a time and the atom brackets tightened until the draw interval
    sits strictly inside one atom's cumulative slot.
    """
    bits = 0
    u_num = 0
    eps = Fraction(1, 2**48)
    support = 8
    for _ in range(256):
        u_num = (u_num << 64) | rng.randbits(64)
        bits += 64
        scale = 1 << bits
        u_lo = Fraction(u_num, scale)
        u_hi = Fraction(u_num + 1, scale)
        cum = _pi_s_cumulative(hp.p, hp.t, eps, support)
        prev_upper = Fraction(0)
        chosen = None
        for x in range(support + 1):
            if u_lo >= prev_upper and u_hi <= cum[x].lower:
                chosen = x
                break
            prev_upper = cum[x].upper
        if chosen is not None:
            return chosen
        if u_lo >= cum[support].upper:
            support *= 2
        else:
            eps /= 2**16
    raise RuntimeError("entrance-law draw failed to separate after 256 refinements")


def run_chain(hp: HuaParams, start: int, rng) -> tuple:
    """States of the chain from ``start`` down to absorption at 0,
    including the start, excluding the absorbing 0."""
    path = []
    x = start
    while x > 0:
        path.append(x)
        if len(path) > CHAIN_STEP_CAP:
            raise AssertionError("chain failed to absorb within the step cap")
        x = sample_kernel_step(hp, x, rng)
    return tuple(path)


def sample_nu(hp: HuaParams, rng) -> Partition:
    """Partition draw from the limiting law: entrance by the limiting
    entrance law, then the deformed chain run to absorption; the visited
    states are the tail counts of the partition."""
    start = sample_pi_s(hp, rng)
    return Partition.from_tail_counts(run_chain(hp, start, rng))


def sample_hua_tails(hp: HuaParams, n: int, rng) -> tuple:
    """(positive tails, nonpositive tails) of a size-n singular-number draw.

    Entrance: x ~ pi_n gives the count of nonpositive parts.  The deformed
    chain from n - x yields the tail counts X_1 >= X_2 >= ... of the
    positive parts; the undeformed chain from x yields the tail counts of
    the nonpositive side (multiplicities of 0, -1, -2, ...).  Both chains
    always run, so the stream is consumed the same whichever side is used.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    x = sample_pi_n(hp, n, rng)
    pos_tails = run_chain(hp, n - x, rng)
    return pos_tails, run_chain(hp.with_s_zero(), x, rng)


def sample_hua_singulars(hp: HuaParams, n: int, rng) -> tuple:
    """Exact draw of the singular-number tuple of a size-n matrix sample,
    weakly decreasing ints assembled from the tail counts of
    sample_hua_tails."""
    pos_tails, neg_tails = sample_hua_tails(hp, n, rng)
    values = list(Partition.from_tail_counts(pos_tails).parts)
    for i in range(len(neg_tails)):
        nxt = neg_tails[i + 1] if i + 1 < len(neg_tails) else 0
        values.extend([-i] * (neg_tails[i] - nxt))
    return tuple(values)


def sample_hua_matrix(hp: HuaParams, n: int, digits: int, rng) -> PadicMatrix:
    """Matrix draw from the size-n bi-invariant law at the given window.

    Two-stage exact construction: singular numbers from the chain
    representation, then conjugation by two independent Haar factors.
    Raises PrecisionExhausted when the drawn top singular number would eat
    more than half the window (probability ~ p^-(digits/2)^2).
    """
    k = sample_hua_singulars(hp, n, rng)
    if k[0] > digits // 2:
        raise PrecisionExhausted(
            f"drawn singular number {k[0]} exceeds half the window {digits}")
    b = sample_haar_gl(n, hp.p, digits, rng)
    c = sample_haar_gl(n, hp.p, digits, rng)
    return assemble_orbit(k, b, c)


def sample_ergodic_matrix(p: int, k, n: int, digits: int, rng) -> PadicMatrix:
    """n x n corner of the ergodic matrix with parameter k (a partition:
    nonnegative, eventually zero).

    Entry (i, j) is sum_m p^(-k_m) X_i^(m) Y_j^(m) + Z_ij over the positive
    parts k_m, with all X, Y, Z i.i.d. Haar on Z_p at the window.  The
    residues come from one bulk draw decoded in a fixed order (X then Y per
    part, then Z row-major), so samples are a pure function of the stream.
    """
    check_prime(p)
    lam = k if isinstance(k, Partition) else Partition(tuple(v for v in k if v != 0))
    parts = lam.parts
    shift = parts[0] if parts else 0
    if shift >= digits:
        raise PrecisionExhausted(f"p^-{shift} overflows a {digits}-digit window")
    modulus = p**digits
    r = len(parts)
    z0 = 2 * r * n
    count = z0 + n * n
    flat = decode_residues(rng.randbelow(modulus**count), modulus, count)
    # Row i of the residues: p^shift Z_i + sum_m p^(shift - k_m) X_i^(m) Y^(m).
    xs = [[p ** (shift - km) * x for x in flat[2 * m * n:(2 * m + 1) * n]]
          for m, km in enumerate(parts)]
    ys = [flat[(2 * m + 1) * n:(2 * m + 2) * n] for m in range(r)]
    z_scale = p**shift
    units = []
    for i in range(n):
        row = [z_scale * e for e in flat[z0 + i * n:z0 + (i + 1) * n]]
        for x, y in zip(xs, ys):
            c = x[i]
            row = [a + c * b for a, b in zip(row, y)]
        units.append(tuple([a % modulus for a in row]))
    return PadicMatrix._reduced(p, n, shift, digits, tuple(units))
