"""Exact seedable samplers for every law in the package.

All discrete draws are exact: finite rows are sampled by inverse CDF over
integer cumulative weights with the row's common denominator, and the
infinite entrance law is sampled by refining certified brackets until the
uniform draw is provably separated from every atom boundary.  No atom is
ever misclassified.

Both are decided from their leading bits where those suffice (Knuth and
Yao 1976; Devroye 1986, ch. III), reading exactly the stream bytes of the
full comparison.  A finite row's table maps an attempt's first byte to its
state (rng.draw_table); each round of the entrance law compares its draw
with integer thresholds of that round's brackets.

Streams are single-owner; parallel use gives each block of draws its own
stream, RngStream(seed, key + (i,)) (see the rng module).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .laws import HuaParams, kernel_weights, pi_n_weights, pi_s_bracket
from .matrix import (
    assemble_orbit,
    power_residues,
    read_residues,
    residue_dtype,
    residues,
    sample_haar_gl,
)
from .padic import PrecisionExhausted, check_prime
from .partitions import Partition, _conjugate
from .qseries import Bracket
from .rng import draw_table

# Absorption at 0 is almost sure and fast (masses decay like p^-x^2);
# the cap is a safety assertion, not a tuning knob.
CHAIN_STEP_CAP = 10_000


class _RowTables(dict):
    """Draw tables (rng.draw_table) of one family of rows at one (p, u, v),
    keyed by the row's size and built on first use."""

    __slots__ = ("weights", "hp")

    def __init__(self, weights, hp: HuaParams):
        super().__init__()
        self.weights, self.hp = weights, hp

    def __missing__(self, size):
        table = self[size] = draw_table(*self.weights(*self.hp, size))
        return table


@lru_cache(maxsize=None)
def _kernel_cumulative(hp: HuaParams) -> _RowTables:
    """Kernel rows by the state x1 they step from."""
    return _RowTables(kernel_weights, hp)


@lru_cache(maxsize=None)
def _pi_n_cumulative(hp: HuaParams) -> _RowTables:
    """Finite entrance laws pi_n by the size n."""
    return _RowTables(pi_n_weights, hp)


@lru_cache(maxsize=None)
def _pi_s_cumulative(hp: HuaParams, eps: Fraction, support: int) -> tuple:
    """Certified brackets of the limiting entrance law's CDF at 0..support,
    each atom bracketed to within eps."""
    cum = []
    acc = Bracket.exact(0)
    for x in range(support + 1):
        acc = acc + pi_s_bracket(hp, x, eps)
        cum.append(acc)
    return tuple(cum)


# Round one of sample_pi_s: the first 64-bit word against atom brackets of
# this width on the support 0..8.
_PI_S_WORD = 64
_PI_S_EPS = Fraction(1, 2**48)
_PI_S_SUPPORT = 8


@lru_cache(maxsize=None)
def _pi_s_bounds(hp: HuaParams, bits: int, halvings: int,
                 support: int) -> tuple:
    """One round of sample_pi_s on integers: the bits-bit draw u against
    the CDF brackets at 0..support, each atom bracketed to within
    _PI_S_EPS / 2^(16 halvings).  u decides atom x exactly when
    ceil(2^bits upper_(x-1)) <= u < floor(2^bits lower_x) (upper_(-1) = 0):
    that is the condition upper_(x-1) <= u / 2^bits and (u + 1) / 2^bits <=
    lower_x.  Returned as those bounds for x = 0..support in turn, each
    empty band's end raised to its start so the tuple is non-decreasing,
    then ceil(2^bits upper_support), at or above which u lies beyond the
    support: bisect_right over the tuple gives 2 x + 1 when u decides x,
    and the tuple's length when u lies beyond."""
    cum = _pi_s_cumulative(hp, _PI_S_EPS / 2**(16 * halvings), support)
    starts = [-(-(upper.numerator << bits) // upper.denominator)
              for upper in [Fraction(0)] + [c.upper for c in cum]]
    bounds = []
    for start, c in zip(starts, cum):
        end = (c.lower.numerator << bits) // c.lower.denominator
        bounds += [start, max(start, end)]
    return (*bounds, starts[-1])


def sample_pi_s(hp: HuaParams, rng) -> int:
    """Exact draw from the limiting entrance law on Z_+.

    Inverse CDF with bracket refinement: the uniform draw is extended 64
    bits at a time and the atom brackets tightened until the draw interval
    sits strictly inside one atom's cumulative slot.  Each round compares
    the draw with integer thresholds of its brackets (see _pi_s_bounds);
    a draw beyond the support doubles it, and any other undecided draw
    divides the bracket width by 2^16.
    """
    u = rng.randbits(_PI_S_WORD)
    bits, halvings, support = _PI_S_WORD, 0, _PI_S_SUPPORT
    while True:
        bounds = _pi_s_bounds(hp, bits, halvings, support)
        i = bisect_right(bounds, u)
        if i % 2 and i < len(bounds):
            return i // 2
        if bits == 256 * _PI_S_WORD:
            raise RuntimeError(
                "entrance-law draw failed to separate after 256 refinements")
        if i == len(bounds):
            support *= 2
        else:
            halvings += 1
        u = (u << _PI_S_WORD) | rng.randbits(_PI_S_WORD)
        bits += _PI_S_WORD


def run_chain(hp: HuaParams, start: int, rng) -> tuple:
    """States of the chain from ``start`` down to absorption at 0,
    including the start, excluding the absorbing 0.

    A step from x is the inverse-CDF draw bisect_right(cum, randbelow(d))
    over the kernel row of x, made by rng.choose from the row's draw table:
    the first byte of an attempt settles the state, or rejects the attempt,
    for all but the bytes whose attempts straddle a cumulative weight.  The
    rows of (p, t) are looked up once per chain.
    """
    rows = _kernel_cumulative(hp)
    choose = rng.choose
    path = []
    x = start
    while x > 0:
        path.append(x)
        if len(path) > CHAIN_STEP_CAP:
            raise AssertionError("chain failed to absorb within the step cap")
        x = choose(rows[x])
    return tuple(path)


def sample_nu(hp: HuaParams, rng) -> Partition:
    """Partition draw from the limiting law: entrance by the limiting
    entrance law, then the deformed chain run to absorption; the visited
    states are the tail counts of the partition."""
    start = sample_pi_s(hp, rng)
    return Partition.from_tail_counts(run_chain(hp, start, rng))


def sample_hua_tails(hp: HuaParams, n: int, rng) -> tuple:
    """(positive tails, nonpositive tails) of a size-n singular-number draw.

    Entrance: x ~ pi_n, drawn from its table like a chain step, gives the
    count of nonpositive parts.  The deformed chain from n - x yields the
    tail counts X_1 >= X_2 >= ... of the positive parts; the undeformed
    chain from x yields the tail counts of the nonpositive side
    (multiplicities of 0, -1, -2, ...).  Both chains always run, so the
    stream is consumed the same whichever side is used.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    x = rng.choose(_pi_n_cumulative(hp)[n])
    pos_tails = run_chain(hp, n - x, rng)
    return pos_tails, run_chain(hp.with_s_zero(), x, rng)


# Few tail pairs occur at the small sizes the Monte Carlo suites draw.
SINGULARS_CACHE_SIZE = 4096


@lru_cache(maxsize=SINGULARS_CACHE_SIZE)
def _singulars(pos_tails: tuple, neg_tails: tuple) -> tuple:
    """The singular-number tuple with the given tail counts on each side.

    Chain paths decrease weakly by construction, so each side is the
    conjugate of its tails: the positive parts directly, and the
    nonpositive ones as 1 - c over the conjugate's entries c, smallest
    first (the value -i occurs X_i - X_(i+1) times).
    """
    return _conjugate(pos_tails) + tuple(
        [1 - c for c in reversed(_conjugate(neg_tails))])


def sample_hua_singulars(hp: HuaParams, n: int, rng) -> tuple:
    """Exact draw of the singular-number tuple of a size-n matrix sample,
    weakly decreasing ints assembled from the tail counts of
    sample_hua_tails (see _singulars)."""
    return _singulars(*sample_hua_tails(hp, n, rng))


def sample_hua_matrix(hp: HuaParams, n: int, digits: int, rng) -> tuple:
    """One draw from the size-n bi-invariant law at the given window, as
    (k, b, c): its singular numbers and the reads of two independent Haar
    factors (see matrix.sample_haar_gl); hua_matrices assembles a chunk.

    Two-stage exact construction: singular numbers from the chain
    representation, then conjugation by the two Haar factors.  Raises
    PrecisionExhausted, before any factor is read, when the drawn top
    singular number would eat more than half the window (probability
    ~ p^-(digits/2)^2).
    """
    k = sample_hua_singulars(hp, n, rng)
    if k[0] > digits // 2:
        raise PrecisionExhausted(
            f"drawn singular number {k[0]} exceeds half the window {digits}")
    b = sample_haar_gl(n, hp.p, digits, rng)
    c = sample_haar_gl(n, hp.p, digits, rng)
    return k, b, c


def hua_matrices(draws, p: int, n: int, digits: int, size: int | None = None):
    """(residues, shifts) of the size x size corners (default n) of a chunk
    of sample_hua_matrix draws, as assemble_orbit gives them."""
    ks = [k for k, _, _ in draws]
    b = residues([b for _, b, _ in draws], p, digits).reshape(-1, n, n)
    c = residues([c for _, _, c in draws], p, digits).reshape(-1, n, n)
    return assemble_orbit(ks, b, c, p, digits, size)


def sample_ergodic_matrix(p: int, lam: Partition, n: int, digits: int,
                          rng) -> tuple:
    """One draw of the n x n corner of the ergodic matrix with parameter
    lam, as (parts, read): the parts k_m of lam and the read of its
    2 r n + n^2 residues, r the number of parts; ergodic_matrices assembles
    a chunk.

    Entry (i, j) is sum_m p^(-k_m) X_i^(m) Y_j^(m) + Z_ij, with all X, Y, Z
    i.i.d. Haar on Z_p at the window, taken from the read in a fixed order
    (X then Y per part, then Z row-major), so samples are a pure function
    of the stream.  Raises PrecisionExhausted when p^-k_1 does not fit the
    window.
    """
    check_prime(p)
    parts = lam.parts
    shift = parts[0] if parts else 0
    if shift >= digits:
        raise PrecisionExhausted(f"p^-{shift} overflows a {digits}-digit window")
    return parts, read_residues(rng, p, digits, (2 * len(parts) + n) * n)


def ergodic_matrices(draws, p: int, n: int, digits: int):
    """(residues, shifts) of a chunk of sample_ergodic_matrix draws: a
    (batch, n, n) stack of p^k_1 times each matrix mod p^digits, and the
    shifts k_1 (0 for an empty parameter).

    Parameters with fewer parts than the chunk's longest are padded with
    parts of scale 0, so one product sums every part of every draw.
    """
    batch = len(draws)
    r = np.array([len(parts) for parts, _ in draws], dtype=np.intp)
    rmax = int(r.max()) if batch else 0
    shifts = [parts[0] if parts else 0 for parts, _ in draws]
    # Padding parts sit digits below the shift, where the scale is 0.
    k = np.array([parts + (s - digits,) * (rmax - len(parts))
                  for (parts, _), s in zip(draws, shifts)],
                 dtype=np.int64).reshape(batch, rmax)
    pe = p**digits
    dtype = residue_dtype(p, digits, rmax + 1)
    top = np.array(shifts, dtype=np.int64)
    scales = power_residues(p, digits, top[:, None] - k, dtype)
    flat = residues([read for _, read in draws], p, digits).astype(
        dtype, copy=False)
    # Draw j's residues start at its offset: X^(m) at 2 m n, Y^(m) right
    # after it, Z after the parts.  Padding parts index the first X.
    sizes = (2 * r + n) * n
    start = np.cumsum(sizes) - sizes
    x_at = np.where(np.arange(rmax) < r[:, None],
                    start[:, None] + 2 * n * np.arange(rmax), 0)
    x_at = x_at[:, :, None] + np.arange(n)
    x = flat[x_at] * scales[:, :, None] % pe  # (batch, part, i)
    y = flat[x_at + n]  # (batch, part, j)
    z = flat[(start + 2 * r * n)[:, None] + np.arange(n * n)]
    z_scale = power_residues(p, digits, top, dtype)[:, None, None]
    return (x.transpose(0, 2, 1) @ y + z.reshape(batch, n, n) * z_scale) % pe, shifts
