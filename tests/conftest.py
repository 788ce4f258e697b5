"""Shared fixtures and the acceptance summary printed at the end of a run.

A matrix in the tests is a plain (units, shift) pair: the matrix
p^-shift units, units a tuple of row tuples of residues mod p^digits.
"""

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from padic_hua.laws import kernel_row, pi_n_row
from padic_hua.matrix import (
    residue_dtype,
    residues,
    sample_haar_gl,
    singular_numbers,
    smith_valuations,
)
from padic_hua.padic import DIGITS, PrecisionExhausted, int_valuation
from padic_hua.partitions import Partition
from padic_hua.samplers import (
    _pi_s_cumulative,
    ergodic_matrices,
    hua_matrices,
    sample_ergodic_matrix,
    sample_hua_matrix,
)

_CRITERION_LINES = {}


def record_criterion(number: int, description: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"[criterion {number}] {status}: {description}"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def from_rows(rows, p, digits=DIGITS):
    """The (units, shift) pair of a matrix of exact rationals, shift the
    largest entry shift.  Entries may have denominators prime to p, which
    a matrix literal cannot write."""
    entries = [[Fraction(e) for e in row] for row in rows]
    shift = max([0] + [int_valuation(e.denominator, p)
                       - int_valuation(e.numerator, p)
                       for row in entries for e in row if e])
    modulus = p**digits
    units = []
    for row in entries:
        scaled = [e * Fraction(p) ** shift for e in row]
        units.append(tuple(e.numerator * pow(e.denominator, -1, modulus)
                           % modulus for e in scaled))
    return tuple(units), shift


def read_one(m, p, digits, guard=0):
    """(values, floor) of one (units, shift) pair from singular_numbers on
    a stack of one, each marker as None."""
    units, shift = m
    values, floors = singular_numbers(
        np.array([units], dtype=residue_dtype(p, digits)), [shift], p, digits,
        guard)
    [vals], [floor] = values.tolist(), floors.tolist()
    return tuple([v if v > floor else None for v in vals]), floor


def marker_list(m, p, digits, guard):
    """The singular numbers of one (units, shift) pair from its own Smith
    call, without singular_numbers: shift - a for each valuation a below
    digits - guard, None for the others."""
    units, shift = m
    [vals] = smith_valuations([[[e] for e in row] for row in units], p,
                              digits).tolist()
    return tuple(shift - a if a < digits - guard else None for a in vals)


def matmul(a, b, p, digits):
    """Product of two (units, shift) pairs mod p^digits; the shifts add.
    The library never multiplies matrices, so only tests need it."""
    (ua, sa), (ub, sb) = a, b
    modulus = p**digits
    units = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % modulus
              for col in zip(*ub))
        for row in ua)
    return units, sa + sb


def laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(n))


def bareiss_det(rows):
    """Integer determinant by fraction-free (Bareiss) elimination, each
    division exact; rows are swapped to a nonzero pivot."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# Tail sums of an LProfile, references for the tail counts in the laws.


def min_index(profile) -> int:
    return profile.mult[0][0] if profile.mult else 0


def max_index(profile) -> int:
    return profile.mult[-1][0] if profile.mult else 0


def upper_tail(profile, i: int) -> int:
    """Sum of l_j over j >= i."""
    return sum(l for idx, l in profile.mult if idx >= i)


def lower_tail(profile, i: int) -> int:
    """Sum of l_j over j <= i."""
    return sum(l for idx, l in profile.mult if idx <= i)


class ReferenceStream:
    """The byte stream RngStream reproduces, read from numpy's Generator:
    a 512-byte buffer, each refill one Generator.bytes(max(512, k)) call on
    the stream's PCG64 bit generator."""

    def __init__(self, seed, key=()):
        ss = np.random.SeedSequence(seed, spawn_key=key)
        self.gen = np.random.Generator(np.random.PCG64(ss))
        self.buf = b""
        self.pos = 0
        self.bits_consumed = 0

    def randbytes(self, k):
        if self.pos + k > len(self.buf):
            self.buf = self.buf[self.pos:] + self.gen.bytes(max(512, k))
            self.pos = 0
        out = self.buf[self.pos:self.pos + k]
        self.pos += k
        self.bits_consumed += 8 * k
        return out

    def randbits(self, k):
        nbytes = (k + 7) // 8
        self.bits_consumed -= 8 * nbytes - k
        return int.from_bytes(self.randbytes(nbytes), "big") >> (8 * nbytes - k)


def cumulative_weights(row) -> tuple:
    """(d, cumulative integer weights) of an exact row of Fractions, where d
    is the lcm of the row's denominators: entry i of the weights is d times
    the sum of the masses up to i.  The row sums to 1 exactly when the last
    weight equals d."""
    d = math.lcm(*(m.denominator for m in row))
    cum, acc = [], 0
    for m in row:
        acc += m.numerator * (d // m.denominator)
        cum.append(acc)
    return d, tuple(cum)


# Stream references for the draw loops: every rejection attempt one
# randbits call, every chain step one inverse-CDF draw from its kernel row,
# built here from the row itself.


def reference_randbelow(rng, n):
    """Uniform integer in [0, n) by rejection, one randbits(k) an attempt."""
    if n == 1:
        return 0
    k = (n - 1).bit_length()
    while True:
        r = rng.randbits(k)
        if r < n:
            return r


def reference_draw(row, rng):
    """Inverse-CDF draw from an exact row over the integer cumulative
    weights of its common denominator."""
    d, cum = cumulative_weights(row)
    return bisect_right(cum, reference_randbelow(rng, d))


def reference_pi_s(hp, rng):
    """The limiting entrance law drawn by Fraction comparisons in every
    round, the first included: each round extends the uniform draw by 64
    bits and tightens the atom brackets until the draw interval sits inside
    one atom's cumulative slot."""
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
        cum = _pi_s_cumulative(hp, eps, support)
        prev_upper = Fraction(0)
        for x in range(support + 1):
            if u_lo >= prev_upper and u_hi <= cum[x].lower:
                return x
            prev_upper = cum[x].upper
        if u_lo >= cum[support].upper:
            support *= 2
        else:
            eps /= 2**16
    raise RuntimeError("entrance-law draw failed to separate after 256 refinements")


def reference_chain(hp, start, rng):
    path = []
    x = start
    while x > 0:
        path.append(x)
        x = reference_draw(kernel_row(hp, x), rng)
    return tuple(path)


def reference_hua_tails(hp, n, rng):
    x = reference_draw(pi_n_row(hp, n), rng)
    return reference_chain(hp, n - x, rng), reference_chain(hp.with_s_zero(), x, rng)


def reference_hua_singulars(pos_tails, neg_tails):
    """The singular-number tuple of two tail-count paths: the parts of the
    partition with the positive tails, then -i repeated X_i - X_(i+1)
    times for the nonpositive tails X_0, X_1, ..."""
    values = list(Partition.from_tail_counts(pos_tails).parts)
    for i, x in enumerate(neg_tails):
        nxt = neg_tails[i + 1] if i + 1 < len(neg_tails) else 0
        values.extend([-i] * (x - nxt))
    return tuple(values)


# Scalar references for the stacked matrix draws: one Python-int matrix at
# a time, read by one randbelow code decoded by sequential divmod.


def reference_residues(rng, modulus, count):
    code = rng.randbelow(modulus**count)
    flat = []
    for _ in range(count):
        code, r = divmod(code, modulus)
        flat.append(r)
    return flat


def reference_haar(n, p, digits, rng):
    """Plain rejection loop: one uniform residue grid per attempt, decoded
    by sequential divmod, accepted when the integer determinant (Bareiss)
    is a unit."""
    while True:
        flat = reference_residues(rng, p**digits, n * n)
        rows = [flat[i:i + n] for i in range(0, n * n, n)]
        if bareiss_det(rows) % p:
            return tuple(tuple(row) for row in rows)


def reference_orbit(k, b, c, p, digits):
    """B diag(p^-k_1, ..., p^-k_n) C for row tuples b and c."""
    shift = k[0]
    if shift >= digits:
        raise PrecisionExhausted(f"p^-{shift} overflows a {digits}-digit window")
    modulus = p**digits
    scales = [p ** (shift - v) for v in k]
    units = tuple(
        tuple(sum(x * s * y for x, s, y in zip(brow, scales, col)) % modulus
              for col in zip(*c))
        for brow in b)
    return units, shift


def reference_ergodic(p, parts, flat, n, digits):
    """sum_m p^(-k_m) X^(m) Y^(m)^T + Z from residues in the order X then Y
    per part, then Z row-major."""
    shift = parts[0] if parts else 0
    modulus = p**digits
    z0 = 2 * len(parts) * n
    units = []
    for i in range(n):
        row = []
        for j in range(n):
            e = p**shift * flat[z0 + i * n + j]
            for m, km in enumerate(parts):
                e += (p ** (shift - km) * flat[2 * m * n + i]
                      * flat[(2 * m + 1) * n + j])
            row.append(e % modulus)
        units.append(tuple(row))
    return tuple(units), shift


def reference_ergodic_matrix(p, lam, n, digits, rng):
    """sample_ergodic_matrix, assembled, one matrix at a time."""
    parts = lam.parts
    if parts and parts[0] >= digits:
        raise PrecisionExhausted(f"p^-{parts[0]} overflows a {digits}-digit window")
    flat = reference_residues(rng, p**digits, (2 * len(parts) + n) * n)
    return reference_ergodic(p, parts, flat, n, digits)


def stack_matrices(units, shifts):
    """The matrices of a residue stack as (units, shift) pairs."""
    return [(tuple(map(tuple, u)), shift)
            for u, shift in zip(units.tolist(), shifts)]


def haar_matrix(n, p, digits, rng):
    """One sample_haar_gl draw as a (units, 0) pair."""
    flat = residues(sample_haar_gl(n, p, digits, rng, 1), p, digits).tolist()
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)), 0


def hua_matrix(hp, n, digits, rng):
    """One sample_hua_matrix draw, assembled, as a (units, shift) pair."""
    draw = sample_hua_matrix(hp, n, digits, rng)
    return stack_matrices(*hua_matrices([draw], hp.p, n, digits))[0]


def ergodic_matrix(p, k, n, digits, rng):
    """One sample_ergodic_matrix draw, assembled, as a (units, shift) pair.
    The parameter k is a partition or a nonnegative, eventually zero
    sequence, whose zeros are dropped."""
    lam = k if isinstance(k, Partition) else Partition(tuple(v for v in k if v))
    draw = sample_ergodic_matrix(p, lam, n, digits, rng)
    return stack_matrices(*ergodic_matrices([draw], p, n, digits))[0]
