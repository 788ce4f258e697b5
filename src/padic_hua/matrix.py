"""Matrices over Q_p and their singular numbers.

A matrix is stored as p^-shift times an integral residue matrix known
modulo p^digits, so every entry is known modulo p^(digits - shift) and
row/column elimination stays in integer arithmetic.  The singular numbers
of M = B diag(p^-k_1, ..., p^-k_N) C with B, C in GL(N, Z_p) are recovered
as k_i = shift - a_i where a_1 <= ... <= a_N are the valuations of the
Smith divisors of the residue matrix.

A PadicMatrix holds one matrix, such as a literal.  Monte Carlo draws are
held as stacks instead: a (batch, n, n) numpy array of residues, one shift
per matrix, read from the stream (read_residues, residues), assembled
(assemble_orbit) and handed to smith_valuations as they are.

Certification floor: the guard is an argument of the read alone.
singular_numbers(m, guard) trusts a pivot valuation only strictly below
digits - guard; singular numbers at or below shift - digits + guard are
reported as markers, never as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .padic import DIGITS, PrecisionExhausted, check_prime, int_valuation


@dataclass(frozen=True)
class SingularTuple:
    """Weakly decreasing singular numbers read off a matrix; None marks a
    value <= floor, the certification floor of the read.

    stack_singular_numbers builds them from Smith valuations, which never
    decrease: so the values never increase, markers occupy a suffix and
    every value lies above the floor.
    """

    values: tuple
    floor: int

    @property
    def is_exact(self) -> bool:
        return all(v is not None for v in self.values)

    def positive_part(self) -> tuple:
        """The positive singular numbers; always certified when floor <= 0."""
        if self.floor > 0:
            raise PrecisionExhausted(f"floor {self.floor} > 0, positive part uncertain")
        return tuple(v for v in self.values if v is not None and v > 0)


@dataclass(frozen=True)
class PadicMatrix:
    """N x N matrix equal to p^-shift * units, units known mod p^digits."""

    p: int
    n: int
    shift: int
    digits: int
    units: tuple

    def __post_init__(self):
        check_prime(self.p)
        if self.digits < 1:
            raise ValueError(f"digits must be >= 1, got {self.digits}")
        if len(self.units) != self.n or any(len(r) != self.n for r in self.units):
            raise ValueError("units must be an n x n grid")
        modulus = self.p**self.digits
        if any(not 0 <= e < modulus for row in self.units for e in row):
            raise ValueError("unit residues out of window")

    @classmethod
    def from_rows(cls, rows, p: int, digits: int = DIGITS) -> "PadicMatrix":
        """Exact rational entries -> matrix; shift is the max entry shift."""
        check_prime(p)
        entries = [[Fraction(e) for e in row] for row in rows]
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        shift = 0
        for row in entries:
            for e in row:
                if e != 0:
                    v = int_valuation(e.numerator, p) - int_valuation(e.denominator, p)
                    shift = max(shift, -v)
        modulus = p**digits
        units = []
        for row in entries:
            scaled_row = []
            for e in row:
                scaled = e * Fraction(p) ** shift
                num, den = scaled.numerator, scaled.denominator
                scaled_row.append(num * pow(den, -1, modulus) % modulus)
            units.append(tuple(scaled_row))
        return cls(p, n, shift, digits, tuple(units))

    def __repr__(self):
        return (f"PadicMatrix(p={self.p}, n={self.n}, shift={self.shift}, "
                f"digits={self.digits})")


def corner(m: PadicMatrix, size: int) -> PadicMatrix:
    """Top-left size x size submatrix; shift and window preserved."""
    if not 1 <= size <= m.n:
        raise ValueError(f"corner size must be in [1, {m.n}], got {size}")
    units = tuple([row[:size] for row in m.units[:size]])
    return PadicMatrix(m.p, size, m.shift, m.digits, units)


def smith_valuations(stack, p: int, digits: int) -> list:
    """Valuations a_1 <= ... <= a_n of the Smith divisors of every matrix in
    a stack of n x n integer matrices known modulo p^digits, one list per
    matrix; a reported value of ``digits`` means the divisor's valuation is
    >= digits (uncertified).

    ``stack[i][j][b]`` is entry (i, j) of matrix b: the batch axis is last,
    so ``len(stack)`` is the matrix size n.  Entries must be integers (below
    2^63 in magnitude on the int64 path below).

    One shrinking-block elimination runs on the whole stack at once.  Smith
    valuations never decrease, so each matrix keeps a level v, the least
    valuation in its remaining block: a step where no entry of some block
    is nonzero mod p^(v+1) sets every level to min(valuation, digits) at
    once, read off gcd(block, p^digits).  A block that is zero mod
    p^digits gets ``digits`` for all its remaining valuations.  The
    first entry in row-major order that is nonzero mod p^(v+1) is the pivot
    u p^v, u a unit.  The row operations row_i <- u row_i - (c_i / p^v)
    pivot_row, c_i the entry of row i in the pivot column, clear that
    column; they are integral and invertible over Z_p, so the computation
    is exact modulo p^digits throughout.  The pivot row and column are then
    dropped (clearing the pivot row by column operations would leave the
    remaining block unchanged): the front row and column are copied into
    their places and the front ones dropped, so no other entry moves.  The
    valuations do not depend on which minimum-valuation entry is the pivot.

    Every product stays below p^(2 digits), so the stack is held in
    residue_dtype(p, digits).
    """
    pe = p**digits
    dtype = residue_dtype(p, digits)
    a = np.array(stack, dtype=dtype, order="C")
    a %= pe
    n, _, batch = a.shape
    cols = np.arange(batch)
    powers = np.array([p**i for i in range(digits + 2)], dtype=dtype)
    level = np.zeros(batch, dtype=np.intp)
    out = np.empty((n, batch), dtype=np.intp)
    for step in range(n):
        r = n - step
        nonzero = (a % powers[level + 1] != 0).reshape(r * r, batch)
        if (~nonzero.any(axis=0) & (level < digits)).any():
            # Some level lags: gcd(block, p^digits) = p^min(v, digits) sets
            # them all at once.  A gcd at every step would cost more on
            # large matrices, whose levels seldom lag.
            block = a.reshape(r * r, batch)
            level = np.searchsorted(powers, np.gcd(np.gcd.reduce(block), pe))
            nonzero = block % powers[level + 1] != 0
        out[step] = level
        if r == 1:
            break
        bi, bj = np.divmod(nonzero.argmax(axis=0), r)
        pivot_row = a[bi, :, cols]  # (batch, r)
        a[bi, :, cols] = a[0].T
        a = a[1:]
        pivot_col = a[:, bj, cols]  # (r - 1, batch)
        a[:, bj, cols] = a[:, 0]
        a = a[:, 1:]
        pv = powers[level]
        unit = pivot_row[cols, bj] // pv
        pivot_row[cols, bj] = pivot_row[:, 0]
        a *= unit
        a -= (pivot_col // pv)[:, None] * pivot_row[:, 1:].T
        a %= pe
    return out.T.tolist()


def residue_dtype(p: int, digits: int, terms: int = 1):
    """numpy dtype of residue stacks mod p^digits: int64 when a sum of
    ``terms`` products of two residues stays below 2^63, else object
    (Python ints)."""
    return np.int64 if terms * p ** (2 * digits) < 2**63 else object


def singular_numbers(m: PadicMatrix, guard: int = 0) -> SingularTuple:
    """Singular numbers of m, certified strictly above the precision floor
    shift - digits + guard; values at or below it come back as markers."""
    units = np.array([m.units], dtype=residue_dtype(m.p, m.digits))
    return stack_singular_numbers(units, [m.shift], m.p, m.digits, guard)[0]


def stack_singular_numbers(units, shifts, p: int, digits: int,
                           guard: int = 0) -> list:
    """singular_numbers of each matrix p^-shift U of a stack, at one guard,
    from one smith_valuations call: ``units`` is a (batch, n, n) array of
    residues mod p^digits and ``shifts`` holds one int per matrix."""
    if not 0 <= guard < digits:
        raise ValueError(f"need 0 <= guard < digits, got {guard}, {digits}")
    if not len(units):
        return []
    cutoff = digits - guard
    out = []
    for shift, vals in zip(shifts, smith_valuations(
            units.transpose(1, 2, 0), p, digits)):
        values = tuple([shift - a if a < cutoff else None for a in vals])
        out.append(SingularTuple(values, shift - cutoff))
    return out


def decode_residues(code: int, modulus: int, count: int) -> list:
    """The ``count`` lowest base-``modulus`` digits of ``code``, least
    significant first: the same residues as ``count`` sequential
    ``code, r = divmod(code, modulus)`` steps.

    The code is split in halves until the pieces are short, so a long code
    is not divided once per residue, which is quadratic in its length.  A
    power-of-two split is a shift and a mask.
    """
    if count <= 16:
        out = []
        for _ in range(count):
            code, r = divmod(code, modulus)
            out.append(r)
        return out
    half = count // 2
    base = modulus**half
    if base & (base - 1):
        hi, lo = divmod(code, base)
    else:
        hi, lo = code >> (base.bit_length() - 1), code & (base - 1)
    return (decode_residues(lo, modulus, half)
            + decode_residues(hi, modulus, count - half))


# -- reading residues from a stream --------------------------------------------
#
# A read of c residues mod p^digits consumes the stream exactly as
# randbelow(p^(digits c)) does, and its residues are that integer's base
# p^digits digits, least significant first.


@lru_cache(maxsize=None)
def byte_width(p: int, digits: int) -> int:
    """m when p^digits = 2^(8m) and residues are held as int64, else 0.

    Then randbelow(p^(digits c)) is exactly randbits(8 m c), with no
    rejection: a read is the stream's next m c bytes, and residue i is the
    i-th big-endian group of m bytes counted from the end.
    """
    if p == 2 and digits % 8 == 0 and residue_dtype(p, digits) is np.int64:
        return digits // 8
    return 0


def read_residues(rng, p: int, digits: int, count: int):
    """A read of ``count`` uniform residues mod p^digits: the bytes on the
    byte path (see byte_width), else the decoded list of residues."""
    width = byte_width(p, digits)
    if width:
        return rng.randbytes(width * count)
    modulus = p**digits
    return decode_residues(rng.randbelow(modulus**count), modulus, count)


def residues(reads, p: int, digits: int) -> np.ndarray:
    """Every residue of a list of reads as one flat array of
    residue_dtype(p, digits), in read order and least significant first
    within a read."""
    width = byte_width(p, digits)
    if not width:
        return np.array([e for read in reads for e in read],
                        dtype=residue_dtype(p, digits))
    # Reversing the joined bytes of the reads taken last to first puts each
    # read's groups in residue order, each group little-endian.
    raw = np.frombuffer(b"".join(reversed(reads))[::-1], dtype=np.uint8)
    return raw.reshape(-1, width).astype(np.int64) @ 256 ** np.arange(width)


# Residue patterns mod p whose answer _unit_det_pattern remembers.  There
# are p^(n^2) patterns; all 512 of the largest Haar factor the corner
# experiments draw, n = 3 at p = 2, fit.
UNIT_DET_CACHE_SIZE = 4096

# Low bit of every byte value: a residue's parity on the byte path.
_PARITY = bytes(b & 1 for b in range(256))


@lru_cache(maxsize=UNIT_DET_CACHE_SIZE)
def _unit_det_pattern(p: int, n: int, pattern: tuple) -> bool:
    """Whether the n x n matrix with the row-major residues mod p in
    ``pattern`` (a tuple, or bytes on the byte path) has a nonzero
    determinant mod p (Gaussian elimination over F_p)."""
    a = [list(pattern[i:i + n]) for i in range(0, n * n, n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return False
        a[pivot], a[col] = a[col], a[pivot]
        inv = pow(a[col][col], -1, p)
        for i in range(col + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return True


def sample_haar_gl(n: int, p: int, digits: int, rng):
    """Haar-distributed element of GL(n, Z_p) truncated to the window, as
    the read of its n x n residues in row-major order (see read_residues;
    ``residues(reads, p, digits).reshape(-1, n, n)`` stacks a chunk).

    Rejection sampler: uniform residues on Mat(n, Z/p^digits) accepted
    when the determinant is a unit mod p.  Acceptance probability is
    (p^-1; p^-1)_n, which stays above 0.28 for all n.  Acceptance depends
    only on the residues mod p, memoised by their pattern: on the byte path
    (p = 2) the low bit of the last byte of each group.
    """
    check_prime(p)
    width = byte_width(p, digits)
    while True:
        if width:
            read = rng.randbytes(width * n * n)
            pattern = read[::-width].translate(_PARITY)
        else:
            read = read_residues(rng, p, digits, n * n)
            pattern = tuple([e % p for e in read])
        if _unit_det_pattern(p, n, pattern):
            return read


def power_residues(p: int, digits: int, exponents, dtype) -> np.ndarray:
    """p^e mod p^digits for an integer array of exponents e >= 0, as
    ``dtype``; exponents at or above digits give 0."""
    powers = np.array([p**i for i in range(digits)] + [0], dtype=dtype)
    return powers[np.minimum(exponents, digits)]


def assemble_orbit(ks, b, c, p: int, digits: int, size: int | None = None):
    """Residues and shifts of B diag(p^-k_1, ..., p^-k_n) C for a stack of
    exact singular numbers k, cut to the top-left size x size corner
    (default n); only the corner's rows of B and columns of C are
    multiplied.

    ``ks`` holds one weakly decreasing n-tuple per matrix; ``b`` and ``c``
    are (batch, n, n) residue stacks of factors in GL(n, Z_p).  Matrix j is
    p^-k_1 times residues mod p^digits, so the shifts are the k_1.  Raises
    PrecisionExhausted when some p^-k_1 does not fit the window at all.
    """
    batch, n = len(ks), b.shape[-1]
    k = np.array(ks, dtype=np.int64).reshape(batch, n)
    if b.shape != (batch, n, n) or c.shape != b.shape:
        raise ValueError("incompatible orbit factors")
    if (k[:, :-1] < k[:, 1:]).any():
        raise ValueError("singular numbers must be weakly decreasing")
    size = n if size is None else size
    if not 1 <= size <= n:
        raise ValueError(f"corner size must be in [1, {n}], got {size}")
    patterns = (np.concatenate([b, c]) % p).reshape(2 * batch, n * n)
    if not all(_unit_det_pattern(p, n, tuple(row)) for row in patterns.tolist()):
        raise ValueError("orbit factors must lie in GL(n, Z_p)")
    if batch:
        shift = int(k[:, 0].max())
        if shift >= digits:
            raise PrecisionExhausted(
                f"p^-{shift} overflows a {digits}-digit window")
    pe = p**digits
    dtype = residue_dtype(p, digits, n)
    scales = power_residues(p, digits, k[:, :1] - k, dtype)
    left = b[:, :size].astype(dtype) * scales[:, None, :] % pe
    units = left @ c[:, :, :size].astype(dtype) % pe
    return units, k[:, 0].tolist()


# -- text format for matrix literals ---------------------------------------


def parse_entry(token: str, p: int) -> Fraction:
    """Parse one matrix entry: 'a', 'a*p^v' or 'p^v' with integer a, v."""
    token = token.strip()
    if "^" in token:
        mant, _, exp = token.partition("^")
        if "*" in mant:
            a_str, _, base_str = mant.partition("*")
        else:
            a_str, base_str = "1", mant
        base = int(base_str)
        if base != p:
            raise ValueError(f"entry base {base} does not match p = {p}")
        return Fraction(int(a_str)) * Fraction(p) ** int(exp)
    return Fraction(int(token))


def parse_matrix_text(text: str, p: int, digits: int = DIGITS) -> PadicMatrix:
    """Matrix literal: one row per line, whitespace-separated entries."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_entry(tok, p) for tok in line.split()])
    if not rows:
        raise ValueError("empty matrix literal")
    return PadicMatrix.from_rows(rows, p, digits)


def format_entry(u: int, p: int, shift: int, digits: int) -> str:
    """The entry p^-shift u, u a residue mod p^digits, as 'unit*p^v', or
    'O(p^w)' when u is zero (the entry is then only known to lie in
    p^w Z_p, w = digits - shift)."""
    if u == 0:
        return f"O({p}^{digits - shift})"
    v = int_valuation(u, p)
    return f"{u // p**v}*{p}^{v - shift}"
