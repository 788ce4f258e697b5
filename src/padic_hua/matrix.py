"""Matrices over Q_p and their singular numbers.

A matrix is stored as p^-shift times an integral residue matrix known
modulo p^digits, so every entry is known modulo p^(digits - shift) and
row/column elimination stays in integer arithmetic.  The singular numbers
of M = B diag(p^-k_1, ..., p^-k_N) C with B, C in GL(N, Z_p) are recovered
as k_i = shift - a_i where a_1 <= ... <= a_N are the valuations of the
Smith divisors of the residue matrix.

Certification floor: the guard is an argument of the read alone.
singular_numbers(m, guard) trusts a pivot valuation only strictly below
digits - guard; singular numbers at or below shift - digits + guard are
reported as markers, never as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .laws import _singular_values
from .padic import DIGITS, PrecisionExhausted, check_prime, int_valuation


@dataclass(frozen=True)
class SingularTuple:
    """Weakly decreasing singular numbers read off a matrix; None marks a
    value <= floor, the certification floor of the read.

    Markers can only occupy a suffix.
    """

    values: tuple
    floor: int

    def __post_init__(self):
        seen_marker = False
        prev = None
        for v in self.values:
            if v is None:
                seen_marker = True
                continue
            if seen_marker:
                raise ValueError(f"marker before a certified value in {self.values}")
            if prev is not None and v > prev:
                raise ValueError(f"values not weakly decreasing: {self.values}")
            if v <= self.floor:
                raise ValueError(f"certified value {v} at or below floor {self.floor}")
            prev = v

    @property
    def is_exact(self) -> bool:
        return all(v is not None for v in self.values)

    def positive_part(self) -> tuple:
        """The positive singular numbers; always certified when floor <= 0."""
        if self.floor > 0:
            raise PrecisionExhausted(f"floor {self.floor} > 0, positive part uncertain")
        return tuple(v for v in self.values if v is not None and v > 0)


def _check_window(p: int, digits: int) -> None:
    check_prime(p)
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")


@dataclass(frozen=True)
class PadicMatrix:
    """N x N matrix equal to p^-shift * units, units known mod p^digits."""

    p: int
    n: int
    shift: int
    digits: int
    units: tuple

    def __post_init__(self):
        _check_window(self.p, self.digits)
        if len(self.units) != self.n or any(len(r) != self.n for r in self.units):
            raise ValueError("units must be an n x n grid")
        modulus = self.p**self.digits
        if any(not 0 <= e < modulus for row in self.units for e in row):
            raise ValueError("unit residues out of window")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _reduced(cls, p: int, n: int, shift: int, digits: int,
                 units: tuple) -> "PadicMatrix":
        """For an n x n grid this package has just reduced mod p^digits
        itself: the window is checked, the grid is not scanned again."""
        _check_window(p, digits)
        m = object.__new__(cls)
        vars(m).update(p=p, n=n, shift=shift, digits=digits, units=units)
        return m

    @classmethod
    def from_units(cls, units, p: int, shift: int = 0,
                   digits: int = DIGITS) -> "PadicMatrix":
        modulus = p**digits
        grid = tuple(tuple(int(e) % modulus for e in row) for row in units)
        return cls(p, len(grid), shift, digits, grid)

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
    return PadicMatrix._reduced(m.p, size, m.shift, m.digits, units)


def smith_valuations(stack, p: int, digits: int) -> list:
    """Valuations a_1 <= ... <= a_n of the Smith divisors of every matrix in
    a stack of n x n integer matrices known modulo p^digits, one list per
    matrix; a reported value of ``digits`` means the divisor's valuation is
    >= digits (uncertified).

    ``stack[i][j][b]`` is entry (i, j) of matrix b: the batch axis is last,
    so ``len(stack)`` is the matrix size n.  Entries must be integers (below
    2^63 in magnitude on the int64 path below).

    One shrinking-block elimination runs on the whole stack at once.  Smith
    valuations never decrease, so each matrix keeps a level v, raised while
    no entry of its remaining block is nonzero mod p^(v+1); a block that is
    zero mod p^digits gets ``digits`` for all its remaining valuations.  The
    first entry in row-major order that is nonzero mod p^(v+1) is the pivot
    u p^v, u a unit.  The row operations row_i <- u row_i - (c_i / p^v)
    pivot_row, c_i the entry of row i in the pivot column, clear that
    column; they are integral and invertible over Z_p, so the computation
    is exact modulo p^digits throughout.  The pivot row and column are then
    dropped (clearing the pivot row by column operations would leave the
    remaining block unchanged): the front row and column are copied into
    their places and the front ones dropped, so no other entry moves.  The
    valuations do not depend on which minimum-valuation entry is the pivot.

    Every product stays below p^(2 digits), so the stack is held as int64
    when that is below 2^63 and as Python ints (dtype object) otherwise.
    """
    pe = p**digits
    dtype = np.int64 if pe * pe < 2**63 else object
    a = np.array(stack, dtype=dtype, order="C")
    a %= pe
    n, _, batch = a.shape
    cols = np.arange(batch)
    powers = np.array([p**i for i in range(digits + 2)], dtype=dtype)
    level = np.zeros(batch, dtype=np.intp)
    out = np.empty((n, batch), dtype=np.intp)
    for step in range(n):
        r = n - step
        while True:
            nonzero = (a % powers[level + 1] != 0).reshape(r * r, batch)
            lagging = ~nonzero.any(axis=0) & (level < digits)
            if not lagging.any():
                break
            level += lagging
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


def singular_numbers(m: PadicMatrix, guard: int = 0) -> SingularTuple:
    """Singular numbers of m, certified strictly above the precision floor
    shift - digits + guard; values at or below it come back as markers."""
    return stack_singular_numbers([m], guard)[0]


def stack_singular_numbers(ms, guard: int = 0) -> list:
    """singular_numbers of each matrix in ``ms`` (all of one p, size and
    window; shifts may differ) at one guard, from one smith_valuations
    call."""
    if not ms:
        return []
    p, n, digits = ms[0].p, ms[0].n, ms[0].digits
    if any(m.p != p or m.n != n or m.digits != digits for m in ms):
        raise ValueError("a stack needs one p, size and window")
    if not 0 <= guard < digits:
        raise ValueError(f"need 0 <= guard < digits, got {guard}, {digits}")
    stack = np.array([m.units for m in ms]).reshape(len(ms), n, n)
    stack = stack.transpose(1, 2, 0)
    cutoff = digits - guard
    out = []
    for m, vals in zip(ms, smith_valuations(stack, p, digits)):
        values = tuple([m.shift - a if a < cutoff else None for a in vals])
        out.append(SingularTuple(values, m.shift - cutoff))
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


# Residue patterns mod p whose answer det_is_unit_mod_p remembers.  There
# are p^(n^2) patterns; all 512 of the largest Haar factor the corner
# experiments draw, n = 3 at p = 2, fit.
UNIT_DET_CACHE_SIZE = 4096


@lru_cache(maxsize=UNIT_DET_CACHE_SIZE)
def _unit_det_pattern(p: int, n: int, pattern: tuple) -> bool:
    """Whether the n x n matrix with row-major residues ``pattern`` mod p
    has a nonzero determinant mod p (Gaussian elimination over F_p)."""
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


def det_is_unit_mod_p(units, p: int) -> bool:
    """Whether the determinant of a square integer matrix is a unit mod p,
    i.e. whether the matrix lies in GL(n, Z_p).  The answer depends only on
    the residues mod p, so it is memoised on that pattern."""
    pattern = tuple([e % p for row in units for e in row])
    return _unit_det_pattern(p, len(units), pattern)


def sample_haar_gl(n: int, p: int, digits: int, rng) -> PadicMatrix:
    """Haar-distributed element of GL(n, Z_p) truncated to the window.

    Rejection sampler: uniform residues on Mat(n, Z/p^digits) accepted
    when the determinant is a unit mod p.  Acceptance probability is
    (p^-1; p^-1)_n, which stays above 0.28 for all n.
    """
    check_prime(p)
    modulus = p**digits
    bulk = modulus ** (n * n)
    while True:
        # One bulk draw per attempt: base-p^digits digits of a uniform
        # integer below p^(digits*n^2) are uniform independent residues.
        flat = decode_residues(rng.randbelow(bulk), modulus, n * n)
        if _unit_det_pattern(p, n, tuple([e % p for e in flat])):
            units = tuple([tuple(flat[i:i + n]) for i in range(0, n * n, n)])
            return PadicMatrix._reduced(p, n, 0, digits, units)


def assemble_orbit(k, b: PadicMatrix, c: PadicMatrix) -> PadicMatrix:
    """B * diag(p^-k_1, ..., p^-k_N) * C for exact singular numbers k.

    B and C must be invertible over Z_p (shift 0, unit determinant mod p).
    The result carries shift k_1; raises PrecisionExhausted when p^-k_1
    does not fit the window at all.
    """
    vals = _singular_values(k)
    if b.p != c.p or b.n != c.n or len(vals) != b.n:
        raise ValueError("incompatible orbit factors")
    for factor in (b, c):
        if factor.shift != 0 or not det_is_unit_mod_p(factor.units, factor.p):
            raise ValueError("orbit factors must lie in GL(n, Z_p)")
    p = b.p
    digits = min(b.digits, c.digits)
    shift = vals[0]
    if shift >= digits:
        raise PrecisionExhausted(
            f"p^-{shift} overflows a {digits}-digit window")
    modulus = p**digits
    # Scale the columns of B by p^(shift - k_i), then multiply by C.
    scales = [p ** (shift - v) for v in vals]
    cols = list(zip(*c.units))
    units = tuple([
        tuple([sum(map(mul, srow, col)) % modulus for col in cols])
        for srow in ([x * s for x, s in zip(brow, scales)] for brow in b.units)])
    return PadicMatrix._reduced(p, b.n, shift, digits, units)


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


def format_entry(m: PadicMatrix, i: int, j: int) -> str:
    """Entry (i, j) as 'unit*p^v', or 'O(p^w)' when its residue is zero
    (the entry is then only known to lie in p^w Z_p, w = digits - shift)."""
    u = m.units[i][j]
    if u == 0:
        return f"O({m.p}^{m.digits - m.shift})"
    v = int_valuation(u, m.p)
    return f"{u // m.p**v}*{m.p}^{v - m.shift}"
