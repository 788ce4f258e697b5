"""Matrices over Q_p and their singular numbers.

A matrix is stored as p^-shift times an integral residue matrix known
modulo p^digits, so every entry is known modulo p^(digits - shift) and
row/column elimination stays in integer arithmetic.  The singular numbers
of M = B diag(p^-k_1, ..., p^-k_N) C with B, C in GL(N, Z_p) are recovered
as k_i = shift - a_i where a_1 <= ... <= a_N are the valuations of the
Smith divisors of the residue matrix.

Certification floor: a pivot valuation is trusted only strictly below
digits - guard; singular numbers at or below shift - digits + guard are
reported as markers, never as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .laws import _singular_values
from .padic import DIGITS, PrecisionExhausted, check_prime, int_valuation


@dataclass(frozen=True)
class SingularTuple:
    """Weakly decreasing singular numbers; None marks a value <= floor.

    Markers can only occupy a suffix.  ``floor`` is the certification
    floor of the producing matrix (None when no markers are possible,
    e.g. for sampler output that is exact by construction).
    """

    p: int
    values: tuple
    floor: int | None = None

    def __post_init__(self):
        seen_marker = False
        prev = None
        for v in self.values:
            if v is None:
                seen_marker = True
                if self.floor is None:
                    raise ValueError("marker present but no floor declared")
                continue
            if seen_marker:
                raise ValueError(f"marker before a certified value in {self.values}")
            if prev is not None and v > prev:
                raise ValueError(f"values not weakly decreasing: {self.values}")
            if self.floor is not None and v <= self.floor:
                raise ValueError(f"certified value {v} at or below floor {self.floor}")
            prev = v

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_exact(self) -> bool:
        return all(v is not None for v in self.values)

    def exact_values(self) -> tuple:
        if not self.is_exact:
            raise PrecisionExhausted(
                f"singular numbers not fully certified (floor {self.floor}): {self.values}")
        return self.values

    def positive_part(self) -> tuple:
        """The positive singular numbers; always certified when floor <= 0."""
        if self.floor is not None and self.floor > 0:
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
    guard: int = 0

    def __post_init__(self):
        check_prime(self.p)
        if self.digits < 1:
            raise ValueError(f"digits must be >= 1, got {self.digits}")
        if not 0 <= self.guard < self.digits:
            raise ValueError(f"need 0 <= guard < digits, got {self.guard}, {self.digits}")
        if len(self.units) != self.n or any(len(r) != self.n for r in self.units):
            raise ValueError("units must be an n x n grid")
        modulus = self.p**self.digits
        if any(not 0 <= e < modulus for row in self.units for e in row):
            raise ValueError("unit residues out of window")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_units(cls, units, p: int, shift: int = 0, digits: int = DIGITS,
                   guard: int = 0) -> "PadicMatrix":
        modulus = p**digits
        grid = tuple(tuple(int(e) % modulus for e in row) for row in units)
        return cls(p, len(grid), shift, digits, grid, guard)

    @classmethod
    def from_rows(cls, rows, p: int, digits: int = DIGITS,
                  guard: int = 0) -> "PadicMatrix":
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
        return cls(p, n, shift, digits, tuple(units), guard)

    def __repr__(self):
        return (f"PadicMatrix(p={self.p}, n={self.n}, shift={self.shift}, "
                f"digits={self.digits})")


def corner(m: PadicMatrix, size: int) -> PadicMatrix:
    """Top-left size x size submatrix; shift and window preserved."""
    if not 1 <= size <= m.n:
        raise ValueError(f"corner size must be in [1, {m.n}], got {size}")
    units = tuple(row[:size] for row in m.units[:size])
    return PadicMatrix(m.p, size, m.shift, m.digits, units, m.guard)


def smith_valuations(rows, p: int, digits: int) -> list:
    """Valuations a_1 <= ... <= a_n of the Smith divisors of an integer
    matrix known modulo p^digits; a reported value of ``digits`` means the
    divisor's valuation is >= digits (uncertified).

    Shrinking-block elimination: the minimum valuation v of the remaining
    block is that of the gcd of its entries; the first entry with a nonzero
    residue mod p^(v+1) is the pivot.  Row operations clear the rest of the
    pivot column (every multiplier is integral because v is minimal, so the
    computation is exact modulo p^digits throughout), after which the pivot
    row and column are dropped: clearing the pivot row by column operations
    would leave the remaining block unchanged.  The valuations do not
    depend on which minimum-valuation entry is the pivot.
    """
    pe = p**digits
    a = [[e % pe for e in row] for row in rows]
    out = []
    while a:
        g = 0
        for row in a:
            g = gcd(g, *row)
        if g == 0:
            out.extend([digits] * len(a))
            break
        v = 0
        pv = 1
        while g % p == 0:
            g //= p
            v += 1
            pv *= p
        out.append(v)
        if len(a) == 1:
            break
        above = pv * p
        for bi, row in enumerate(a):
            for bj, e in enumerate(row):
                if e % above:
                    break
            else:
                continue
            break
        pivot_row = a.pop(bi)
        uinv = pow(pivot_row.pop(bj) // pv, -1, pe)
        for i, row in enumerate(a):
            e = row.pop(bj)
            if e:
                mult = e // pv * uinv % pe
                a[i] = [(x - mult * y) % pe for x, y in zip(row, pivot_row)]
    return out


def singular_numbers(m: PadicMatrix, guard: int | None = None) -> SingularTuple:
    """Singular numbers of m, certified strictly above the precision floor
    shift - digits + guard; values at or below it come back as markers."""
    if guard is None:
        guard = m.guard
    if not 0 <= guard < m.digits:
        raise ValueError(f"need 0 <= guard < digits, got {guard}, {m.digits}")
    vals = smith_valuations(m.units, m.p, m.digits)
    cutoff = m.digits - guard
    floor = m.shift - cutoff
    values = tuple(m.shift - a if a < cutoff else None for a in vals)
    return SingularTuple(m.p, values, floor)


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


def _det_mod_p(units, p: int) -> int:
    """Determinant of the residue matrix mod p (Gaussian elimination)."""
    a = [[e % p for e in row] for row in units]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[pivot], a[col] = a[col], a[pivot]
            det = -det % p
        inv = pow(a[col][col], -1, p)
        det = det * a[col][col] % p
        for i in range(col + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return det % p


def sample_haar_gl(n: int, p: int, digits: int, rng, guard: int = 0) -> PadicMatrix:
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
        units = tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))
        if _det_mod_p(units, p) != 0:
            return PadicMatrix(p, n, 0, digits, units, guard)


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
        if factor.shift != 0 or _det_mod_p(factor.units, factor.p) == 0:
            raise ValueError("orbit factors must lie in GL(n, Z_p)")
    p = b.p
    n = b.n
    digits = min(b.digits, c.digits)
    shift = vals[0]
    if shift >= digits:
        raise PrecisionExhausted(
            f"p^-{shift} overflows a {digits}-digit window")
    modulus = p**digits
    # Scale the columns of B by p^(shift - k_i), then multiply by C.
    scaled = [[b.units[i][j] * p ** (shift - vals[j]) % modulus for j in range(n)]
              for i in range(n)]
    cu = c.units
    units = tuple(
        tuple(sum(srow[t] * cu[t][j] for t in range(n)) % modulus for j in range(n))
        for srow in scaled)
    return PadicMatrix(p, n, shift, digits, units, max(b.guard, c.guard))


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


def parse_matrix_text(text: str, p: int, digits: int = DIGITS,
                      guard: int = 0) -> PadicMatrix:
    """Matrix literal: one row per line, whitespace-separated entries."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_entry(tok, p) for tok in line.split()])
    if not rows:
        raise ValueError("empty matrix literal")
    return PadicMatrix.from_rows(rows, p, digits, guard)


def format_entry(m: PadicMatrix, i: int, j: int) -> str:
    """Entry (i, j) as 'unit*p^v', or 'O(p^w)' when its residue is zero
    (the entry is then only known to lie in p^w Z_p, w = digits - shift)."""
    u = m.units[i][j]
    if u == 0:
        return f"O({m.p}^{m.digits - m.shift})"
    v = int_valuation(u, m.p)
    return f"{u // m.p**v}*{m.p}^{v - m.shift}"
