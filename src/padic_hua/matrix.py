"""Matrices over Q_p and their singular numbers.

A matrix is stored as p^-shift times an integral residue matrix known
modulo p^digits, so every entry is known modulo p^(digits - shift) and
row/column elimination stays in integer arithmetic.  The singular numbers
of M = B diag(p^-k_1, ..., p^-k_N) C with B, C in GL(N, Z_p) are recovered
as k_i = shift - a_i where a_1 <= ... <= a_N are the valuations of the
Smith divisors of the residue matrix.

Matrices are held as stacks: a (batch, n, n) numpy array of residues and
one shift per matrix, read from the stream (read_residues, residues),
assembled (assemble_orbit) or parsed from a literal (parse_matrix_text),
and handed to smith_valuations as they are.

Certification floor: the guard is an argument of the read alone.
singular_numbers(units, shifts, p, digits, guard) trusts a pivot valuation
only strictly below digits - guard.  It returns the singular numbers as an
integer array with each matrix's floor shift - digits + guard; a value at
or below its floor is a marker, never a number.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product

import numpy as np

from .padic import DIGITS, int_valuation


def corner(units, size: int):
    """Top-left size x size corners of a (batch, n, n) residue stack; each
    matrix keeps its shift and the window."""
    n = units.shape[-1]
    if not 1 <= size <= n:
        raise ValueError(f"corner size must be in [1, {n}], got {size}")
    return units[:, :size, :size]


def smith_valuations(stack, p: int, digits: int) -> np.ndarray:
    """Valuations a_1 <= ... <= a_n of the Smith divisors of every matrix in
    a stack of n x n integer matrices known modulo p^digits, one row of a
    (batch, n) array per matrix; a reported value of ``digits`` means the
    divisor's valuation is >= digits (uncertified).

    ``stack[i][j][b]`` is entry (i, j) of matrix b: the batch axis is last,
    so ``len(stack)`` is the matrix size n.  Entries must be integers (below
    2^63 in magnitude on the int64 path below).

    One shrinking-block elimination runs on the whole stack at once.  Smith
    valuations never decrease, so each matrix keeps a level v, the least
    valuation in its remaining block: a step where no entry of some block
    is nonzero mod p^(v+1) sets every level to min(valuation, digits) at
    once, read off p^min(v, digits).  A block that is zero mod
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

    The two ops are picked once.  At p = 2, x mod 2^k is x & (2^k - 1) and
    x / 2^v is x >> v (two's complement and an arithmetic shift, so a
    negative x reduces correctly), and p^min(v, digits) is the lowest set
    bit x & -x of x = (OR of the block) | 2^digits.  Other p take numpy's
    % and // by p^k, and gcd(block, p^digits).

    Every product stays below p^(2 digits), so the stack is held in
    residue_dtype(p, digits).
    """
    pe = p**digits
    dtype = residue_dtype(p, digits)
    powers = np.array([p**i for i in range(digits + 2)], dtype=dtype)
    if p == 2:
        reduce, moduli = np.bitwise_and, powers - 1
        divide, divisors = np.right_shift, np.arange(digits + 2)
    else:
        reduce, moduli = np.remainder, powers
        divide, divisors = np.floor_divide, powers
    a = np.array(stack, dtype=dtype, order="C")
    reduce(a, moduli[digits], out=a)
    n, _, batch = a.shape
    cols = np.arange(batch)
    level = np.zeros(batch, dtype=np.intp)
    out = np.empty((n, batch), dtype=np.intp)
    for step in range(n):
        r = n - step
        nonzero = (reduce(a, moduli[level + 1]) != 0).reshape(r * r, batch)
        if (~nonzero.any(axis=0) & (level < digits)).any():
            # Some level lags: p^min(v, digits) sets them all at once.  A
            # reduction at every step would cost more on large matrices,
            # whose levels seldom lag.
            block = a.reshape(r * r, batch)
            if p == 2:
                low = np.bitwise_or.reduce(block) | pe
                low &= -low
            else:
                low = np.gcd(np.gcd.reduce(block), pe)
            level = np.searchsorted(powers, low)
            nonzero = reduce(block, moduli[level + 1]) != 0
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
        unit = divide(pivot_row[cols, bj], divisors[level])
        pivot_row[cols, bj] = pivot_row[:, 0]
        a *= unit
        a -= divide(pivot_col, divisors[level])[:, None] * pivot_row[:, 1:].T
        reduce(a, moduli[digits], out=a)
    return out.T


def residue_dtype(p: int, digits: int, terms: int = 1):
    """numpy dtype of residue stacks mod p^digits: int64 when a sum of
    ``terms`` products of two residues stays below 2^63, else object
    (Python ints)."""
    return np.int64 if terms * p ** (2 * digits) < 2**63 else object


def singular_numbers(units, shifts, p: int, digits: int, guard: int = 0):
    """Singular numbers of each matrix p^-shift U of a stack, from one
    smith_valuations call: ``units`` is a (batch, n, n) array of residues
    mod p^digits and ``shifts`` holds one int per matrix.

    Returns (values, floors): the (batch, n) integer array of the
    shift - a_i, weakly decreasing along each row, and the array of each
    matrix's certification floor shift - digits + guard.  A value at or
    below its floor is a marker: its pivot valuation reached
    digits - guard, where it is not certified.  Markers end their row.

    Callers keep 0 <= guard < digits, which is not checked here:
    cli.cmd_sample and cli.cmd_sing check --guard against --E, the Monte
    Carlo experiments pass padic.GUARD at the DIGITS window, and
    enumerate_oracle passes guard 0.
    """
    shifts = np.array(shifts, dtype=np.int64)
    values = shifts[:, None] - smith_valuations(
        units.transpose(1, 2, 0), p, digits)
    return values, shifts - (digits - guard)


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
    # read's groups in residue order, each group little-endian; zero-padded
    # to 8 bytes, a group is its residue as a little-endian int64 (an int64
    # residue has width <= 7, since p^digits < 2^63).
    raw = np.frombuffer(b"".join(reversed(reads))[::-1], dtype=np.uint8)
    words = np.zeros((raw.size // width, 8), dtype=np.uint8)
    words[:, :width] = raw.reshape(-1, width)
    return words.view("<i8").reshape(-1).astype(np.int64, copy=False)


# Patterns of residues mod p that one acceptance table holds at most.  There
# are p^(n^2) patterns; all 512 of the largest Haar factor the corner
# experiments draw, n = 3 at p = 2, fit.
UNIT_DET_CACHE_SIZE = 4096


def _unit_dets(p: int, stack) -> np.ndarray:
    """Whether each matrix of a (batch, n, n) int64 stack has a nonzero
    determinant mod p, as a boolean array: one Gaussian elimination over
    F_p on the whole stack.

    At column j each matrix swaps its first row from j down that is
    nonzero there into row j, the pivot row, and a matrix with no such
    row is singular.  The rows below become pivot * row_i - c_i * pivot
    row, c_i the row's entry in column j: integral, and invertible mod p
    since the pivot is a unit, so no inverse is taken.  Only the columns
    right of j are read again, and only they are updated.  Every value
    stays within p^2 of 0, so the rows are held in the smallest signed
    type that holds p^2 (int8 up to p = 11; p^2 <= 2^62 fits int64).
    """
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if p * p <= np.iinfo(t).max)
    a = np.remainder(stack, p).astype(dtype)
    batch, n, _ = a.shape
    alive = np.ones(batch, dtype=bool)
    at = np.arange(batch)
    for j in range(n):
        nonzero = a[:, j:, j] != 0
        alive &= nonzero.any(axis=1)
        if not alive.any():
            break
        pivot_at = j + nonzero.argmax(axis=1)
        top = a[at, pivot_at]  # (batch, n), a copy
        a[at, pivot_at] = a[:, j]
        rest = a[:, j + 1:, j + 1:]
        rest *= top[:, j, None, None]
        rest -= a[:, j + 1:, j, None] * top[:, None, j + 1:]
        rest %= p
    return alive


def _unit_det_pattern(p: int, n: int, pattern) -> bool:
    """Whether the n x n matrix with the row-major residues mod p in
    ``pattern`` (a sequence of ints, or bytes) has a nonzero determinant
    mod p (see _unit_dets)."""
    stack = np.fromiter(pattern, dtype=np.int64, count=n * n)
    return bool(_unit_dets(p, stack.reshape(1, n, n))[0])


@lru_cache(maxsize=None)
def _unit_det_test(p: int, n: int):
    """The acceptance test of a Haar attempt: a function of its residues
    mod p, row-major or last to first (the pattern of the matrix turned a
    half-turn, which reverses its rows and its columns and keeps its
    determinant), as bytes when p < 256 and as a tuple of ints above.

    Where p^(n^2) <= UNIT_DET_CACHE_SIZE and p < 256 (a residue fits a
    byte), it looks the pattern up in a dict of every pattern, built here
    by one elimination of them all; else _unit_det_pattern eliminates.
    """
    if p < 256 and p ** (n * n) <= UNIT_DET_CACHE_SIZE:
        patterns = np.array(list(product(range(p), repeat=n * n)),
                            dtype=np.int64)
        units = _unit_dets(p, patterns.reshape(-1, n, n)).tolist()
        return dict(zip(map(bytes, patterns.astype(np.uint8)),
                        units)).__getitem__
    return partial(_unit_det_pattern, p, n)


def sample_haar_gl(n: int, p: int, digits: int, rng, count: int) -> list:
    """``count`` consecutive Haar-distributed elements of GL(n, Z_p)
    truncated to the window, as the list of their reads, each the n x n
    residues of its element in row-major order (see read_residues;
    ``residues(reads, p, digits).reshape(-1, n, n)`` stacks them).

    Rejection sampler: uniform residues on Mat(n, Z/p^digits) accepted
    when the determinant is a unit mod p.  Acceptance probability is
    (p^-1; p^-1)_n, which stays above 0.28 for all n.  Acceptance depends
    only on the residues mod p, decided by _unit_det_test: one table
    lookup of their pattern at small sizes, one F_p elimination at large
    ones.  On the byte path (p = 2) the stream's accepted_reads scans the
    attempts in its buffer, keyed by the low bit of each residue's last
    byte.  Each element is the first accepted read after the one before
    it, so ``count`` reads consume the stream as ``count`` calls of one
    would.

    p is taken to be prime, as HuaParams.of checked it for every caller.
    """
    width = byte_width(p, digits)
    accept = _unit_det_test(p, n)
    if width:
        return rng.accepted_reads(width * n * n, width, accept, count)
    pack = bytes if p < 256 else tuple
    reads = []
    while len(reads) < count:
        read = read_residues(rng, p, digits, n * n)
        if accept(pack([e % p for e in read])):
            reads.append(read)
    return reads


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

    ``ks`` holds one weakly decreasing n-tuple per matrix with k_1 at most
    half the window, ``b`` and ``c`` are (batch, n, n) stacks of factors
    in GL(n, Z_p) and 1 <= size <= n.  None of it is checked here: the one
    caller, samplers.hua_matrices, reshapes both stacks from one read of
    the attempts sample_hua_attempts kept (k from chain paths, k_1 <=
    digits // 2, factors accepted by sample_haar_gl), at size n or the
    corner_to that run_corners_consistency checked.  Matrix j is p^-k_1
    times residues mod p^digits, so the shifts are the k_1.
    """
    n = b.shape[-1]
    k = np.array(ks, dtype=np.int64).reshape(len(ks), n)
    size = n if size is None else size
    pe = p**digits
    dtype = residue_dtype(p, digits, n)
    scales = power_residues(p, digits, k[:, :1] - k, dtype)
    left = b[:, :size].astype(dtype) * scales[:, None, :] % pe
    units = left @ c[:, :, :size].astype(dtype) % pe
    return units, k[:, 0].tolist()


# -- text format for matrix literals ---------------------------------------


def parse_entry(token: str, p: int) -> tuple:
    """Parse one matrix entry, 'a', 'a*p^v' or 'p^v' with integers a and
    v, as (a, v): the entry is a p^v."""
    token = token.strip()
    if "^" not in token:
        return int(token), 0
    mant, _, exp = token.partition("^")
    if "*" in mant:
        a_str, _, base_str = mant.partition("*")
    else:
        a_str, base_str = "1", mant
    base = int(base_str)
    if base != p:
        raise ValueError(f"entry base {base} does not match p = {p}")
    return int(a_str), int(exp)


def parse_matrix_text(text: str, p: int, digits: int = DIGITS) -> tuple:
    """Matrix literal, one row per line and whitespace-separated entries,
    as (units, shift): the matrix is p^-shift units, units an n x n array of
    residues mod p^digits and shift the largest entry shift (at least 0).

    Each entry u p^v, u a unit, becomes the residue u p^(v + shift) mod
    p^digits, so no power of p is expanded beyond the window.  p is taken
    to be prime: cli.cmd_sing, the one caller, checks --p first.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([parse_entry(tok, p) for tok in line.split()])
    if not rows:
        raise ValueError("empty matrix literal")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    entries = []  # (u, v): u a unit, or (0, 0) for a zero entry
    for row in rows:
        for a, v in row:
            if a:
                w = int_valuation(a, p)
                entries.append((a // p**w, v + w))
            else:
                entries.append((0, 0))
    shift = max(0, *(-v for _, v in entries))
    modulus = p**digits
    units = [u * pow(p, v + shift, modulus) % modulus for u, v in entries]
    return (np.array(units, dtype=residue_dtype(p, digits)).reshape(n, n),
            shift)


def format_entry(u: int, p: int, shift: int, digits: int) -> str:
    """The entry p^-shift u, u a residue mod p^digits, as 'unit*p^v', or
    'O(p^w)' when u is zero (the entry is then only known to lie in
    p^w Z_p, w = digits - shift)."""
    if u == 0:
        return f"O({p}^{digits - shift})"
    v = int_valuation(u, p)
    return f"{u // p**v}*{p}^{v - shift}"
