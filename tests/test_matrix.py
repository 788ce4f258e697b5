import random
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from padic_hua.laws import HuaParams, _normalization, gamma_exponent, hua_density
from padic_hua.matrix import (
    _unit_det_pattern,
    _unit_det_test,
    assemble_orbit,
    corner,
    decode_residues,
    format_entry,
    parse_matrix_text,
    read_residues,
    residue_dtype,
    residues,
    sample_haar_gl,
    singular_numbers,
    smith_valuations,
)
from padic_hua.padic import int_valuation
from padic_hua.rng import RngStream

from conftest import (
    bareiss_det,
    from_rows,
    haar_matrix,
    laplace_det as _det,
    marker_list,
    matmul,
    read_one,
    reference_haar,
    stack_matrices,
)


def literal(rows, p, digits=24):
    """The (units, shift) pair parse_matrix_text gives for integer rows."""
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    units, shift = parse_matrix_text(text, p, digits)
    return tuple(map(tuple, units.tolist())), shift


def minor_gcd_singular_numbers(rows, p):
    """Independent oracle: k_i from determinantal divisors.

    d_r = gcd of all r x r minors of the exact integer matrix; the Smith
    valuation a_r is v_p(d_r) - v_p(d_{r-1}); singular numbers are -a_r,
    sorted decreasingly.  Only valid for exact integer matrices with
    nonzero determinantal divisors.
    """
    n = len(rows)
    prev_val = 0
    ks = []
    for r in range(1, n + 1):
        minors = []
        for rsel in combinations(range(n), r):
            for csel in combinations(range(n), r):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                minors.append(_det(sub))
        d = gcd(*minors) if len(minors) > 1 else abs(minors[0])
        if d == 0:
            return None
        val = int_valuation(d, p)
        ks.append(-(val - prev_val))
        prev_val = val
    return tuple(sorted(ks, reverse=True))


class TestSingularNumbers:
    def test_diagonal(self):
        m = from_rows([[F(1, 2), 0], [0, 1]], 2)
        assert read_one(m, 2, 24)[0] == (1, 0)

    def test_worked_example(self):
        m = from_rows([[2, 1], [0, 4]], 2)
        values, _ = read_one(m, 2, 24)
        assert values == (0, -3)
        assert minor_gcd_singular_numbers([[2, 1], [0, 4]], 2) == (0, -3)

    def test_zero_matrix_all_marked(self):
        for p in (2, 3):
            m = from_rows([[0, 0], [0, 0]], p, digits=5)
            values, floor = read_one(m, p, 5)
            assert values == (None, None)
            assert floor == -5
            assert None in values

    def test_guard_shrinks_certification(self):
        m = from_rows([[16, 0], [0, 1]], 2, digits=6)
        assert read_one(m, 2, 6, guard=0)[0] == (0, -4)
        assert read_one(m, 2, 6, guard=3)[0] == (0, None)

    @given(st.lists(st.lists(st.integers(-200, 200), min_size=3, max_size=3),
                    min_size=3, max_size=3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=150)
    def test_matches_minor_gcd_oracle(self, rows, p):
        oracle = minor_gcd_singular_numbers(rows, p)
        values, _ = read_one(literal(rows, p), p, 24)
        if oracle is not None:
            assert values == oracle
        else:
            assert None in values  # singular matrices hit the floor


def stack(*matrices):
    """(units, shifts) of a stack of (units, shift) pairs."""
    return (np.array([units for units, _ in matrices]),
            [shift for _, shift in matrices])


class TestCorner:
    def test_identity_case(self):
        units, _ = stack(literal([[1, 2], [3, 4]], 2))
        assert (corner(units, 2) == units).all()

    def test_diagonal_corner(self):
        units, shifts = stack(literal([[5, 0], [0, 7]], 2))
        c = corner(units, 1)
        assert c.shape == (1, 1, 1) and c.tolist() == [[[5]]] and shifts == [0]

    def test_projective_consistency(self):
        units, _ = stack(literal([[i * 3 + j + 1 for j in range(3)]
                                  for i in range(3)], 2))
        assert (corner(corner(units, 2), 1) == corner(units, 1)).all()

    def test_window_preserved(self):
        # the corner's entries keep the matrix's shift and window
        m = from_rows([[F(1, 4), 1], [1, 1]], 2, digits=10)
        units, shifts = stack(m)
        c = corner(units, 1)
        assert read_one((c[0].tolist(), shifts[0]), 2, 10) == ((2,), -8)
        assert format_entry(int(c[0, 0, 0]), 2, shifts[0], 10) == "1*2^-2"

    def test_bad_size(self):
        units, _ = stack(literal([[1]], 2))
        with pytest.raises(ValueError):
            corner(units, 2)
        with pytest.raises(ValueError):
            corner(units, 0)


class TestHaarGl:
    def test_invertible_and_singular_zero(self):
        for i in range(50):
            m = haar_matrix(3, 2, 12, RngStream(3, (i,)))
            assert read_one(m, 2, 12)[0] == (0, 0, 0)

    def test_gl2_f2_count_is_six(self):
        # |GL(2, F_2)| = 6 of 16, the acceptance probability 3/8 numerator.
        invertible = sum(
            1 for a in range(2) for b in range(2) for c in range(2)
            for d in range(2) if (a * d - b * c) % 2)
        assert invertible == 6
        # sanity on pochhammer path
        assert _normalization(HuaParams.of(2, F(1)), 1) == F(2, 3)

    def test_uniform_on_gl2_f2(self):
        draws = 20000
        counts = {}
        for i in range(draws):
            units, _ = haar_matrix(2, 2, 8, RngStream(17, (i,)))
            key = tuple(e % 2 for row in units for e in row)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 35  # df=5, far beyond any reasonable quantile


def eye_stack(n, batch=1):
    return np.array([np.eye(n, dtype=np.int64)] * batch)


class TestOrbit:
    def test_identity_factors_give_diagonal(self):
        eye = eye_stack(2)
        units, shifts = assemble_orbit([(1, -2)], eye, eye, 2, 24)
        # 2^-1 * diag(1, 8) = diag(1/2, 4), off-diagonal residues zero
        assert shifts == [1]
        assert units.tolist() == [[[1, 0], [0, 8]]]

    def test_round_trip_and_determinant(self):
        for i, k in enumerate([(0, 0, 0), (2, 1, -1), (3, 0, -2), (-1, -1, -4)]):
            b, _ = haar_matrix(3, 2, 24, RngStream(99, (2 * i,)))
            c, _ = haar_matrix(3, 2, 24, RngStream(99, (2 * i + 1,)))
            [m] = stack_matrices(*assemble_orbit(
                [k], np.array([b]), np.array([c]), 2, 24))
            assert read_one(m, 2, 24)[0] == k
            # det(m) = p^(-n*shift) det(units), det(units) known mod p^digits
            units, shift = m
            det = _det([list(row) for row in units]) % 2**24
            assert int_valuation(det, 2) - 3 * shift == -sum(k)


def test_bi_invariance_of_singular_numbers():
    m = from_rows([[6, F(1, 2), 3], [0, 12, 5], [8, 1, 2]], 2)
    reference = read_one(m, 2, 24)[0]
    for i in range(10):
        b = haar_matrix(3, 2, 24, RngStream(5, (2 * i,)))
        c = haar_matrix(3, 2, 24, RngStream(5, (2 * i + 1,)))
        bmc = matmul(matmul(b, m, 2, 24), c, 2, 24)
        assert read_one(bmc, 2, 24)[0] == reference


class TestGammaAndDensity:
    def test_gamma_examples(self):
        assert gamma_exponent((2, 1, 0, -3)) == 3
        assert gamma_exponent((0, -1, -5)) == 0
        assert gamma_exponent((1,)) == 1

    def test_gamma_with_markers_below_zero(self):
        # markers sit at or below a floor <= 0, so the positive part
        # leaves them out
        values, floors = singular_numbers(
            np.array([[[1, 0, 0], [0, 2, 0], [0, 0, 0]]]), [2], 2, 6, 0)
        assert values.tolist() == [[2, 1, -4]] and floors.tolist() == [-4]
        assert gamma_exponent(tuple(v for v in values[0].tolist() if v > 0)) == 3

    def test_normalization(self):
        assert _normalization(HuaParams.of(2, F(1)), 1) == F(1, 4) / F(3, 8)

    def test_density_nonpositive_tuple_is_normalization(self):
        hp = HuaParams.of(2, F(1))
        power, coeff = hua_density(hp, (0, -2))
        assert power == 0 and coeff == _normalization(hp, 2)

    def test_density_worked_example(self):
        power, coeff = hua_density(HuaParams.of(2, F(1)), (1,))
        assert coeff * F(2) ** power == F(1, 6)

    def test_density_t_dependence(self):
        hp = HuaParams.of(2, F(1, 2))
        power, coeff = hua_density(hp, (2, 1))
        assert power == -2 * 2 * 3
        assert coeff == _normalization(hp, 2) * F(1, 2) ** 3


class TestMatrixText:
    def test_parse_and_singulars(self):
        units, shift = parse_matrix_text("2 1\n0 4\n", 2)
        assert read_one((units.tolist(), shift), 2, 24)[0] == (0, -3)

    def test_parse_scaled_entries(self):
        units, shift = parse_matrix_text("3*2^-1 1\n0 1*2^2\n", 2)
        assert shift == 1
        assert units[0][0] == 3 and units[1][1] == 8

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            parse_matrix_text("3*5^1\n", 2)

    def test_format_round_trip(self):
        units, shift = from_rows([[F(3, 2), 0], [7, 1]], 2)
        def entry(i, j):
            return format_entry(units[i][j], 2, shift, 24)

        assert entry(0, 0) == "3*2^-1"
        assert entry(1, 0) == "7*2^0"
        assert entry(0, 1) == "O(2^23)"

    def test_comments_and_blank_lines(self):
        units, _ = parse_matrix_text("# header\n\n1 0\n0 1\n", 2)
        assert len(units) == 2

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-6, 6)),
                    min_size=4, max_size=4),
           st.sampled_from([2, 3]), st.integers(1, 12))
    def test_literal_matches_exact_rationals(self, entries, p, digits):
        # 'a*p^v' entries read as residues match the exact rationals a p^v
        text = f"{entries[0][0]}*{p}^{entries[0][1]} {entries[1][0]}*{p}^{entries[1][1]}\n"
        text += f"{entries[2][0]}*{p}^{entries[2][1]} {entries[3][0]}*{p}^{entries[3][1]}"
        units, shift = parse_matrix_text(text, p, digits)
        rows = [[F(a) * F(p) ** v for a, v in entries[i:i + 2]] for i in (0, 2)]
        assert (tuple(map(tuple, units.tolist())), shift) == from_rows(rows, p, digits)

    def test_huge_exponents_stay_in_the_window(self):
        units, shift = parse_matrix_text("2^10000000000 1\n1 1", 2)
        assert units.tolist() == [[0, 1], [1, 1]] and shift == 0
        units, shift = parse_matrix_text("2^-3000000 1\n1 0*2^-9", 2)
        assert units.tolist() == [[1, 0], [0, 0]] and shift == 3_000_000


def test_corner_singular_numbers_defined_at_every_size():
    rng = RngStream(21)
    units = np.array([[[rng.randbelow(2**10) for _ in range(4)]
                       for _ in range(4)] for _ in range(15)])
    for size in range(1, 5):
        values, floors = singular_numbers(corner(units, size), [1] * 15, 2, 10)
        assert values.shape == (15, size) and floors.tolist() == [-9] * 15


def stack_of(matrices, n):
    """Matrices as one smith_valuations stack: entry (i, j) of matrix b at
    [i][j][b]."""
    return [[[m[i][j] for m in matrices] for j in range(n)] for i in range(n)]


def smith_one(rows, p, digits):
    return smith_valuations(stack_of([rows], len(rows)), p, digits)[0].tolist()


def test_smith_chain_divisibility():
    rng = RngStream(8)
    for i in range(30):
        units = [[rng.randbelow(3**6) for _ in range(4)] for _ in range(4)]
        vals = smith_one(units, 3, 6)
        assert all(vals[i] <= vals[i + 1] for i in range(3))


def _determinantal_divisor(rows, k):
    """D_k: the gcd of all k x k minors of an integer matrix (D_0 = 1)."""
    if k == 0:
        return 1
    n = len(rows)
    return gcd(*(_det([[rows[i][j] for j in csel] for i in rsel])
                 for rsel in combinations(range(n), k)
                 for csel in combinations(range(n), k)))


@st.composite
def residue_matrices(draw):
    """(rows, p, digits): an N x N integer matrix, N <= 3, with entries in
    [0, p^digits); some are rank deficient, all multiples of p or zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    digits = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    pe = p**digits
    kind = draw(st.sampled_from(["any", "repeated-row", "multiple-of-p", "zero"]))
    step = p if kind == "multiple-of-p" else 1
    entry = st.integers(0, pe // step - 1).map(lambda e: step * e)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if kind == "repeated-row":
        rows[-1] = list(rows[0])
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    return rows, p, digits


def determinantal_valuations(rows, p, digits):
    """a_k = v(D_k) - v(D_(k-1)), capped at the window; v(0) is infinite."""
    expected = []
    prev = _determinantal_divisor(rows, 0)
    for k in range(1, len(rows) + 1):
        d = _determinantal_divisor(rows, k)
        expected.append(digits if d == 0 else
                        min(int_valuation(d, p) - int_valuation(prev, p), digits))
        prev = d
    return expected


@given(residue_matrices())
@example(([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 3, 4))
@example(([[2, 4], [6, 12]], 2, 4))
@example(([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 5, 1))
@settings(max_examples=300)
def test_smith_matches_determinantal_divisors(case):
    rows, p, digits = case
    assert smith_one(rows, p, digits) == determinantal_valuations(rows, p, digits)


@st.composite
def residue_stacks(draw):
    """(matrices, n, p, digits): 0 to 20 N x N integer matrices, N <= 3,
    with entries in [0, p^digits).  Each is random, zero, has a repeated
    row, or has every entry a multiple of p^j."""
    p = draw(st.sampled_from([2, 3, 5]))
    digits = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    pe = p**digits
    matrices = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["any", "repeated-row", "multiple", "zero"]))
        step = p ** draw(st.integers(1, digits)) if kind == "multiple" else 1
        entry = st.integers(0, pe // step - 1).map(lambda e: step * e)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        if kind == "repeated-row":
            rows[-1] = list(rows[0])
        elif kind == "zero":
            rows = [[0] * n for _ in range(n)]
        matrices.append(rows)
    return matrices, n, p, digits


@given(residue_stacks())
@example(([[[2, 4], [6, 12]], [[0, 0], [0, 0]], [[1, 0], [0, 8]],
           [[4, 8], [8, 4]]], 2, 2, 4))
@example(([], 2, 3, 2))
@settings(max_examples=300)
def test_stacked_smith_matches_determinantal_divisors(case):
    # every matrix of a stack gets its own valuations, whatever it shares
    # the stack with
    matrices, n, p, digits = case
    got = smith_valuations(stack_of(matrices, n), p, digits).tolist()
    assert len(got) == len(matrices)
    for rows, vals in zip(matrices, got):
        assert vals == determinantal_valuations(rows, p, digits)
        assert vals == smith_one(rows, p, digits)


def orbit_rows(rng, p, digits, ks):
    """B diag(p^k) C mod p^digits for random B, C with unit determinant."""
    n = len(ks)
    pe = p**digits
    while True:
        b, c = ([[rng.randbelow(pe) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        if _det(b) % p and _det(c) % p:
            break
    bd = [[e * p**k for e, k in zip(row, ks)] for row in b]
    return [[sum(bd[i][m] * c[m][j] for m in range(n)) % pe
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p, digits", [(3, 24), (2, 32), (2**31 - 1, 2)])
def test_wide_windows_match_determinantal_divisors(p, digits):
    # p^(2 digits) >= 2^63 here: products of residues overflow int64, so
    # these stacks must be eliminated over Python ints
    rng = RngStream(23, (p, digits))
    matrices = []
    for i in range(40):
        n = 3
        ks = sorted(rng.randbelow(digits + 2) for _ in range(n))
        rows = orbit_rows(rng, p, digits, ks)
        if i % 4 == 1:
            rows[-1] = list(rows[0])
        matrices.append(rows)
    matrices.append([[0] * 3 for _ in range(3)])
    matrices.append([[p**digits - 1] * 3 for _ in range(3)])
    got = smith_valuations(stack_of(matrices, 3), p, digits).tolist()
    for rows, vals in zip(matrices, got):
        assert vals == determinantal_valuations(rows, p, digits)
        assert vals == smith_one(rows, p, digits)


@pytest.mark.parametrize("p, digits, dtype", [
    (2, 10, np.int64), (3, 6, np.int64), (5, 4, np.int64),
    (2, 32, object), (3, 20, object), (5, 14, object)])
def test_smith_levels_jump_several_powers_in_one_stack(p, digits, dtype):
    # Matrices that never lag share a stack with ones whose level rises by
    # several powers of p at one step, and with blocks that are zero mod
    # p^digits from the first step or from a later one.
    assert residue_dtype(p, digits) is dtype
    rng = RngStream(53, (p, digits))
    exponents = [(0, 0, 0), (3, 3, digits - 1), (0, 4, digits + 1),
                 (1, digits, digits), (digits + 2,) * 3, (2, 5, 5), (0, 0, 2)]
    matrices = [orbit_rows(rng, p, digits, ks)
                for _ in range(3) for ks in exponents]
    got = smith_valuations(stack_of(matrices, 3), p, digits).tolist()
    for rows, vals in zip(matrices, got):
        assert vals == determinantal_valuations(rows, p, digits)
    for vals in ([0, 0, 0], [3, 3, digits - 1], [1, digits, digits],
                 [digits] * 3):
        assert vals in got


def triangular_unimodular(rng, n, p, digits):
    """L U mod p^digits, L lower and U upper triangular with unit
    diagonals: it lies in GL(n, Z_p) with no determinant computed."""
    pe = p**digits
    lower, upper = (np.array([[rng.randrange(pe) for _ in range(n)]
                              for _ in range(n)], dtype=object)
                    for _ in range(2))
    lower, upper = np.tril(lower), np.triu(upper)
    for m in (lower, upper):
        m[np.diag_indices(n)] = [p * rng.randrange(pe // p) + rng.randrange(1, p)
                                 for _ in range(n)]
    return lower @ upper % pe


def triangular_orbit(rng, ks, p, digits):
    """B diag(p^k) C mod p^digits for unimodular B and C."""
    n = len(ks)
    pe = p**digits
    b, c = (triangular_unimodular(rng, n, p, digits) for _ in range(2))
    scale = np.array([pow(p, k, pe) for k in ks], dtype=object)
    return (b * scale) @ c % pe


@pytest.mark.parametrize("p, digits", [(2, 8), (2, 24), (2, 31), (3, 19)])
@pytest.mark.parametrize("n", [8, 16])
def test_large_stacks_match_their_orbit_exponents(n, p, digits):
    # At p = 2 the elimination takes masks, shifts and an OR-reduction; on
    # matrices as large as the ergodic experiments eliminate, up to the
    # widest window held in int64.  Exponents at or above digits leave a
    # zero divisor; levels rise by one power, by several at one step, or
    # not at all, within one stack.  At p = 3 unreduced products would
    # overflow int64 within two steps, so the reduction after each step
    # is needed there.
    assert residue_dtype(p, digits) is np.int64
    rng = random.Random(f"orbit {n} {p} {digits}")
    quarter = n // 4
    jump = max(2, digits // 3)
    exponents = [
        [0] * n,
        [digits - 1] * n,
        [0] * quarter + [3] * quarter + [digits - 1] * quarter
        + [digits + 1] * (n - 3 * quarter),
        [jump] * (n // 2) + [digits - 1] * (n - n // 2),
        [1] * (n - 1) + [digits],
        list(range(n)),
    ] + [[rng.randrange(digits + 3) for _ in range(n)] for _ in range(6)]
    matrices = [triangular_orbit(rng, ks, p, digits) for ks in exponents]
    matrices.append(np.zeros((n, n), dtype=object))
    expected = [[min(k, digits) for k in sorted(ks)] for ks in exponents]
    expected.append([digits] * n)
    stack = np.stack(matrices, axis=-1).astype(np.int64)
    assert smith_valuations(stack, p, digits).tolist() == expected
    for rows, vals in zip(matrices, expected):
        one = rows.astype(np.int64)[:, :, None]
        assert smith_valuations(one, p, digits).tolist() == [vals]


def test_stack_singular_numbers_match_one_at_a_time():
    rng = RngStream(31)
    ms = [(tuple(map(tuple, orbit_rows(
              rng, 2, 10, sorted(rng.randbelow(7) for _ in range(3))))), i % 4)
          for i in range(25)]
    units, shifts = stack(*ms)
    for guard in range(3):
        values, floors = singular_numbers(units, shifts, 2, 10, guard)
        assert floors.tolist() == [shift - 10 + guard for shift in shifts]
        marked = [tuple(v if v > floor else None for v in vals)
                  for vals, floor in zip(values.tolist(), floors.tolist())]
        assert marked == [marker_list(m, 2, 10, guard) for m in ms]
        assert marked == [read_one(m, 2, 10, guard)[0] for m in ms]
    values, floors = singular_numbers(units[:0], [], 2, 10)
    assert values.shape == (0, 3) and floors.shape == (0,)


@given(p=st.sampled_from([2, 3, 5, 7, 101]), digits=st.integers(1, 30),
       count=st.sampled_from([0, 1, 9, 17, 352]), seed=st.integers(0, 2**32))
@settings(max_examples=100)
def test_decode_residues_matches_sequential_divmod(p, digits, count, seed):
    modulus = p**digits
    code = random.Random(seed).randrange(modulus**count)
    expected = []
    rest = code
    for _ in range(count):
        rest, r = divmod(rest, modulus)
        expected.append(r)
    assert decode_residues(code, modulus, count) == expected


@st.composite
def small_residue_grids(draw):
    """(rows, p): an N x N matrix, N <= 4, with any nonnegative entries;
    some are zero or have a repeated row."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["any", "repeated-row", "zero"]))
    rows = draw(st.lists(st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if kind == "repeated-row" and n > 1:
        rows[-1] = list(rows[0])
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    return rows, p


class ServedStream(RngStream):
    """A stream whose generator serves the given bytes, then zeros to fill
    the refill that reads past them, and has no more."""

    def __init__(self, data):
        super().__init__(0)
        self.data = data

    def _generator_bytes(self, m):
        assert self.data, "the identity's read was rejected"
        out, self.data = self.data[:m].ljust(m, b"\0"), self.data[m:]
        return out


def accepts(rows, p, digits, encode):
    """Whether sample_haar_gl accepts the grid ``rows`` as its first
    attempt; a rejected attempt is followed by the identity's read."""
    n = len(rows)
    flat = [e for row in rows for e in row]
    eye = [int(i == j) for i in range(n) for j in range(n)]
    served = ServedStream(encode(flat) + encode(eye))
    reads = sample_haar_gl(n, p, digits, served, 1)
    return residues(reads, p, digits).tolist() == flat


@given(small_residue_grids())
@example(([[0, 0], [0, 0]], 2))
@example(([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 5))
@example(([[3, 1], [6, 2]], 3))
@settings(max_examples=400)
def test_det_is_unit_mod_p_matches_laplace(case):
    # Haar acceptance on windows read by decoding one integer code: the
    # window holds every entry of the grid, up to 10^6
    rows, p = case
    digits = {2: 20, 3: 13, 5: 9}[p]
    modulus = p**digits

    code_bits = (modulus ** len(rows) ** 2 - 1).bit_length()
    size = -(-code_bits // 8)

    def encode(flat):
        # the bytes whose randbelow(modulus^(n^2)) is the flat grid's code
        code = sum(e * modulus**i for i, e in enumerate(flat))
        return (code << 8 * size - code_bits).to_bytes(size, "big")

    expected = _det(rows) % p != 0
    assert accepts(rows, p, digits, encode) == expected
    # a second call, once the acceptance test is built, must agree
    assert accepts(rows, p, digits, encode) == expected


@pytest.mark.parametrize("digits", [8, 24])
def test_parity_byte_acceptance_matches_laplace(digits):
    # every one of the 512 patterns mod 2 of a 3 x 3 grid, under random
    # high bits, on windows read as whole bytes
    width = digits // 8
    rng = RngStream(29, (digits,))

    def encode(flat):
        return b"".join(e.to_bytes(width, "big") for e in reversed(flat))

    accepted = 0
    for pattern in range(512):
        flat = [rng.randbits(digits - 1) << 1 | pattern >> i & 1 for i in range(9)]
        rows = [flat[i:i + 3] for i in range(0, 9, 3)]
        expected = _det(rows) % 2 != 0
        assert accepts(rows, 2, digits, encode) == expected
        accepted += expected
    assert accepted == 168  # |GL(3, F_2)|


def test_unit_det_pattern_at_p2_matches_determinant_parity():
    # p = 2 patterns through the one F_p elimination, each as a tuple and as
    # bytes, against the parity of the integer determinant
    # (exact in floats: |det| < 80 for 0/1 entries at n <= 8): every pattern
    # up to n = 3, seeded ones for n = 4..8
    plan = random.Random(37)
    cases = [(n, tuple(code >> i & 1 for i in range(n * n)))
             for n in (1, 2, 3) for code in range(2 ** (n * n))]
    cases += [(n, tuple(plan.randrange(2) for _ in range(n * n)))
              for n in range(4, 9) for _ in range(300)]
    accepted = {}
    for n, pattern in cases:
        det = round(np.linalg.det(np.reshape(pattern, (n, n))))
        expected = det % 2 != 0
        assert _unit_det_pattern(2, n, pattern) == expected
        assert _unit_det_pattern(2, n, bytes(pattern)) == expected
        accepted[n] = accepted.get(n, 0) + expected
    assert [accepted[n] for n in (1, 2, 3)] == [1, 6, 168]  # |GL(n, F_2)|
    assert all(0 < accepted[n] < 300 for n in range(4, 9))


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_acceptance_table_matches_the_elimination(p, n):
    # every pattern the table holds, row-major and turned a half-turn (last
    # to first, the byte path's key), against the elimination and the
    # integer determinant
    test = _unit_det_test(p, n)
    assert len(test.__self__) == p ** (n * n)  # a dict lookup
    for pattern in product(range(p), repeat=n * n):
        expected = _det([list(pattern[i:i + n])
                         for i in range(0, n * n, n)]) % p != 0
        assert _unit_det_pattern(p, n, pattern) == expected
        assert test(bytes(pattern)) == test(bytes(pattern[::-1])) == expected


@pytest.mark.parametrize("p", [5, 257, 65537, 2**31 - 1])
def test_elimination_matches_the_integer_determinant(p):
    # primes whose rows are held as int8, int16, int32 and int64, against
    # the integer determinant mod p, including singular stacks
    plan = random.Random(p)
    for n in range(1, 6):
        for _ in range(40):
            rows = [[plan.randrange(p) for _ in range(n)] for _ in range(n)]
            if plan.random() < 0.3:
                factor = plan.randrange(p)
                rows[-1] = [factor * e % p for e in rows[0]]
            flat = tuple(e for row in rows for e in row)
            expected = bareiss_det(rows) % p != 0
            assert _unit_det_pattern(p, n, flat) == expected


def test_larger_sizes_take_the_elimination():
    for p, n in ((2, 4), (3, 3), (11, 2), (257, 1)):
        test = _unit_det_test(p, n)
        assert test.func is _unit_det_pattern and test.args == (p, n)


def haar_cases():
    """(n, p, digits, skip, count): count factors read after skip bytes."""
    cases = [((1, 2, 3, 5)[i % 4], (2, 3)[i // 4 % 2], (3, 24)[i // 8 % 2],
              0, 1) for i in range(300)]
    # On the byte path, after every skip below one attempt's size, enough
    # factors that attempts straddle the 512-byte refill several times.
    for n in (2, 3):
        for digits in (8, 16, 24):
            size = n * n * digits // 8
            cases += [(n, 2, digits, skip, 1 + 1200 // size)
                      for skip in range(size)]
    # A 675-byte attempt, longer than the refill and not a multiple of 4:
    # each refill drops the tail of the generator's last 32-bit output.
    cases += [(15, 2, 24, skip, 3) for skip in (*range(0, 675, 45), 674)]
    return cases


def test_haar_streams_match_reference_rejection_loop():
    for i, (n, p, digits, skip, count) in enumerate(haar_cases()):
        ours, ref = RngStream(11, (i,)), RngStream(11, (i,))
        assert ours.randbytes(skip) == ref.randbytes(skip)
        flat = residues(sample_haar_gl(n, p, digits, ours, count), p,
                        digits).tolist()
        expected = [e for _ in range(count)
                    for row in reference_haar(n, p, digits, ref) for e in row]
        assert flat == expected
        assert ours.bits_consumed == ref.bits_consumed
        assert ours.randbytes(64) == ref.randbytes(64)


def test_residues_of_a_chunk_match_one_read_at_a_time():
    # reads of different lengths, decoded together and one at a time
    for p, digits in ((2, 8), (2, 16), (2, 24), (2, 12), (3, 24)):
        rng = RngStream(37, (p, digits))
        reads = [read_residues(rng, p, digits, count) for count in (1, 9, 4, 0, 7)]
        ref = RngStream(37, (p, digits))
        expected = []
        for count in (1, 9, 4, 0, 7):
            code = ref.randbelow((p**digits)**count)
            expected += decode_residues(code, p**digits, count)
        assert residues(reads, p, digits).tolist() == expected
        assert rng.bits_consumed == ref.bits_consumed
    assert residues([], 2, 24).tolist() == []


def test_corners_are_the_leading_blocks():
    rng = RngStream(12)
    b, _ = haar_matrix(3, 2, 10, rng)
    c, _ = haar_matrix(3, 2, 10, rng)
    units, shifts = assemble_orbit([(2, 0, -1)], np.array([b]), np.array([c]),
                                   2, 10)
    [(rows, shift)] = stack_matrices(units, shifts)
    for size in (1, 2, 3):
        block = tuple(row[:size] for row in rows[:size])
        assert stack_matrices(corner(units, size), shifts) == [(block, shift)]
        assert (assemble_orbit([(2, 0, -1)], np.array([b]), np.array([c]), 2,
                               10, size)[0] == corner(units, size)).all()
