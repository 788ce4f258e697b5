import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_hua.laws import HuaParams, _normalization, gamma_exponent, hua_density
from padic_hua.matrix import (
    PadicMatrix,
    PrecisionExhausted,
    SingularTuple,
    assemble_orbit,
    corner,
    decode_residues,
    det_is_unit_mod_p,
    format_entry,
    parse_matrix_text,
    sample_haar_gl,
    singular_numbers,
    smith_valuations,
    stack_singular_numbers,
)
from padic_hua.padic import int_valuation
from padic_hua.rng import RngStream

from conftest import matmul


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


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(n))


class TestSingularNumbers:
    def test_diagonal(self):
        m = PadicMatrix.from_rows([[F(1, 2), 0], [0, 1]], 2)
        assert singular_numbers(m).values == (1, 0)

    def test_worked_example(self):
        m = PadicMatrix.from_rows([[2, 1], [0, 4]], 2)
        st_ = singular_numbers(m)
        assert st_.values == (0, -3)
        assert minor_gcd_singular_numbers([[2, 1], [0, 4]], 2) == (0, -3)

    def test_zero_matrix_all_marked(self):
        for p in (2, 3):
            m = PadicMatrix.from_rows([[0, 0], [0, 0]], p, digits=5)
            st_ = singular_numbers(m)
            assert st_.values == (None, None)
            assert st_.floor == -5
            assert not st_.is_exact

    def test_guard_shrinks_certification(self):
        m = PadicMatrix.from_rows([[16, 0], [0, 1]], 2, digits=6)
        assert singular_numbers(m, guard=0).values == (0, -4)
        assert singular_numbers(m, guard=3).values == (0, None)

    @given(st.lists(st.lists(st.integers(-200, 200), min_size=3, max_size=3),
                    min_size=3, max_size=3), st.sampled_from([2, 3, 5]))
    @settings(max_examples=150)
    def test_matches_minor_gcd_oracle(self, rows, p):
        oracle = minor_gcd_singular_numbers(rows, p)
        m = PadicMatrix.from_rows(rows, p, digits=24)
        values = singular_numbers(m).values
        if oracle is not None:
            assert values == oracle
        else:
            assert None in values  # singular matrices hit the floor


class TestCorner:
    def test_identity_case(self):
        m = PadicMatrix.from_rows([[1, 2], [3, 4]], 2)
        assert corner(m, 2) == m

    def test_diagonal_corner(self):
        m = PadicMatrix.from_rows([[5, 0], [0, 7]], 2)
        c = corner(m, 1)
        assert c.n == 1 and c.units == ((5,),) and c.shift == 0

    def test_projective_consistency(self):
        m = PadicMatrix.from_rows([[i * 3 + j + 1 for j in range(3)]
                                   for i in range(3)], 2)
        assert corner(corner(m, 2), 1) == corner(m, 1)

    def test_window_preserved(self):
        m = PadicMatrix.from_rows([[F(1, 4), 1], [1, 1]], 2, digits=10)
        c = corner(m, 1)
        assert (c.shift, c.digits) == (m.shift, m.digits)

    def test_bad_size(self):
        m = PadicMatrix.from_rows([[1]], 2)
        with pytest.raises(ValueError):
            corner(m, 2)


class TestHaarGl:
    def test_invertible_and_singular_zero(self):
        for i in range(50):
            m = sample_haar_gl(3, 2, 12, RngStream(3, (i,)))
            assert singular_numbers(m).values == (0, 0, 0)

    def test_gl2_f2_count_is_six(self):
        # |GL(2, F_2)| = 6 of 16, the acceptance probability 3/8 numerator.
        invertible = sum(
            1 for a in range(2) for b in range(2) for c in range(2)
            for d in range(2) if (a * d - b * c) % 2)
        assert invertible == 6
        # sanity on pochhammer path
        assert _normalization(HuaParams(2, F(1)), 1) == F(2, 3)

    def test_uniform_on_gl2_f2(self):
        draws = 20000
        counts = {}
        for i in range(draws):
            m = sample_haar_gl(2, 2, 8, RngStream(17, (i,)))
            key = tuple(e % 2 for row in m.units for e in row)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 35  # df=5, far beyond any reasonable quantile


class TestOrbit:
    def test_identity_factors_give_diagonal(self):
        eye = PadicMatrix.from_rows([[1, 0], [0, 1]], 2)
        m = assemble_orbit((1, -2), eye, eye)
        # 2^-1 * diag(1, 8) = diag(1/2, 4), off-diagonal residues zero
        assert m.shift == 1
        assert m.units == ((1, 0), (0, 8))

    def test_round_trip_and_determinant(self):
        rng = RngStream(99)
        for i, k in enumerate([(0, 0, 0), (2, 1, -1), (3, 0, -2), (-1, -1, -4)]):
            b = sample_haar_gl(3, 2, 24, rng.child(2 * i))
            c = sample_haar_gl(3, 2, 24, rng.child(2 * i + 1))
            m = assemble_orbit(k, b, c)
            assert singular_numbers(m).values == k
            # det(m) = p^(-n*shift) det(units), det(units) known mod p^digits
            det = _det([list(row) for row in m.units]) % 2**m.digits
            assert int_valuation(det, 2) - 3 * m.shift == -sum(k)

    def test_window_overflow(self):
        eye = PadicMatrix.from_rows([[1]], 2, digits=8)
        with pytest.raises(PrecisionExhausted):
            assemble_orbit((8,), eye, eye)

    def test_non_invertible_factor_rejected(self):
        eye = PadicMatrix.from_rows([[1, 0], [0, 1]], 2)
        bad = PadicMatrix.from_rows([[2, 0], [0, 1]], 2)
        with pytest.raises(ValueError):
            assemble_orbit((0, 0), bad, eye)


def test_bi_invariance_of_singular_numbers():
    rng = RngStream(5)
    m = PadicMatrix.from_rows([[6, F(1, 2), 3], [0, 12, 5], [8, 1, 2]], 2)
    reference = singular_numbers(m).values
    for i in range(10):
        b = sample_haar_gl(3, 2, 24, rng.child(2 * i))
        c = sample_haar_gl(3, 2, 24, rng.child(2 * i + 1))
        assert singular_numbers(matmul(matmul(b, m), c)).values == reference


class TestGammaAndDensity:
    def test_gamma_examples(self):
        assert gamma_exponent((2, 1, 0, -3)) == 3
        assert gamma_exponent((0, -1, -5)) == 0
        assert gamma_exponent((1,)) == 1

    def test_gamma_with_markers_below_zero(self):
        st_ = SingularTuple((2, 1, None), floor=-4)
        assert gamma_exponent(st_.positive_part()) == 3

    def test_normalization(self):
        assert _normalization(HuaParams(2, F(1)), 1) == F(1, 4) / F(3, 8)

    def test_density_nonpositive_tuple_is_normalization(self):
        hp = HuaParams(2, F(1))
        power, coeff = hua_density(hp, (0, -2))
        assert power == 0 and coeff == _normalization(hp, 2)

    def test_density_worked_example(self):
        power, coeff = hua_density(HuaParams(2, F(1)), (1,))
        assert coeff * F(2) ** power == F(1, 6)

    def test_density_t_dependence(self):
        hp = HuaParams(2, F(1, 2))
        power, coeff = hua_density(hp, (2, 1))
        assert power == -2 * 2 * 3
        assert coeff == _normalization(hp, 2) * F(1, 2) ** 3


class TestMatrixText:
    def test_parse_and_singulars(self):
        m = parse_matrix_text("2 1\n0 4\n", 2)
        assert singular_numbers(m).values == (0, -3)

    def test_parse_scaled_entries(self):
        m = parse_matrix_text("3*2^-1 1\n0 1*2^2\n", 2)
        assert m.shift == 1
        assert m.units[0][0] == 3 and m.units[1][1] == 8

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            parse_matrix_text("3*5^1\n", 2)

    def test_format_round_trip(self):
        m = PadicMatrix.from_rows([[F(3, 2), 0], [7, 1]], 2)
        assert format_entry(m, 0, 0) == "3*2^-1"
        assert format_entry(m, 1, 0) == "7*2^0"
        assert format_entry(m, 0, 1) == "O(2^23)"

    def test_comments_and_blank_lines(self):
        m = parse_matrix_text("# header\n\n1 0\n0 1\n", 2)
        assert m.n == 2


def test_corner_singular_numbers_defined_at_every_size():
    rng = RngStream(21)
    for i in range(15):
        units = [[rng.randbelow(2**10) for _ in range(4)] for _ in range(4)]
        m = PadicMatrix.from_units(units, 2, shift=1, digits=10)
        for size in range(1, 5):
            st_ = singular_numbers(corner(m, size))
            assert len(st_.values) == size


def stack_of(matrices, n):
    """Matrices as one smith_valuations stack: entry (i, j) of matrix b at
    [i][j][b]."""
    return [[[m[i][j] for m in matrices] for j in range(n)] for i in range(n)]


def smith_one(rows, p, digits):
    return smith_valuations(stack_of([rows], len(rows)), p, digits)[0]


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
    got = smith_valuations(stack_of(matrices, n), p, digits)
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
    got = smith_valuations(stack_of(matrices, 3), p, digits)
    for rows, vals in zip(matrices, got):
        assert vals == determinantal_valuations(rows, p, digits)
        assert vals == smith_one(rows, p, digits)


def test_stack_singular_numbers_match_one_at_a_time():
    rng = RngStream(31)
    ms = [PadicMatrix.from_units(
              orbit_rows(rng, 2, 10, sorted(rng.randbelow(7) for _ in range(3))),
              2, shift=i % 4, digits=10)
          for i in range(25)]
    for guard in range(3):
        assert (stack_singular_numbers(ms, guard)
                == [singular_numbers(m, guard) for m in ms])
    assert stack_singular_numbers([]) == []
    with pytest.raises(ValueError):
        stack_singular_numbers(ms + [PadicMatrix.from_units([[1]], 2, digits=10)])
    with pytest.raises(ValueError):
        stack_singular_numbers(ms, guard=10)


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


@given(small_residue_grids())
@example(([[0, 0], [0, 0]], 2))
@example(([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 5))
@example(([[3, 1], [6, 2]], 3))
@settings(max_examples=400)
def test_det_is_unit_mod_p_matches_laplace(case):
    rows, p = case
    expected = _det(rows) % p != 0
    assert det_is_unit_mod_p(rows, p) == expected
    # a second call is answered from the memo and must agree
    assert det_is_unit_mod_p(rows, p) == expected


def _reference_haar(n, p, digits, rng):
    """Plain rejection loop: one uniform residue grid per attempt, decoded
    by sequential divmod, accepted when the Laplace determinant is a unit."""
    modulus = p**digits
    while True:
        code = rng.randbelow(modulus ** (n * n))
        flat = []
        for _ in range(n * n):
            code, r = divmod(code, modulus)
            flat.append(r)
        rows = [flat[i:i + n] for i in range(0, n * n, n)]
        if _det(rows) % p:
            return tuple(tuple(row) for row in rows)


def test_haar_streams_match_reference_rejection_loop():
    for i in range(300):
        n = (1, 2, 3, 5)[i % 4]
        p = (2, 3)[i // 4 % 2]
        digits = (3, 24)[i // 8 % 2]
        ours, ref = RngStream(11, (i,)), RngStream(11, (i,))
        m = sample_haar_gl(n, p, digits, ours)
        assert m.units == _reference_haar(n, p, digits, ref)
        assert ours.bits_consumed == ref.bits_consumed


def test_trusted_constructors_match_validated_ones():
    rng = RngStream(12)
    b = sample_haar_gl(3, 2, 10, rng)
    c = sample_haar_gl(3, 2, 10, rng)
    built = [b, assemble_orbit((2, 0, -1), b, c)]
    built.append(corner(built[1], 2))
    for m in built:
        assert m == PadicMatrix(m.p, m.n, m.shift, m.digits, m.units)
    with pytest.raises(ValueError):
        PadicMatrix._reduced(2, 1, 0, 0, ((0,),))
