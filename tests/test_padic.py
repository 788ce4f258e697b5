from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from padic_hua.matrix import (
    PadicMatrix,
    format_entry,
    parse_entry,
    singular_numbers,
)
from padic_hua.padic import DIGITS, GUARD, check_prime, int_valuation
from padic_hua.partitions import Partition
from padic_hua.rng import RngStream

from conftest import ergodic_matrix


def entry(value, p=2) -> str:
    """A rational printed as the single entry of a 1x1 residue matrix."""
    return format_single(PadicMatrix.from_rows([[F(value)]], p))


def format_single(m) -> str:
    return format_entry(m.units[0][0], m.p, m.shift, m.digits)


def haar_zp(p, digits, rng) -> PadicMatrix:
    """One Haar residue on Z_p: a 1x1 ergodic draw with no positive parts
    is exactly its Z entry."""
    return ergodic_matrix(p, Partition(()), 1, digits, rng)


nonzero_ints = st.integers(-10**6, 10**6).filter(lambda x: x != 0)
nonzero_rationals = st.fractions(min_value=F(-50), max_value=F(50),
                                 max_denominator=60).filter(lambda x: x != 0)


class TestValuation:
    def test_integer(self):
        assert int_valuation(12, 2) == 2

    def test_exact_zero_is_infinite(self):
        with pytest.raises(ValueError, match="infinite"):
            int_valuation(0, 2)

    def test_negative_valuation(self):
        assert entry(F(1, 2)) == "1*2^-1"

    def test_below_precision_marker(self):
        assert entry(0) == "O(2^24)"

    def test_denominator_prime_to_p(self):
        # 1/3 is a 2-adic unit
        assert entry(F(1, 3)).endswith("*2^0")


class TestArithmetic:
    def test_cancellation_never_exact(self):
        # elimination cancels the second pivot to a zero residue: its
        # singular number is a marker at the floor, never a number
        st_ = singular_numbers(PadicMatrix.from_rows([[1, 1], [1, 1]], 2, 10))
        assert st_.values == (0, None) and st_.floor == -10

    def test_lift_round_trip(self):
        # a printed entry parses back to the rational modulo p^(digits - shift)
        for v in (F(12), F(-3, 8), F(5, 3)):
            m = PadicMatrix.from_rows([[v]], 2)
            diff = parse_entry(format_single(m), 2) - v
            assert diff == 0 or (int_valuation(diff.numerator, 2)
                                 - int_valuation(diff.denominator, 2)
                                 >= m.digits - m.shift)


@given(x=nonzero_ints, y=nonzero_ints, p=st.sampled_from([2, 3, 5]))
def test_ultrametric_inequality(x, y, p):
    if x + y != 0:
        a, b = int_valuation(x, p), int_valuation(y, p)
        s = int_valuation(x + y, p)
        assert s >= min(a, b)
        if a != b:
            assert s == min(a, b)


@given(x=nonzero_ints, y=nonzero_ints, p=st.sampled_from([2, 3, 5]))
def test_mul_valuation_additivity(x, y, p):
    assert int_valuation(x * y, p) == int_valuation(x, p) + int_valuation(y, p)


@given(x=nonzero_rationals, p=st.sampled_from([2, 3, 5]))
def test_normalization_invariant(x, p):
    unit = int(entry(x, p).split("*")[0])
    assert unit % p != 0 and 0 < unit < p**24


class TestHaarSampling:
    def test_shell_law_exhaustive(self):
        # All residues mod 2^3 as printed entries: the valuation-shell
        # counts are an exhaustive-count oracle.
        counts = Counter()
        for r in range(8):
            text = format_single(PadicMatrix.from_units([[r]], 2, digits=3))
            counts[text if text.startswith("O(") else int(text.split("^")[1])] += 1
        assert counts == {0: 4, 1: 2, 2: 1, "O(2^3)": 1}

    def test_uniform_mod_p(self):
        rng = RngStream(11)
        draws = 6000
        counts = [0, 0, 0]
        for _ in range(draws):
            counts[haar_zp(3, 8, rng).units[0][0] % 3] += 1
        for c in counts:
            assert abs(c - draws / 3) < 5 * (draws * (1 / 3) * (2 / 3)) ** 0.5

    def test_seeded_determinism(self):
        a = [haar_zp(2, 24, RngStream(1234, (i,))) for i in range(10)]
        b = [haar_zp(2, 24, RngStream(1234, (i,))) for i in range(10)]
        assert a == b

    def test_zero_residue_is_below_precision(self):
        class ZeroRng:
            def randbelow(self, n):
                return 0

        assert format_single(haar_zp(2, 6, ZeroRng())) == "O(2^6)"


def test_budget_validation():
    assert 0 <= GUARD < DIGITS
    m = PadicMatrix.from_units([[1]], 2, digits=8)
    assert singular_numbers(m, 7).values == (0,)
    with pytest.raises(ValueError):
        singular_numbers(m, 8)
    with pytest.raises(ValueError):
        singular_numbers(m, -1)
    with pytest.raises(ValueError):
        PadicMatrix.from_units([[1]], 2, digits=0)


def test_prime_validation():
    for p in (2, 3, 5, 31, 2**31 - 1):
        assert check_prime(p) == p
    for bad in (1, 4, 9, 2**31 + 11, 561):
        with pytest.raises(ValueError):
            check_prime(bad)
