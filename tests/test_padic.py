from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import numpy as np

from padic_hua.matrix import format_entry, parse_entry, singular_numbers
from padic_hua.padic import DIGITS, GUARD, check_prime, int_valuation
from padic_hua.partitions import Partition
from padic_hua.rng import RngStream

from conftest import ergodic_matrix, from_rows, read_one


def entry(value, p=2) -> str:
    """A rational printed as the single entry of a 1x1 residue matrix."""
    return format_single(from_rows([[F(value)]], p), p, DIGITS)


def format_single(m, p, digits) -> str:
    units, shift = m
    return format_entry(units[0][0], p, shift, digits)


def haar_zp(p, digits, rng) -> int:
    """One Haar residue on Z_p: a 1x1 ergodic draw with no positive parts
    is exactly its Z entry."""
    units, _ = ergodic_matrix(p, Partition(()), 1, digits, rng)
    return units[0][0]


nonzero_ints = st.integers(-10**6, 10**6).filter(lambda x: x != 0)
nonzero_rationals = st.fractions(min_value=F(-50), max_value=F(50),
                                 max_denominator=60).filter(lambda x: x != 0)


class TestValuation:
    def test_integer(self):
        assert int_valuation(12, 2) == 2

    def test_exact_zero_is_infinite(self):
        with pytest.raises(ValueError, match="infinite"):
            int_valuation(0, 2)

    def test_huge_valuation_in_few_divisions(self):
        assert int_valuation(7 * 3**300_000, 3) == 300_000
        assert int_valuation(-(2**1_000_001), 2) == 1_000_001

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
        values, floor = read_one(from_rows([[1, 1], [1, 1]], 2, 10), 2, 10)
        assert values == (0, None) and floor == -10

    def test_lift_round_trip(self):
        # a printed entry parses back to the rational modulo p^(digits - shift)
        for v in (F(12), F(-3, 8), F(5, 3)):
            m = from_rows([[v]], 2)
            a, e = parse_entry(format_single(m, 2, DIGITS), 2)
            diff = a * F(2) ** e - v
            assert diff == 0 or (int_valuation(diff.numerator, 2)
                                 - int_valuation(diff.denominator, 2)
                                 >= DIGITS - m[1])


def reference_valuation(n, p):
    """v_p(n) by one division per power of p."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(u=nonzero_ints, v=st.integers(0, 400), p=st.sampled_from([2, 3, 5, 7, 101]))
def test_valuation_matches_one_division_at_a_time(u, v, p):
    assert int_valuation(u * p**v, p) == reference_valuation(u * p**v, p)


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
            text = format_single((((r,),), 0), 2, 3)
            counts[text if text.startswith("O(") else int(text.split("^")[1])] += 1
        assert counts == {0: 4, 1: 2, 2: 1, "O(2^3)": 1}

    def test_uniform_mod_p(self):
        rng = RngStream(11)
        draws = 6000
        counts = [0, 0, 0]
        for _ in range(draws):
            counts[haar_zp(3, 8, rng) % 3] += 1
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

        assert format_single((((haar_zp(2, 6, ZeroRng()),),), 0),
                             2, 6) == "O(2^6)"


def test_budget_validation():
    assert 0 <= GUARD < DIGITS
    m = (((1,),), 0)
    assert read_one(m, 2, 8, 7)[0] == (0,)
    with pytest.raises(ValueError):
        read_one(m, 2, 8, 8)
    with pytest.raises(ValueError):
        read_one(m, 2, 8, -1)
    with pytest.raises(ValueError):
        # no window of 0 digits
        singular_numbers(np.zeros((1, 1, 1), dtype=np.int64), [0], 2, 0)


def test_prime_validation():
    for p in (2, 3, 5, 31, 2**31 - 1):
        assert check_prime(p) == p
    for bad in (1, 4, 9, 2**31 + 11, 561):
        with pytest.raises(ValueError):
            check_prime(bad)
