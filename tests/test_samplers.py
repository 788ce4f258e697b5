from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from math import ceil, sqrt

import pytest

from padic_hua.laws import (
    HuaParams,
    _fraction_row,
    m_n_direct,
    nu_bracket,
    pi_s_bracket,
)
from padic_hua.matrix import corner, residues, sample_haar_gl, singular_numbers
from padic_hua.padic import PrecisionExhausted, int_valuation
from padic_hua.partitions import Partition
from padic_hua.rng import RngStream
from padic_hua.samplers import (
    _kernel_cumulative,
    _pi_n_cumulative,
    _pi_s_bounds,
    _pi_s_cumulative,
    _singulars,
    ergodic_matrices,
    hua_matrices,
    hua_tail_draws,
    run_chain,
    sample_ergodic_matrix,
    sample_hua_attempts,
    sample_hua_matrix,
    sample_hua_singulars,
    sample_nu,
    sample_pi_s,
)

from conftest import (
    ergodic_matrix,
    haar_matrix,
    hua_matrix,
    matmul,
    read_one,
    reference_chain,
    reference_ergodic_matrix,
    reference_haar,
    reference_hua_singulars,
    reference_hua_tails,
    reference_orbit,
    reference_pi_s,
    stack_matrices,
)

HP2 = HuaParams.of(2, F(1))


def three_sigma(p_mass: float, draws: int) -> float:
    return 3 * sqrt(p_mass * (1 - p_mass) / draws)


def first_step(hp, x, rng):
    """The state run_chain moves to from x in its first step (0 from 0)."""
    path = run_chain(_kernel_cumulative(hp), x, rng)
    return path[1] if len(path) > 1 else 0


class TestKernelStep:
    def test_absorbing(self):
        rng = RngStream(0)
        assert all(first_step(HP2, 0, rng) == 0 for _ in range(20))

    def test_support_bound(self):
        rng = RngStream(1)
        for _ in range(500):
            x = 1 + rng.randbelow(6)
            assert 0 <= first_step(HP2, x, rng) <= x

    def test_row_frequencies(self):
        draws = 30000
        rng = RngStream(2)
        hits = sum(first_step(HP2, 1, rng) for _ in range(draws))
        assert abs(hits / draws - 0.5) < three_sigma(0.5, draws)


class TestEntranceDraws:
    def test_pi_s_frequencies(self):
        draws = 20000
        counts = Counter(sample_pi_s(HP2, RngStream(3, (i,))) for i in range(draws))
        for x in (0, 1):
            expected = float(pi_s_bracket(HP2, x, F(1, 10**9)).midpoint)
            assert abs(counts[x] / draws - expected) < three_sigma(expected, draws)

    def test_pi_s_cache_does_not_change_draws(self):
        def draw(i):
            rng = RngStream(5, (i,))
            return sample_pi_s(HP2, rng), rng.bits_consumed

        cold = []
        for i in range(200):
            _pi_s_cumulative.cache_clear()
            _pi_s_bounds.cache_clear()
            cold.append(draw(i))
        warm = [draw(i) for i in range(200)]
        assert cold == warm

    def test_singulars_cache_does_not_change_draws(self):
        tables = (_fraction_row, _kernel_cumulative, _pi_n_cumulative,
                  _singulars)

        def draw(i):
            hp = (HP2, HuaParams.of(2, F(1, 2)), HuaParams.of(3, F(1)))[i % 3]
            rng = RngStream(6, (i,))
            return sample_hua_singulars(hp, 1 + i % 5, rng), rng.bits_consumed

        cold = []
        for i in range(200):
            for table in tables:
                table.cache_clear()
            cold.append(draw(i))
        warm = [draw(i) for i in range(200)]
        assert cold == warm

    def test_pi_n_range(self):
        # the entrance x is the start of the nonpositive side's chain
        draws = hua_tail_draws(HP2, 5, RngStream(4))
        for _ in range(200):
            _, neg_tails = next(draws)
            assert 0 <= (neg_tails[0] if neg_tails else 0) <= 5


class TestChain:
    def test_paths_weakly_decreasing(self):
        rng = RngStream(5)
        for _ in range(300):
            path = run_chain(_kernel_cumulative(HP2), 4, rng)
            assert all(a >= b for a, b in zip(path, path[1:]))
            assert path[0] == 4 and all(x > 0 for x in path)


STREAM_PARAMS = [HuaParams.of(p, t) for p in (2, 3) for t in (F(1), F(1, 2), F(3, 2))]


def params_id(hp):
    return f"p{hp.p}-t{hp.t}"


@pytest.mark.parametrize("hp", STREAM_PARAMS, ids=params_id)
def test_chain_streams_match_step_by_step_reference(hp):
    # every state's draw reads the stream as one randbits-based rejection
    # draw from its own row would
    for start in range(9):
        for i in range(20):
            ours, ref = RngStream(43, (start, i)), RngStream(43, (start, i))
            assert (run_chain(_kernel_cumulative(hp), start, ours)
                    == reference_chain(hp, start, ref))
            assert ours.bits_consumed == ref.bits_consumed


@pytest.mark.parametrize("hp", STREAM_PARAMS, ids=params_id)
def test_hua_tail_streams_match_step_by_step_reference(hp):
    # successive draws of one iterator, with reads between them
    for n in (1, 3, 40):
        for i in range(20):
            ours, ref = RngStream(47, (n, i)), RngStream(47, (n, i))
            draws = hua_tail_draws(hp, n, ours)
            for _ in range(3):
                tails = next(draws)
                assert tails == reference_hua_tails(hp, n, ref)
                assert ours.bits_consumed == ref.bits_consumed
                assert ours.randbits(5) == ref.randbits(5)
            singulars = sample_hua_singulars(hp, n, RngStream(47, (n, i)))
            assert singulars == reference_hua_singulars(
                *reference_hua_tails(hp, n, RngStream(47, (n, i))))


class WordStream:
    """randbits(64) serves ``words`` in turn, then the words of a seeded
    stream."""

    def __init__(self, words, seed):
        self.words, self.rest = list(words), RngStream(seed)
        self.bits_consumed = 0

    def randbits(self, k):
        self.bits_consumed += k
        return self.words.pop(0) if self.words else self.rest.randbits(k)


PI_S_PARAMS = [HuaParams.of(p, t) for p in (2, 3) for t in (F(1), F(1, 2))]


@pytest.mark.parametrize("hp", PI_S_PARAMS, ids=params_id)
def test_pi_s_rounds_match_fraction_rounds(hp):
    # first words at, one below and one above each round-one threshold;
    # first words in a round-one band, then second words at, one below and
    # one above each round-two threshold in that band; three all-ones
    # words, a draw so near 1 that it lies beyond the support once the
    # brackets are tight enough (round four at p = 2, seven at p = 3);
    # then 2,500 seeded draws: the same atom and the same bits as Fraction
    # rounds
    first = _pi_s_bounds(hp, 64, 0, 8)
    second = _pi_s_bounds(hp, 128, 1, 8)  # after a band word: eps / 2^16

    def in_band(w):
        i = bisect_right(first, w)
        return i % 2 == 0 and i < len(first)

    leads = [(w + e,) for w in first for e in (-1, 0, 1)
             if 0 <= w + e < 2**64]
    pairs = [divmod(w + e, 2**64) for w in second for e in (-1, 0, 1)
             if 0 <= w + e < 2**128]
    pairs = [pair for pair in pairs if in_band(pair[0])]
    assert any(in_band(w) for w, in leads) and pairs
    for i, words in enumerate(sorted(set(leads + pairs))
                              + [(2**64 - 1,) * 3]):
        ours, ref = WordStream(words, i), WordStream(words, i)
        assert sample_pi_s(hp, ours) == reference_pi_s(hp, ref)
        assert ours.bits_consumed == ref.bits_consumed
    for i in range(2500):
        ours, ref = RngStream(8, (hp.p, i)), RngStream(8, (hp.p, i))
        assert sample_pi_s(hp, ours) == reference_pi_s(hp, ref)
        assert ours.bits_consumed == ref.bits_consumed


@pytest.mark.parametrize("hp", PI_S_PARAMS, ids=params_id)
@pytest.mark.parametrize("bits, halvings, support",
                         [(64, 0, 8), (128, 1, 8), (128, 0, 16)])
def test_pi_s_bounds_end_at_the_support_ceiling(hp, bits, halvings, support):
    # A draw at or above the last bound lies beyond the support, which
    # doubles it.  No word of the first three rounds at p <= 3 gets there,
    # since their upper CDF brackets at 8 exceed 1.
    eps = F(1, 2**(48 + 16 * halvings))
    upper = sum(pi_s_bracket(hp, x, eps).upper for x in range(support + 1))
    bounds = _pi_s_bounds(hp, bits, halvings, support)
    assert len(bounds) == 2 * support + 3
    assert bounds[-1] == ceil(upper * 2**bits)


class TestNu:
    def test_partition_reconstruction(self):
        # tail counts (2, 1) mean parts (2, 1): one part >= 1, one >= 2
        assert Partition.from_tail_counts((2, 1)).parts == (2, 1)
        assert Partition.from_tail_counts((1, 1, 1)).parts == (3,)

    def test_frequencies(self):
        draws = 20000
        counts = Counter(sample_nu(HP2, RngStream(6, (i,))).parts
                         for i in range(draws))
        expected = float(nu_bracket(HP2, Partition(()), F(1, 10**9)).midpoint)
        assert abs(counts[()] / draws - expected) < three_sigma(expected, draws)
        assert abs(counts[(1,)] / draws - expected) < three_sigma(expected, draws)

    def test_determinism(self):
        a = [sample_nu(HP2, RngStream(7, (i,))) for i in range(20)]
        b = [sample_nu(HP2, RngStream(7, (i,))) for i in range(20)]
        assert a == b


class TestHuaSingulars:
    def test_multiplicity_sum(self):
        rng = RngStream(8)
        for n in (1, 2, 5, 9):
            for _ in range(50):
                k = sample_hua_singulars(HP2, n, rng)
                assert len(k) == n and all(type(v) is int for v in k)
                assert all(a >= b for a, b in zip(k, k[1:]))

    def test_size_one_mass(self):
        draws = 30000
        counts = Counter(sample_hua_singulars(HP2, 1, RngStream(9, (i,)))
                         for i in range(draws))
        assert abs(counts[(0,)] / draws - 1 / 3) < three_sigma(1 / 3, draws)

    def test_probability_of_no_positive_part(self):
        # unit weight (gamma = 1) exactly when no part is positive; that
        # probability is 2/3 at size one for p = 2, t = 1
        draws = 30000
        hits = sum(sample_hua_singulars(HP2, 1, RngStream(20, (i,)))[0] <= 0
                   for i in range(draws))
        assert abs(hits / draws - 2 / 3) < three_sigma(2 / 3, draws)

    def test_size_two_top_classes(self):
        draws = 30000
        counts = Counter(sample_hua_singulars(HP2, 2, RngStream(10, (i,)))
                         for i in range(draws))
        for k in ((0, 0), (1, 0), (0, -1), (1, 1)):
            expected = float(m_n_direct(HP2, k))
            assert abs(counts[k] / draws - expected) < three_sigma(expected, draws)


class TestHuaMatrix:
    def test_round_trip_law(self):
        draws = 8000
        drawn = []
        for i in range(draws):
            rng = RngStream(11, (i,))
            while True:
                try:
                    drawn.append(sample_hua_matrix(HP2, 2, 24, rng))
                    break
                except PrecisionExhausted:
                    pass
        units, shifts = hua_matrices(drawn, 2, 2, 24)
        values, floors = singular_numbers(units, shifts, 2, 24)
        counts = Counter(tuple(v if v > floor else None for v in vals)
                         for vals, floor in zip(values.tolist(), floors.tolist()))
        for k in ((0, 0), (1, 0), (0, -1)):
            expected = float(m_n_direct(HP2, k))
            assert abs(counts[k] / draws - expected) < three_sigma(expected, draws)

    def test_overflow_surfaced(self):
        # a window this small makes the overflow branch likely
        hits = 0
        for i in range(200):
            try:
                sample_hua_matrix(HP2, 2, 2, RngStream(12, (i,)))
            except PrecisionExhausted:
                hits += 1
        assert hits > 0

    def test_invariance_under_fresh_haar_factors(self):
        # exact determinism check: multiplying by fresh Haar factors cannot
        # change the singular numbers
        for i in range(10):
            rng = RngStream(13, (i,))
            m = hua_matrix(HP2, 3, 24, rng)
            b = haar_matrix(3, 2, 24, rng)
            c = haar_matrix(3, 2, 24, rng)
            bmc = matmul(matmul(b, m, 2, 24), c, 2, 24)
            assert read_one(bmc, 2, 24)[0] == read_one(m, 2, 24)[0]


# Windows where attempts overflow often: 8 digits at p = 2 are read as
# bytes; p = 3 at 20 digits is read by decoding and held as Python ints.
ATTEMPT_WINDOWS = [(HuaParams.of(2, F(3, 2)), 8),
                   (HuaParams.of(3, F(5, 2)), 20)]


@pytest.mark.parametrize("hp, digits", ATTEMPT_WINDOWS,
                         ids=lambda v: params_id(v) if isinstance(v, HuaParams)
                         else f"E{v}")
def test_hua_attempts_overflow_exactly_where_the_reference_does(hp, digits):
    n, count = 3, 300
    ours, ref = RngStream(49, (hp.p,)), RngStream(49, (hp.p,))
    attempts = sample_hua_attempts(hp, n, digits, ours, count)
    assert len(attempts) == count
    overflows = 0
    for k, factors in attempts:
        assert k == reference_hua_singulars(*reference_hua_tails(hp, n, ref))
        if k[0] > digits // 2:
            overflows += 1
            assert factors is None  # and nothing is read for it
            continue
        expected = [e for _ in range(2)
                    for row in reference_haar(n, hp.p, digits, ref)
                    for e in row]
        assert residues(list(factors), hp.p, digits).tolist() == expected
    assert 0 < overflows < count
    assert ours.bits_consumed == ref.bits_consumed
    assert ours.randbytes(16) == ref.randbytes(16)


def test_sample_hua_matrix_is_one_attempt():
    hp, digits = ATTEMPT_WINDOWS[0]
    for i in range(100):
        [(k, factors)] = sample_hua_attempts(hp, 3, digits,
                                             RngStream(50, (i,)), 1)
        rng = RngStream(50, (i,))
        if factors is None:
            with pytest.raises(PrecisionExhausted, match=f"number {k[0]} "):
                sample_hua_matrix(hp, 3, digits, rng)
        else:
            assert sample_hua_matrix(hp, 3, digits, rng) == (k, *factors)


class TestErgodicMatrix:
    def test_zero_parameter_matches_raw_haar_draws(self):
        # with no positive parts the matrix is exactly the Z block
        m = ergodic_matrix(2, Partition(()), 3, 24, RngStream(14))
        modulus = 2**24
        code = RngStream(14).randbelow(modulus**9)
        expected = []
        for _ in range(3):
            row = []
            for _ in range(3):
                code, r = divmod(code, modulus)
                row.append(r)
            expected.append(tuple(row))
        assert m == (tuple(expected), 0)

    def test_entry_scale_bound(self):
        units, shift = ergodic_matrix(2, Partition((2, 1)), 4, 24, RngStream(15))
        assert shift == 2
        for row in units:
            for u in row:
                if u:
                    assert int_valuation(u, 2) - shift >= -2

    def test_size_one_single_part_construction(self):
        # entry must equal p^-1 X Y + Z for the same stream
        rng = RngStream(16)
        units, shift = ergodic_matrix(2, Partition((1,)), 1, 24, rng)
        modulus = 2**24
        code = RngStream(16).randbelow(modulus**3)
        code, x = divmod(code, modulus)
        code, y = divmod(code, modulus)
        code, z = divmod(code, modulus)
        assert units[0][0] == (x * y + 2 * z) % modulus and shift == 1

    def test_window_overflow(self):
        with pytest.raises(PrecisionExhausted):
            sample_ergodic_matrix(2, Partition((9,)), 2, 8, RngStream(17))

    def test_accepts_delta_zero_sequences(self):
        _, shift = ergodic_matrix(2, (2, 1, 0, 0), 3, 24, RngStream(18))
        assert shift == 2


def test_worker_independence_of_child_streams():
    # children with distinct indices are independent of evaluation order
    forward = [RngStream(19, (i,)).randbits(64) for i in range(8)]
    backward = [RngStream(19, (i,)).randbits(64) for i in reversed(range(8))]
    assert forward == list(reversed(backward))


@pytest.mark.parametrize("p, digits", [(2, 24), (2, 4), (3, 24)])
def test_stacked_assembly_matches_scalar_reference(p, digits):
    # 24 digits at p = 2 are read as bytes, 4 digits by decoding one
    # integer, and p = 3 assembles over Python ints.  Nonpositive k_i make
    # scales p^(k_1 - k_i) at and above p^digits, which are 0 mod p^digits.
    n = 3
    ks = [(0, 0, 0), (1, 0, -digits), (1, 1, 1 - digits),
          (2, -1, -digits - 5), (-1, -2, -2), (3, 1, 0)]
    rng, ref = RngStream(41, (p, digits)), RngStream(41, (p, digits))
    draws, expected = [], []
    for k in ks:
        draws.append((k, *sample_haar_gl(n, p, digits, rng, 2)))
        b = reference_haar(n, p, digits, ref)
        expected.append(reference_orbit(
            k, b, reference_haar(n, p, digits, ref), p, digits))
    assert rng.bits_consumed == ref.bits_consumed
    for size in (1, 2, 3):
        units, shifts = hua_matrices(draws, p, n, digits, size)
        full = hua_matrices(draws, p, n, digits)[0]
        assert (stack_matrices(units, shifts)
                == stack_matrices(corner(full, size), shifts)
                == [(tuple(row[:size] for row in rows[:size]), shift)
                    for rows, shift in expected])
    # parameters with 0 to 3 parts share one stack
    lams = [Partition(parts) for parts in ((), (3,), (2, 2, 1), (1,), ())]
    draws = [sample_ergodic_matrix(p, lam, n, digits, rng) for lam in lams]
    expected = [reference_ergodic_matrix(p, lam, n, digits, ref) for lam in lams]
    assert rng.bits_consumed == ref.bits_consumed
    assert stack_matrices(*ergodic_matrices(draws, p, n, digits)) == expected
