from collections import Counter
from fractions import Fraction as F
from math import sqrt

import pytest

from padic_hua.laws import (
    HuaParams,
    _kernel_row,
    _pi_n_row,
    _s_zero,
    m_n_direct,
    nu_bracket,
    pi_s_bracket,
)
from padic_hua.matrix import sample_haar_gl, singular_numbers
from padic_hua.padic import PrecisionExhausted, int_valuation
from padic_hua.partitions import Partition
from padic_hua.rng import RngStream
from padic_hua.samplers import (
    _kernel_cumulative,
    _pi_n_cumulative,
    _pi_s_cumulative,
    run_chain,
    sample_ergodic_matrix,
    sample_hua_matrix,
    sample_hua_singulars,
    sample_kernel_step,
    sample_nu,
    sample_pi_n,
    sample_pi_s,
)

from conftest import matmul

HP2 = HuaParams(2, F(1))


def three_sigma(p_mass: float, draws: int) -> float:
    return 3 * sqrt(p_mass * (1 - p_mass) / draws)


class TestKernelStep:
    def test_absorbing(self):
        rng = RngStream(0)
        assert all(sample_kernel_step(HP2, 0, rng) == 0 for _ in range(20))

    def test_support_bound(self):
        rng = RngStream(1)
        for _ in range(500):
            x = 1 + rng.randbelow(6)
            assert 0 <= sample_kernel_step(HP2, x, rng) <= x

    def test_row_frequencies(self):
        draws = 30000
        rng = RngStream(2)
        hits = sum(sample_kernel_step(HP2, 1, rng) for _ in range(draws))
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
            cold.append(draw(i))
        warm = [draw(i) for i in range(200)]
        assert cold == warm

    def test_singulars_cache_does_not_change_draws(self):
        tables = (_kernel_row, _pi_n_row, _kernel_cumulative, _pi_n_cumulative,
                  _s_zero)

        def draw(i):
            hp = (HP2, HuaParams(2, F(1, 2)), HuaParams(3, F(1)))[i % 3]
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
        rng = RngStream(4)
        assert all(0 <= sample_pi_n(HP2, 5, rng) <= 5 for _ in range(200))


class TestChain:
    def test_paths_weakly_decreasing(self):
        rng = RngStream(5)
        for _ in range(300):
            path = run_chain(HP2, 4, rng)
            assert all(a >= b for a, b in zip(path, path[1:]))
            assert path[0] == 4 and all(x > 0 for x in path)


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
        counts = Counter()
        for i in range(draws):
            rng = RngStream(11, (i,))
            while True:
                try:
                    m = sample_hua_matrix(HP2, 2, 24, rng)
                    break
                except PrecisionExhausted:
                    pass
            counts[singular_numbers(m).values] += 1
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
            m = sample_hua_matrix(HP2, 3, 24, rng)
            b = sample_haar_gl(3, 2, 24, rng)
            c = sample_haar_gl(3, 2, 24, rng)
            assert singular_numbers(matmul(matmul(b, m), c)).values \
                == singular_numbers(m).values


class TestErgodicMatrix:
    def test_zero_parameter_matches_raw_haar_draws(self):
        # with no positive parts the matrix is exactly the Z block
        m = sample_ergodic_matrix(2, Partition(()), 3, 24, RngStream(14))
        modulus = 2**24
        code = RngStream(14).randbelow(modulus**9)
        expected = []
        for _ in range(3):
            row = []
            for _ in range(3):
                code, r = divmod(code, modulus)
                row.append(r)
            expected.append(tuple(row))
        assert m.units == tuple(expected) and m.shift == 0

    def test_entry_scale_bound(self):
        m = sample_ergodic_matrix(2, Partition((2, 1)), 4, 24, RngStream(15))
        assert m.shift == 2
        for row in m.units:
            for u in row:
                if u:
                    assert int_valuation(u, 2) - m.shift >= -2

    def test_size_one_single_part_construction(self):
        # entry must equal p^-1 X Y + Z for the same stream
        rng = RngStream(16)
        m = sample_ergodic_matrix(2, Partition((1,)), 1, 24, rng)
        modulus = 2**24
        code = RngStream(16).randbelow(modulus**3)
        code, x = divmod(code, modulus)
        code, y = divmod(code, modulus)
        code, z = divmod(code, modulus)
        assert m.units[0][0] == (x * y + 2 * z) % modulus and m.shift == 1

    def test_window_overflow(self):
        with pytest.raises(PrecisionExhausted):
            sample_ergodic_matrix(2, Partition((9,)), 2, 8, RngStream(17))

    def test_accepts_delta_zero_sequences(self):
        m = sample_ergodic_matrix(2, (2, 1, 0, 0), 3, 24, RngStream(18))
        assert m.shift == 2


def test_worker_independence_of_child_streams():
    # children with distinct indices are independent of evaluation order
    forward = [RngStream(19, (i,)).randbits(64) for i in range(8)]
    backward = [RngStream(19, (i,)).randbits(64) for i in reversed(range(8))]
    assert forward == list(reversed(backward))
