from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padic_hua.laws import (
    HuaParams,
    chain_product_rep1,
    chain_product_rep2,
    descending_tuples,
    haar_orbit_mass,
    kernel_p,
    kernel_row,
    kernel_valuation,
    kernel_weights,
    m_n_direct,
    m_n_profile,
    m_n_truncated_law,
    nu_bracket,
    nu_chain_bracket,
    _nu_k1_box,
    nu_k1_below,
    nu_k1_below_terms,
    nu_truncated_law,
    pi_n,
    pi_n_boundary_tv,
    pi_n_row,
    pi_n_weights,
    pi_s_bracket,
    pi_s_tail_bound,
    rewrite_identity_check,
    rewrite_identity_sides,
    rr_cdf,
    tilde_pi_n,
    tilde_pi_n_row,
    tilde_pi_n_weights,
    vol_singular_law,
)
from padic_hua.padic import int_valuation
from padic_hua.partitions import LProfile, Partition, partitions_in_box
from padic_hua.qseries import Bracket, pochhammer
from padic_hua.samplers import _kernel_cumulative, _pi_n_cumulative

from conftest import (
    cumulative_weights,
    lower_tail,
    max_index,
    min_index,
    upper_tail,
)

HP2 = HuaParams.of(2, F(1))
HP2S1 = HuaParams.of(2, F(1, 2))
HP3 = HuaParams.of(3, F(1))

descending = st.lists(st.integers(-6, 6), min_size=1, max_size=8).map(
    lambda v: tuple(sorted(v, reverse=True)))


class TestHuaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HuaParams.of(2, F(2))
        with pytest.raises(ValueError):
            HuaParams.of(2, F(0))
        with pytest.raises(ValueError):
            HuaParams.of(4, F(1))

    def test_of_keeps_t_in_lowest_terms(self):
        hp = HuaParams.of(3, F(4, 6))
        assert hp == HuaParams(3, 2, 3)
        assert (hp.t, hp.q, hp.a) == (F(2, 3), F(1, 3), F(2, 9))
        assert hp.with_s_zero() == HuaParams.of(3, 1)

    def test_s_exponent(self):
        assert HuaParams.of(2, F(1)).s_exponent() == 0
        assert HuaParams.of(2, F(1, 4)).s_exponent() == 2
        assert HuaParams.of(3, F(1, 9)).s_exponent() == 2
        assert HuaParams.of(3, F(1, 6)).s_exponent() is None
        assert HuaParams.of(3, F(2)).s_exponent() is None
        assert HuaParams.of(3, F(2, 3)).s_exponent() is None


class TestKernel:
    def test_absorbing_state(self):
        for hp in (HP2, HP2S1, HP3):
            assert kernel_p(hp, 0, 0) == 1

    def test_worked_row(self):
        assert kernel_p(HP2, 1, 0) == F(1, 2)
        assert kernel_p(HP2, 1, 1) == F(1, 2)

    def test_indicator(self):
        assert kernel_p(HP2, 3, 4) == 0
        assert kernel_p(HP2S1, 0, 2) == 0

    @given(x1=st.integers(0, 30),
           hp=st.sampled_from([HP2, HP2S1, HP3, HuaParams.of(5, F(3, 2))]))
    @settings(max_examples=60)
    def test_row_stochastic(self, x1, hp):
        row = kernel_row(hp, x1)
        assert sum(row) == 1
        assert all(mass > 0 for mass in row)


class TestEntranceLaws:
    def test_pi_bracket_values(self):
        mpmath.mp.dps = 30
        qp_half = mpmath.qp(0.5, 0.5)
        b0 = pi_s_bracket(HP2, 0, F(1, 10**9))
        assert float(b0.lower) <= float(qp_half) <= float(b0.upper)
        b1 = pi_s_bracket(HP2, 1, F(1, 10**9))
        assert abs(float(b1.midpoint) - 2 * float(qp_half)) < 1e-8

    def test_pi_sums_to_one(self):
        total = Bracket.exact(0)
        for x in range(41):
            total = total + pi_s_bracket(HP2, x, F(1, 10**12))
        assert total.upper <= 1 + F(41, 10**12)
        assert total.lower >= 1 - F(1, 10**9)

    def test_tail_bound_dominates(self):
        bound = pi_s_tail_bound(HP2, 5)
        tail = Bracket.exact(0)
        for x in range(5, 60):
            tail = tail + pi_s_bracket(HP2, x, F(1, 10**15))
        assert tail.upper <= bound

    def test_pi_n_worked_value(self):
        assert pi_n(HP2, 1, 1) == F(2, 3)

    def test_completeness(self):
        for hp in (HP2, HP2S1, HP3):
            for n in (1, 2, 7, 30):
                assert sum(pi_n(hp, n, x) for x in range(n + 1)) == 1
                assert sum(tilde_pi_n(hp, n, x) for x in range(n + 1)) == 1

    def test_out_of_range_is_zero(self):
        assert pi_n(HP2, 3, 4) == 0
        assert tilde_pi_n(HP2, 3, -1) == 0

    def test_negative_size_rejected(self):
        for call in (lambda: pi_n(HP2, -3, 0), lambda: tilde_pi_n(HP2, -1, 0),
                     lambda: pi_n_row(HP2, -1), lambda: tilde_pi_n_row(HP2, -1),
                     lambda: kernel_row(HP2, -1), lambda: kernel_p(HP2, -1, 0)):
            with pytest.raises(ValueError):
                call()


# The paper's closed forms, written from pochhammer alone: the reference the
# recurrence-built rows of the laws module must equal exactly.


def closed_kernel(hp, x1, x2):
    q, a = F(1, hp.p), hp.t / hp.p
    return (F(1, hp.p ** (x2 * x2)) * hp.t**x2
            * pochhammer(q, q, x1) * pochhammer(a, q, x1)
            / (pochhammer(q, q, x2) * pochhammer(q, q, x1 - x2)
               * pochhammer(a, q, x2)))


def closed_norm(hp, n):
    q, a = F(1, hp.p), hp.t / hp.p
    return (pochhammer(a, q, n) ** 2 * pochhammer(q, q, n) ** 2
            / pochhammer(a, q, 2 * n))


def closed_pi_n(hp, n, x):
    q, a = F(1, hp.p), hp.t / hp.p
    return (closed_norm(hp, n) * F(1, hp.p ** ((n - x) ** 2)) * hp.t ** (n - x)
            / (pochhammer(q, q, x) ** 2 * pochhammer(q, q, n - x)
               * pochhammer(a, q, n - x)))


def closed_tilde_pi_n(hp, n, x):
    q, a = F(1, hp.p), hp.t / hp.p
    return (closed_norm(hp, n) * F(1, hp.p ** ((n - x) ** 2))
            / (pochhammer(q, q, x) * pochhammer(a, q, x)
               * pochhammer(q, q, n - x) ** 2))


grid_params = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.sampled_from([F(1), F(1, 2), F(3, 2), F(1, p)]).map(
        lambda t: HuaParams.of(p, t)))


class TestRowsMatchClosedForms:
    @given(hp=grid_params, x1=st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_kernel_row(self, hp, x1):
        assert kernel_row(hp, x1) == tuple(
            closed_kernel(hp, x1, x2) for x2 in range(x1 + 1))
        assert [kernel_p(hp, x1, x2) for x2 in range(x1 + 1)] == list(
            kernel_row(hp, x1))
        assert kernel_p(hp, x1, -1) == kernel_p(hp, x1, x1 + 1) == 0

    @given(hp=grid_params, n=st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_entrance_rows(self, hp, n):
        assert pi_n_row(hp, n) == tuple(
            closed_pi_n(hp, n, x) for x in range(n + 1))
        assert tilde_pi_n_row(hp, n) == tuple(
            closed_tilde_pi_n(hp, n, x) for x in range(n + 1))
        for x in range(n + 1):
            assert pi_n(hp, n, x) == pi_n_row(hp, n)[x]
            assert tilde_pi_n(hp, n, x) == tilde_pi_n_row(hp, n)[x]
        for x in (-1, n + 1):
            assert pi_n(hp, n, x) == tilde_pi_n(hp, n, x) == 0


class TestWeightRows:
    """The integer weights (D, w) against the closed forms: every mass is
    w[i] / D, and the samplers' draw tables are the ones the Fraction rows
    give."""

    @given(hp=grid_params, size=st.integers(0, 40))
    @example(hp=HuaParams.of(3, F(1, 2)), size=0)
    @example(hp=HuaParams.of(5, F(3, 2)), size=40)
    @settings(max_examples=60, deadline=None)
    def test_weights_match_closed_forms(self, hp, size):
        for weights, closed in ((kernel_weights, closed_kernel),
                                (pi_n_weights, closed_pi_n),
                                (tilde_pi_n_weights, closed_tilde_pi_n)):
            d, w = weights(*hp, size)
            assert [F(x, d) for x in w] == [closed(hp, size, i)
                                            for i in range(size + 1)]
            assert sum(w) == d

    @given(hp=grid_params, size=st.integers(0, 40))
    @example(hp=HuaParams.of(7, F(1, 7)), size=0)
    @example(hp=HuaParams.of(2, F(3, 2)), size=40)
    @settings(max_examples=60, deadline=None)
    def test_draw_tables_match_closed_rows(self, hp, size):
        kernel = _kernel_cumulative(hp)[size]
        assert (kernel.d, kernel.cum) == cumulative_weights(
            [closed_kernel(hp, size, x2) for x2 in range(size + 1)])
        pi_n = _pi_n_cumulative(hp)[size]
        assert (pi_n.d, pi_n.cum) == cumulative_weights(
            [closed_pi_n(hp, size, x) for x in range(size + 1)])


# The four forms of the singular-number law and the two reference measures,
# as the Fraction closed forms of their docstrings, written from pochhammer
# and the LProfile tail methods alone.


def closed_qq_prod(hp, vals):
    q = F(1, hp.p)
    out = F(1)
    for _, l in LProfile.from_singular_values(vals).mult:
        out *= pochhammer(q, q, l)
    return out


def closed_m_n_direct(hp, vals):
    n = len(vals)
    g = sum(v for v in vals if v > 0)
    b = sum((2 * j - 2 * n - 1) * kj for j, kj in enumerate(vals, 1))
    return (closed_norm(hp, n) * hp.t**g * F(hp.p) ** (-2 * n * g - b)
            / closed_qq_prod(hp, vals))


def closed_m_n_profile(hp, vals):
    profile = LProfile.from_singular_values(vals)
    weight = sum(i * l for i, l in profile.mult if i >= 1)
    tail_sq = (sum(upper_tail(profile, i) ** 2
                   for i in range(1, max(max_index(profile), 0) + 1))
               + sum(lower_tail(profile, -i) ** 2
                     for i in range(1, -min(min_index(profile), 0) + 1)))
    return (closed_norm(hp, len(vals)) * hp.t**weight * F(hp.p) ** -tail_sq
            / closed_qq_prod(hp, vals))


def closed_vol(hp, vals):
    n = len(vals)
    q = F(1, hp.p)
    b = sum((2 * i - 2 * n - 1) * ki for i, ki in enumerate(vals, 1))
    return F(hp.p) ** -b * pochhammer(q, q, n) ** 2 / closed_qq_prod(hp, vals)


def closed_haar(hp, vals):
    n = len(vals)
    q = F(1, hp.p)
    b = sum((2 * i - n - 1) * ki for i, ki in enumerate(vals, 1))
    return F(hp.p) ** -b * pochhammer(q, q, n) / closed_qq_prod(hp, vals)


def descending_of(values):
    return st.lists(values, max_size=6).map(
        lambda v: tuple(sorted(v, reverse=True)))


# Tuples of length 0 to 6, with all-positive and all-nonpositive ones drawn
# on purpose: they leave one of the two tail sums empty.
law_tuples = st.one_of(descending_of(st.integers(-5, 5)),
                       descending_of(st.integers(1, 5)),
                       descending_of(st.integers(-5, 0)))


class TestFormsMatchClosedForms:
    @given(hp=grid_params, vals=law_tuples)
    @settings(max_examples=300, deadline=None)
    def test_singular_law_forms(self, hp, vals):
        profile = LProfile.from_singular_values(vals)
        reference = closed_m_n_direct(hp, vals)
        assert closed_m_n_profile(hp, vals) == reference
        assert m_n_direct(hp, vals) == reference
        assert m_n_profile(hp, profile) == reference
        assert chain_product_rep1(hp, profile) == reference
        assert chain_product_rep2(hp, profile) == reference

    @given(hp=grid_params, vals=law_tuples)
    @settings(max_examples=300, deadline=None)
    def test_reference_measures(self, hp, vals):
        assert vol_singular_law(hp.p, vals) == closed_vol(hp, vals)
        assert haar_orbit_mass(hp.p, vals) == closed_haar(hp, vals)


class TestCumulativeWeights:
    @given(hp=grid_params, size=st.integers(0, 30),
           row_kind=st.sampled_from([kernel_row, pi_n_row, tilde_pi_n_row]),
           where=st.integers(0, 30), delta=st.integers(-2, 2))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_fraction_sum(self, hp, size, row_kind, where, delta):
        # A law row, unchanged or with one numerator moved by delta.
        row = list(row_kind(hp, size))
        i = where % len(row)
        row[i] = F(row[i].numerator + delta, row[i].denominator)
        d, cum = cumulative_weights(row)
        assert (cum[-1] == d) == (sum(row) == 1) == (delta == 0)
        assert [F(c, d) for c in cum] == [sum(row[:j + 1])
                                          for j in range(len(row))]

    @given(row=st.lists(st.fractions(max_denominator=60), min_size=1,
                        max_size=8), close=st.booleans())
    def test_agrees_on_arbitrary_rows(self, row, close):
        if close:
            row.append(1 - sum(row))
        d, cum = cumulative_weights(row)
        assert (cum[-1] == d) == (sum(row) == 1)
        assert F(cum[-1], d) == sum(row)


class TestSingularLaw:
    def test_size_one_masses(self):
        assert m_n_direct(HP2, (0,)) == F(1, 3)
        assert m_n_direct(HP2, (-1,)) == F(1, 6)
        assert m_n_direct(HP2, (1,)) == F(1, 6)

    def test_size_one_total_mass_exact(self):
        # Independent completeness oracle: geometric tails in closed form.
        cap = 40
        body = sum(m_n_direct(HP2, (k,)) for k in range(-cap, cap + 1))
        # masses are 2^k/3 for k <= 0 and 2^-k/3 for k >= 1 at p=2, t=1
        tail = 2 * F(1, 3) * F(1, 2**cap)
        assert body + tail == 1

    def test_profile_form_exhaustive_grid(self):
        for hp in (HP2, HuaParams.of(3, F(1, 2))):
            for n in (1, 2, 3, 4):
                for k in descending_tuples(n, -4, 4):
                    assert m_n_direct(hp, k) == m_n_profile(
                        hp, LProfile.from_singular_values(k))

    @given(k=descending, hp=st.sampled_from([HP2, HP2S1, HP3]))
    @settings(max_examples=100)
    def test_chain_representations(self, k, hp):
        profile = LProfile.from_singular_values(k)
        reference = m_n_direct(hp, k)
        assert chain_product_rep1(hp, profile) == reference
        assert chain_product_rep2(hp, profile) == reference

    def test_positivity_on_grid(self):
        grid = [HuaParams.of(p, t) for p in (2, 3, 5)
                for t in (F(1), F(1, 2), F(3, 2))]
        for hp in grid:
            for k in descending_tuples(2, -3, 3):
                assert m_n_direct(hp, k) > 0
            for x in range(6):
                assert pi_n(hp, 5, x) > 0
                assert tilde_pi_n(hp, 5, x) > 0

    def test_markers_rejected(self):
        with pytest.raises(Exception):
            m_n_direct(HP2, (1, None))


class TestReferenceMeasures:
    def test_vol_shells_size_one(self):
        for j in range(5):
            assert vol_singular_law(2, (-j,)) == F(1, 2 ** (j + 1))

    def test_vol_gl_mass(self):
        assert vol_singular_law(2, (0, 0)) == F(3, 8)

    def test_vol_total_mass_nonpositive(self):
        total = sum(vol_singular_law(2, k) for k in descending_tuples(2, -14, 0))
        assert 1 - total < F(1, 2**10)

    def test_haar_unit_masses(self):
        assert haar_orbit_mass(2, (0, 0, 0)) == 1
        for k in (-3, 0, 5):
            assert haar_orbit_mass(2, (k,)) == 1

    @given(k=descending)
    @settings(max_examples=60)
    def test_vol_haar_relation(self, k):
        n = len(k)
        q = F(1, 2)
        assert vol_singular_law(2, k) == \
            pochhammer(q, q, n) * F(2) ** (n * sum(k)) * haar_orbit_mass(2, k)


class TestLimitingLaw:
    def test_empty_and_single_part_agree(self):
        b_empty = nu_bracket(HP2, Partition(()), F(1, 10**9))
        b_one = nu_bracket(HP2, Partition((1,)), F(1, 10**9))
        assert b_empty.overlaps(b_one)
        assert abs(float(b_empty.midpoint) - 0.2887880951) < 1e-6

    def test_chain_factorization_boxed(self):
        for lam in partitions_in_box(4, 4):
            direct = nu_bracket(HP2S1, lam, F(1, 10**9))
            chained = nu_chain_bracket(HP2S1, lam, F(1, 10**9))
            assert direct.overlaps(chained)

    def test_truncated_law_mass(self):
        law = nu_truncated_law(HP2, 3, 6)
        total = law.tail
        for mass in law.masses.values():
            total = total + mass
        assert total.lower <= 1 <= total.upper + law.tail.width + F(1, 10**6)
        assert law.tail.lower >= 0


class TestLargestPartCdf:
    def test_direct_vs_product(self):
        rr = rr_cdf(2, 0, 2, F(1, 10**10))
        direct = nu_k1_below(HP2, 2, F(1, 10**10))
        assert rr.overlaps(direct)

    def test_monotone_in_x(self):
        values = [rr_cdf(3, 0, x, F(1, 10**8)) for x in (2, 3, 4, 6)]
        for a, b in zip(values, values[1:]):
            assert b.upper >= a.lower

    def test_tends_to_one(self):
        assert rr_cdf(2, 0, 20, F(1, 10**8)).lower > 1 - F(1, 10**5)

    def test_s_one_variant(self):
        # the i = 1 factor is excluded for the deformed variant; including
        # it would halve the value at p = 2 and kill the overlap
        b = rr_cdf(2, 1, 2, F(1, 10**10))
        assert b.lower > F(3, 5)
        assert b.overlaps(nu_k1_below(HP2S1, 2, F(1, 10**10)))

    def test_domain(self):
        with pytest.raises(ValueError):
            rr_cdf(2, 2, 2, F(1, 10))
        with pytest.raises(ValueError):
            rr_cdf(2, 0, 1, F(1, 10))
        with pytest.raises(ValueError):
            nu_k1_below(HuaParams.of(2, F(3, 2)), 2, F(1, 10))


    def test_terms_count_the_partitions_summed(self):
        for hp in (HP2, HuaParams.of(3, F(1, 9))):
            for x in range(1, 7):
                for eps in (F(1, 10**9), F(1, 1000)):
                    m_cap, _ = _nu_k1_box(hp, x, eps)
                    summed = sum(1 for _ in partitions_in_box(m_cap, x - 1))
                    assert nu_k1_below_terms(hp, x, eps, 10**6) == summed
                    assert nu_k1_below_terms(hp, x, eps, summed) == summed
                    assert nu_k1_below_terms(hp, x, eps, summed - 1) is None

    def test_terms_price_a_large_x_before_the_box(self):
        # the box of x = 10^9 would be at least 10^9 x 10^9
        assert nu_k1_below_terms(HP2, 10**9, F(1, 10**9), 10**5) is None
        for x, hp in ((0, HP2), (40, HuaParams.of(2, F(3, 2)))):
            with pytest.raises(ValueError) as terms_error:
                nu_k1_below_terms(hp, x, F(1, 10), 10**5)
            with pytest.raises(ValueError) as law_error:
                nu_k1_below(hp, x, F(1, 10))
            assert str(terms_error.value) == str(law_error.value)


# (p, t) with p | u, at i = v_p(u) a factor v p^i - u that p divides once
# more (9/4 at 3, 4/3 at 2), or not (9/5 at 3), and with p | v.
VALUATION_PARAMS = [(2, F(1)), (2, F(1, 2)), (2, F(3, 2)), (2, F(4, 3)),
                    (3, F(3, 2)), (3, F(9, 4)), (3, F(9, 5)), (3, F(1, 9)),
                    (5, F(25, 6))]


@pytest.mark.parametrize("p, t", VALUATION_PARAMS)
def test_kernel_valuation_is_that_of_the_reduced_mass(p, t):
    hp = HuaParams.of(p, t)
    for x1 in range(16):
        for x2, mass in enumerate(kernel_row(hp, x1)):
            assert kernel_valuation(hp, x1, x2) == (
                int_valuation(mass.numerator, p)
                - int_valuation(mass.denominator, p))


def test_kernel_p_outside_the_row_builds_no_row():
    # x1 = 10^6 would be a row of 10^6 masses over p^(10^12)
    assert kernel_p(HP2, 10**6, 10**6 + 1) == kernel_p(HP2, 10**6, -1) == 0
    with pytest.raises(ValueError):
        kernel_p(HP2, -1, 3)


def one_row(k):
    """The tuple k as a one-row stack, and its length."""
    return np.array([k], dtype=np.int64).reshape(1, len(k)), [len(k)]


class TestRewritingIdentities:
    def test_worked_example(self):
        sides = rewrite_identity_sides(*one_row((2, 1, 1, -1)))
        assert sides.tolist() == [[[10, 10], [1, 1], [4, 4]]]

    def test_zero_tuple(self):
        sides = rewrite_identity_sides(*one_row((0, 0, 0)))
        assert sides.tolist() == [[[0, 0], [0, 0], [0, 0]]]

    @given(k=descending)
    @settings(max_examples=200)
    def test_random_tuples(self, k):
        checks = rewrite_identity_check(*one_row(k))
        assert checks.shape == (1, 3)
        assert checks.all()

    @given(k=law_tuples)
    @settings(max_examples=300)
    def test_sides_match_profile_tails(self, k):
        # Reference: every tail sum from the LProfile tail helpers.
        n = len(k)
        profile = LProfile.from_singular_values(k)
        upper = [upper_tail(profile, i)
                 for i in range(1, max(max_index(profile), 0) + 1)]
        lower = [lower_tail(profile, -i)
                 for i in range(1, -min(min_index(profile), 0) + 1)]
        assert rewrite_identity_sides(*one_row(k)).tolist() == [[
            [sum(kj * (2 * j - 1) for j, kj in enumerate(k, 1) if kj > 0),
             sum(x * x for x in upper)],
            [sum(kj * (2 * j - 2 * n - 1) for j, kj in enumerate(k, 1)
                 if kj <= 0),
             sum(x * x for x in lower)],
            [sum(kj for kj in k if kj > 0),
             sum(i * l for i, l in profile.mult if i >= 1)]]]

    @given(ks=st.lists(descending, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_stack_rows_match_one_row_stacks(self, ks):
        # Zero padding adds to no side, whatever the row's signs.
        width = max(map(len, ks))
        stack = np.array([k + (0,) * (width - len(k)) for k in ks])
        sides = rewrite_identity_sides(stack, [len(k) for k in ks])
        assert sides.tolist() == [rewrite_identity_sides(*one_row(k))[0].tolist()
                                  for k in ks]


def test_boundary_tv_decreasing_small():
    tv5 = pi_n_boundary_tv(HP2, 5)
    tv10 = pi_n_boundary_tv(HP2, 10)
    tv20 = pi_n_boundary_tv(HP2, 20)
    assert tv10.upper < tv5.lower
    assert tv20.upper < tv10.lower
    assert tv20.upper < F(1, 10**6)


def test_m_n_truncated_law_tail():
    law = m_n_truncated_law(HP2, 2, 8)
    assert sum(law.masses.values()) + law.tail == 1
    assert law.tail > 0
