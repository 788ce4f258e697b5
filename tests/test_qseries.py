from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from padic_hua import qseries
from padic_hua.qseries import (
    _POCHHAMMER_CACHE,
    Bracket,
    pochhammer,
    pochhammer_inf,
    truncation_order,
)

small_fractions = st.fractions(min_value=F(0), max_value=F(49, 50),
                               max_denominator=50)


def test_pochhammer_empty_product():
    assert pochhammer(F(1, 2), F(1, 2), 0) == 1
    assert pochhammer(F(7, 3), F(1, 5), 0) == 1


def test_pochhammer_known_values():
    assert pochhammer(F(1, 2), F(1, 2), 2) == F(3, 8)
    assert pochhammer(F(1, 2), F(1, 2), 3) == F(21, 64)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_pochhammer_int_and_fraction_share_one_table(n):
    _POCHHAMMER_CACHE.pop((1, 1, 1, 2), None)
    before = len(_POCHHAMMER_CACHE)
    assert pochhammer(1, F(1, 2), n) == pochhammer(F(1), F(1, 2), n)
    assert len(_POCHHAMMER_CACHE) == before + 1
    assert (1, 1, 1, 2) in _POCHHAMMER_CACHE


def test_pochhammer_negative_length_rejected():
    with pytest.raises(ValueError):
        pochhammer(F(1, 2), F(1, 2), -1)


@given(a=small_fractions, q=small_fractions, n=st.integers(0, 30))
def test_pochhammer_recurrence(a, q, n):
    assert pochhammer(a, q, n + 1) == pochhammer(a, q, n) * (1 - a * q**n)


def test_inf_bracket_matches_mpmath():
    # Independent oracle: mpmath's q-Pochhammer at 40 digits.
    mpmath.mp.dps = 40
    for a, q in [(F(1, 2), F(1, 2)), (F(1, 3), F(1, 3)), (F(1, 6), F(1, 3))]:
        ref = mpmath.qp(mpmath.mpf(a.numerator) / a.denominator,
                        mpmath.mpf(q.numerator) / q.denominator)
        b = pochhammer_inf(a, q, F(1, 10**12))
        assert float(b.lower) <= float(ref) <= float(b.upper)


def test_inf_bracket_classic_value():
    b = pochhammer_inf(F(1, 2), F(1, 2), F(1, 10**6))
    assert b.width <= F(1, 10**6)
    assert (b.lower <= F(288788, 10**6) <= b.upper
            or b.lower > F(288788, 10**6))
    assert F(288788, 10**6) <= b.upper <= F(288789, 10**6)
    assert F(288788, 10**6) <= b.lower + b.width


def test_inf_bracket_zero_base_exact():
    b = pochhammer_inf(0, F(1, 2), F(1, 10**9))
    assert b.lower == b.upper == 1


def test_inf_bracket_domain_errors():
    with pytest.raises(ValueError):
        pochhammer_inf(1, F(1, 2), F(1, 10))
    with pytest.raises(ValueError):
        pochhammer_inf(F(3, 2), F(1, 2), F(1, 10))
    with pytest.raises(ValueError):
        pochhammer_inf(F(1, 2), F(3, 2), F(1, 10))
    with pytest.raises(ValueError):
        pochhammer_inf(F(1, 2), F(1, 2), 0)


@given(exp1=st.integers(2, 20), exp2=st.integers(2, 20))
def test_inf_brackets_nested(exp1, exp2):
    eps1, eps2 = F(1, 10**exp1), F(1, 10**exp2)
    if eps1 > eps2:
        eps1, eps2 = eps2, eps1
    tight = pochhammer_inf(F(1, 2), F(1, 2), eps1)
    loose = pochhammer_inf(F(1, 2), F(1, 2), eps2)
    assert loose.lower <= tight.lower and tight.upper <= loose.upper


def fraction_truncation_order(a, q, eps):
    """Reference: step the Fraction a*q^K/(1-q) down to min(eps, 1/2)."""
    target = min(F(eps), F(1, 2))
    k, tail = 0, F(a) / (1 - F(q))
    while tail > target:
        tail *= q
        k += 1
    return k


@given(a=st.one_of(st.just(F(0)), st.fractions(min_value=F(-2), max_value=F(5),
                                               max_denominator=10**6)),
       q=st.fractions(min_value=F(0), max_value=F(9, 10),
                      max_denominator=100),
       eps=st.one_of(st.sampled_from([F(1, 2), F(3, 4), F(1), F(7)]),
                     st.fractions(min_value=F(1, 10**30), max_value=F(2),
                                  max_denominator=10**30)))
@settings(max_examples=300, deadline=None)
def test_truncation_order_matches_fraction_loop(a, q, eps):
    assume(eps > 0)
    assert truncation_order(a, q, eps) == fraction_truncation_order(a, q, eps)


def test_truncation_order_domain():
    for q in (F(1), F(3, 2)):
        with pytest.raises(ValueError):
            truncation_order(F(1, 2), q, F(1, 10))
    with pytest.raises(ValueError):
        truncation_order(F(1, 2), F(1, 2), 0)


def test_bracket_contains_head_times_tail_bound():
    a, q, eps = F(1, 3), F(1, 2), F(1, 10**8)
    k = truncation_order(a, q, eps)
    head = pochhammer(a, q, k)
    b = pochhammer_inf(a, q, eps)
    assert b.upper == head
    assert b.lower == head * (1 - a * q**k / (1 - q))


def test_bracket_arithmetic():
    b = Bracket(F(1), F(2))
    c = Bracket(F(-1), F(3))
    assert (b + c) == Bracket(F(0), F(5))
    assert (b - c) == Bracket(F(-2), F(3))
    assert (b * c) == Bracket(F(-2), F(6))
    assert abs(Bracket(F(-3), F(-1))) == Bracket(F(1), F(3))
    assert abs(Bracket(F(-1), F(2))) == Bracket(F(0), F(2))
    assert b.overlaps(c) and not Bracket(F(0), F(1, 2)).overlaps(Bracket(F(3, 4), F(1)))
    assert (b * F(1, 2)) == Bracket(F(1, 2), F(1))
    with pytest.raises(ValueError):
        Bracket(F(2), F(1))


@pytest.mark.parametrize("a, q", [(F(1, 2), F(1, 2)), (F(1, 6), F(1, 3)),
                                  (F(3, 14), F(1, 7))])
def test_inf_bracket_same_cold_and_warm(monkeypatch, a, q):
    # Many eps per truncation order K: the bracket depends on eps only
    # through K, so a cached bracket must equal a freshly built one.
    eps_values = [F(1, m) for m in range(10**6, 10**6 + 4000, 40)]
    eps_values += [F(7, 10**9 + m) for m in range(50)]
    orders = [truncation_order(a, q, eps) for eps in eps_values]
    assert max(orders.count(k) for k in set(orders)) >= 20
    cold = []
    for eps, k in zip(eps_values, orders):
        monkeypatch.setattr(qseries, "_POCHHAMMER_INF_CACHE", {})
        cold.append(pochhammer_inf(a, q, eps))
        head = pochhammer(a, q, k)
        assert cold[-1] == Bracket(head * (1 - a * q**k / (1 - q)), head)
    monkeypatch.setattr(qseries, "_POCHHAMMER_INF_CACHE", {})
    warm = [pochhammer_inf(a, q, eps) for eps in eps_values]
    assert warm == cold
    assert len(qseries._POCHHAMMER_INF_CACHE) == len(set(orders))


def four_product_mul(b, s):
    """Reference: b times the exact bracket [s, s], as the hull of the four
    endpoint products."""
    s = F(s)
    products = [x * y for x in (b.lower, b.upper) for y in (s, s)]
    return Bracket(min(products), max(products))


brackets = st.tuples(st.fractions(max_denominator=10**6),
                     st.fractions(max_denominator=10**6)).map(
    lambda ends: Bracket(min(ends), max(ends)))


@given(b=brackets,
       s=st.one_of(st.just(0), st.just(F(0)), st.integers(-50, 50),
                   st.fractions(max_denominator=10**6)))
@settings(max_examples=300)
def test_bracket_times_scalar_matches_four_products(b, s):
    expected = four_product_mul(b, s)
    assert b * s == expected
    assert s * b == expected
    assert b * Bracket.exact(s) == expected
