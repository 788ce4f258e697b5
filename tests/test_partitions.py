"""Tail counts: the one-pass conjugate maps against the rescan definition;
profiles as their one constructor builds them; the partitions of a box
against a brute-force filter."""

from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from padic_hua.partitions import LProfile, Partition, partitions_in_box


def rescan_tail_counts(parts):
    """X_i = #{j : part_j >= i} for i = 1..largest, one rescan per index."""
    largest = parts[0] if parts else 0
    return tuple(sum(1 for part in parts if part >= i)
                 for i in range(1, largest + 1))


def rescan_from_tail_counts(tail_counts):
    """Parts from X_1 >= X_2 >= ... (trailing zeros optional), one rescan
    per part."""
    xs = [x for x in tail_counts if x]
    return tuple(sum(1 for x in xs if x >= j)
                 for j in range(1, (xs[0] if xs else 0) + 1))


descending = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@given(descending)
@example(())
@example((5, 5, 2, 1, 1))
def test_tail_counts_match_rescan(parts):
    lam = Partition(parts)
    assert lam.tail_counts() == rescan_tail_counts(parts)
    assert Partition.from_tail_counts(lam.tail_counts()) == lam


@given(descending, st.integers(0, 3))
def test_from_tail_counts_matches_rescan(xs, zeros):
    tails = xs + (0,) * zeros
    assert Partition.from_tail_counts(tails).parts == rescan_from_tail_counts(tails)


@given(st.lists(st.integers(-6, 6), max_size=10))
@example([])
@example([2, 2, -1, 2])
def test_profile_indices_increase_and_multiplicities_are_positive(values):
    # from_singular_values is the one constructor, and nothing checks a
    # profile after it.
    mult = LProfile.from_singular_values(values).mult
    indices = [i for i, _ in mult]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(l >= 1 for _, l in mult)
    assert sum(l for _, l in mult) == len(values)
    assert set(indices) == set(values)


@pytest.mark.parametrize("max_parts", range(6))
@pytest.mark.parametrize("max_part", range(6))
def test_partitions_in_box_yields_each_box_partition_once(max_parts, max_part):
    # the box filtered out of every tuple over 0..max_part, zeros dropped
    box = {tuple(v for v in k if v)
           for k in product(range(max_part + 1), repeat=max_parts)
           if all(a >= b for a, b in zip(k, k[1:]))}
    yielded = [lam.parts for lam in partitions_in_box(max_parts, max_part)]
    assert len(yielded) == len(set(yielded))
    assert set(yielded) == box
