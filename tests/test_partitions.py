"""Tail counts: the one-pass conjugate maps against the rescan definition;
the partitions of a box against a brute-force filter."""

from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from padic_hua.partitions import Partition, partitions_in_box


def rescan_tail_counts(parts):
    """X_i = #{j : part_j >= i} for i = 1..largest, one rescan per index."""
    largest = parts[0] if parts else 0
    return tuple(sum(1 for part in parts if part >= i)
                 for i in range(1, largest + 1))


def rescan_from_tail_counts(tail_counts):
    """Parts from X_1, X_2, ... (trailing zeros optional), one rescan per
    part; ValueError unless the counts decrease weakly to 0."""
    xs = list(tail_counts)
    while xs and xs[-1] == 0:
        xs.pop()
    for i, x in enumerate(xs):
        if x < 1 or (i and x > xs[i - 1]):
            raise ValueError(f"tail counts must decrease weakly to 0, got {xs}")
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


@given(st.lists(st.integers(-1, 5), max_size=6))
@example([2, 3])
@example([1, 0, 1])
@example([0, -1])
def test_from_tail_counts_rejects_as_rescan_does(xs):
    try:
        expected = rescan_from_tail_counts(xs)
    except ValueError as exc:
        with pytest.raises(ValueError, match="decrease weakly") as raised:
            Partition.from_tail_counts(xs)
        assert str(raised.value) == str(exc)
    else:
        assert Partition.from_tail_counts(xs).parts == expected


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
