import multiprocessing
import os
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from padic_hua import experiments
from padic_hua.experiments import (
    DRAW_CHUNK,
    NS_IDENTITIES,
    OTHER,
    ExperimentReport,
    Histogram,
    _corner_draw,
    _ergodic_decomp_draw,
    _ergodic_match_draw,
    _nu_limit_draw,
    _random_descending_tuples,
    _run_block,
    draw_chunk,
    enumerate_oracle,
    gate,
    label_key,
    merge_counts,
    monte_carlo,
    run_chain_checks,
    run_corners_consistency,
    run_ergodic_convergence,
    run_ergodic_decomposition,
    run_identities,
    run_nu_limit,
    run_oracle_equality,
    run_suite,
    scaled_gate,
    tv_distance,
    tv_on_support,
    worker_pool,
)
from padic_hua.laws import ExactLaw, HuaParams
from padic_hua.padic import PrecisionExhausted
from padic_hua.partitions import Partition
from padic_hua.rng import RngStream
from padic_hua.samplers import sample_hua_singulars, sample_nu

from conftest import (
    ReferenceStream,
    marker_list,
    reference_ergodic_matrix,
    reference_haar,
    reference_orbit,
    reference_randbelow,
)

HP2 = HuaParams.of(2, F(1))


class TestEnumerationOracle:
    def test_size_one_shells(self):
        hist = enumerate_oracle(2, 1, 3)
        assert hist.counts == {(0,): 4, (-1,): 2, (-2,): 1, (None,): 1}
        assert hist.total == 8

    def test_invertible_count(self):
        hist = enumerate_oracle(2, 2, 1)
        assert hist.counts[(0, 0)] == 6

    def test_gl_class_at_three_digits(self):
        hist = enumerate_oracle(2, 2, 3)
        assert hist.counts[(0, 0)] == 1536
        assert hist.total == 4096

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_oracle(2, 3, 3)


class TestOracleEquality:
    @pytest.mark.parametrize("cfg", [(2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 2)])
    def test_acceptance_configs(self, cfg):
        report = run_oracle_equality(*cfg)
        assert report.passed

    @pytest.mark.parametrize("cfg", [(3, 1, 3), (3, 2, 3)])
    def test_three_digit_window_for_p_three(self, cfg):
        # the module invariant asks for E = 3 at p in {2, 3}, N <= 2
        assert run_oracle_equality(*cfg).passed


class TestTvDistance:
    def law(self, masses, tail=F(0)):
        return ExactLaw(dict(masses), tail)

    def test_empirical_proportional_to_law_gives_tail(self):
        law = self.law({"a": F(3, 8), "b": F(4, 8)}, tail=F(1, 8))
        hist = Histogram({"a": 3, "b": 4, "other": 1}, 8)
        assert tv_distance(hist, law) == F(1, 8)
        assert tv_on_support(hist, law) == 0

    def test_disjoint_supports(self):
        law = self.law({"a": F(1)})
        hist = Histogram({"b": 5}, 5)
        assert tv_distance(hist, law) == 1

    def test_on_support_is_lower_bound(self):
        law = self.law({"a": F(1, 2), "b": F(1, 4)}, tail=F(1, 4))
        hist = Histogram({"a": 2, "b": 1, "c": 1}, 4)
        assert tv_on_support(hist, law) <= tv_distance(hist, law)

    def test_scaled_gate(self):
        assert scaled_gate(0.01, 100_000, 100_000) == 0.01
        assert scaled_gate(0.01, 100_000, 400_000) == 0.01
        assert abs(scaled_gate(0.01, 100_000, 25_000) - 0.02) < 1e-12


class TestReports:
    def test_json_deterministic_and_runtime_free(self):
        report = ExperimentReport(
            name="x", params={"b": 2, "a": 1}, seed=7,
            gates=[gate("g", 0.5, 1.0, True)], runtime_seconds=123.4)
        text = report.to_json()
        assert text == report.to_json()
        assert "runtime" not in text
        assert '"passed": true' in text

    def test_failed_gate_propagates(self):
        report = ExperimentReport(name="x", params={}, seed=None,
                                  gates=[gate("g", 2, 1, False)])
        assert not report.passed


class TestMonteCarloExperiments:
    def test_corners_small_and_deterministic(self):
        a = run_corners_consistency(HP2, 2, 3000, 42, corner_to=1)
        with worker_pool(2) as pool:
            b = run_corners_consistency(HP2, 2, 3000, 42, corner_to=1,
                                        pool=pool)
        assert a.to_json() == b.to_json()
        assert a.passed

    def test_roundtrip_mode(self):
        report = run_corners_consistency(HP2, 2, 2000, 1, corner_to=2)
        assert report.name == "matrix-roundtrip"
        assert report.passed

    def test_ergodic_convergence_small(self):
        report = run_ergodic_convergence(2, Partition((1,)), (4, 8), 300, 5)
        assert report.passed
        assert [row["n"] for row in report.table] == [4, 8]

    def test_ergodic_decomposition_small(self):
        report = run_ergodic_decomposition(HP2, (6, 10), 1500, 9)
        assert any(g["name"] == "tv-final" for g in report.gates)
        assert report.errors == 0

    def test_nu_limit_small(self):
        # the certified TV at size 20 is already below the 1e-6 gate
        report = run_nu_limit(HP2, (5, 10, 20), 4000, 11)
        names = [g["name"] for g in report.gates]
        assert any(n.startswith("tv-decreasing") for n in names)
        assert any(n == "rr-largest-part" for n in names)
        assert report.passed


def reference_nu_limit_draw(params, rng):
    """The nu-limit draw through a full singular tuple and its positive part."""
    hp, n, max_parts, max_part = params
    pos = Partition(tuple(v for v in sample_hua_singulars(hp, n, rng) if v > 0))
    largest = pos.parts[0] if pos.parts else 0
    in_box = pos.num_parts <= max_parts and largest <= max_part
    return (pos.parts if in_box else OTHER), (int(largest < 2),)


def reference_tally(draw_one, params, rng, count):
    """The tally of ``count`` draws of a one-draw reference: each label
    counted (an overflow error, labelled None, counts none) and the events
    summed."""
    counts, sums = Counter(), None
    for _ in range(count):
        label, events = draw_one(params, rng)
        if label is not None:
            counts[label] += 1
        sums = events if sums is None else tuple(map(sum, zip(sums, events)))
    return counts, sums


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("t", [F(1), F(1, 2)])
@pytest.mark.parametrize("box", [(3, 6), (1, 1)])
def test_nu_limit_draw_matches_singular_tuple_reference(n, t, box):
    params = (HuaParams.of(2, t), n) + box
    for i in range(200):
        fast, ref = RngStream(21, (n, i)), RngStream(21, (n, i))
        assert (_nu_limit_draw(params, fast, 1)
                == reference_tally(reference_nu_limit_draw, params, ref, 1))
        assert fast.bits_consumed == ref.bits_consumed


# One-draw-at-a-time references for the batched draw functions: each
# samples one draw with the scalar references and labels it from its own
# marker list (None for a marker), not from singular_numbers.


def reference_hua_matrix(hp, n, digits, rng):
    k = sample_hua_singulars(hp, n, rng)
    if k[0] > digits // 2:
        raise PrecisionExhausted(f"drawn singular number {k[0]} exceeds half")
    b = reference_haar(n, hp.p, digits, rng)
    c = reference_haar(n, hp.p, digits, rng)
    return reference_orbit(k, b, c, hp.p, digits)


def reference_corner_draw(params, rng):
    hp, n, corner_to, digits, guard, bound = params
    resamples = 0
    while True:
        try:
            m = reference_hua_matrix(hp, n, digits, rng)
            break
        except PrecisionExhausted:
            resamples += 1
    units, shift = m
    block = tuple(row[:corner_to] for row in units[:corner_to])
    values = marker_list((block, shift), hp.p, digits, guard)
    if None not in values and all(abs(v) <= bound for v in values):
        return values, (resamples, 0)
    return OTHER, (resamples, int(None in values))


def reference_ergodic_match_draw(params, rng):
    p, lam, n, digits, guard, expected = params
    values = marker_list(reference_ergodic_matrix(p, lam, n, digits, rng), p,
                         digits, guard)
    return values[:len(expected)] == expected, (int(None in values),)


def reference_ergodic_decomp_draw(params, rng):
    hp, n, digits, guard, max_parts, max_part = params
    lam = sample_nu(hp, rng)
    try:
        m = reference_ergodic_matrix(hp.p, lam, n, digits, rng)
    except PrecisionExhausted:
        return None, (1, 0, 0)
    if m[1] - digits + guard > 0:
        # markers could hide positive values
        return OTHER, (0, 1, 0)
    values = marker_list(m, hp.p, digits, guard)
    pos = Partition(tuple(v for v in values if v is not None and v > 0))
    largest = pos.parts[0] if pos.parts else 0
    in_box = pos.num_parts <= max_parts and largest <= max_part
    return ((pos.parts if in_box else OTHER),
            (0, int(None in values), int(largest < 2)))


# Draw cases: (draw, reference, params, the events that must occur).  Small
# windows make resamples, flags and overflow errors occur.  Windows of 8
# and 24 digits at p = 2 are read as whole bytes; p = 3 at 24 digits
# assembles over Python ints.  t = 3/2 gives top singular numbers above
# 12, which 24 digits resample.
DRAW_CASES = {
    "corner": (_corner_draw, reference_corner_draw,
               (HP2, 3, 2, 6, 2, 2), (0, 1)),
    "corner-E4": (_corner_draw, reference_corner_draw,
                  (HP2, 3, 2, 4, 1, 2), (0, 1)),
    "corner-E24": (_corner_draw, reference_corner_draw,
                   (HuaParams.of(2, F(3, 2)), 3, 2, 24, 20, 2), (0, 1)),
    "corner-p3": (_corner_draw, reference_corner_draw,
                  (HuaParams.of(3, F(3, 2)), 3, 2, 24, 20, 2), (1,)),
    "ergodic-match": (_ergodic_match_draw, reference_ergodic_match_draw,
                      (2, Partition((2, 1)), 5, 8, 1, (2, 1, 0)), (0,)),
    "ergodic-match-E24": (_ergodic_match_draw, reference_ergodic_match_draw,
                          (2, Partition((3, 1)), 4, 24, 21, (3, 1, 0)), (0,)),
    "ergodic-match-p3": (_ergodic_match_draw, reference_ergodic_match_draw,
                         (3, Partition((2, 1)), 3, 24, 22, (2, 1, 0)), (0,)),
    "ergodic-decomp": (_ergodic_decomp_draw, reference_ergodic_decomp_draw,
                       (HuaParams.of(2, F(1, 2)), 4, 3, 1, 3, 6), (0, 1, 2)),
    "ergodic-decomp-E24": (_ergodic_decomp_draw, reference_ergodic_decomp_draw,
                           (HuaParams.of(2, F(1, 2)), 4, 24, 22, 3, 6), (1, 2)),
    "ergodic-decomp-floor": (_ergodic_decomp_draw, reference_ergodic_decomp_draw,
                             (HuaParams.of(2, F(3, 2)), 4, 8, 6, 3, 6), (0, 1, 2)),
    "nu-limit": (_nu_limit_draw, reference_nu_limit_draw,
                 (HuaParams.of(2, F(1, 2)), 6, 3, 6), (0,)),
}


def matrix_size(draw, params):
    """The size n of a draw case's matrices, as its runner passes it to
    monte_carlo."""
    return params[2] if draw is _ergodic_match_draw else params[1]


@pytest.mark.parametrize("kind", sorted(DRAW_CASES))
def test_run_block_matches_one_draw_at_a_time(kind):
    draw, draw_one, params, events = DRAW_CASES[kind]
    count = 150
    expected = reference_tally(draw_one, params, RngStream(4, (1,)), count)
    assert all(expected[1][i] for i in events)  # these events occur
    for chunk in (1, 7, DRAW_CHUNK, draw_chunk(matrix_size(draw, params))):
        assert _run_block((draw, params, 4, (1,), count, chunk)) == expected
    # a chunk tallies and consumes the stream exactly as its draws one at
    # a time do
    for size in (1, 7, 64):
        batched, single = RngStream(8, (size,)), RngStream(8, (size,))
        assert draw(params, batched, size) == reference_tally(
            draw_one, params, single, size)
        assert batched.bits_consumed == single.bits_consumed
    assert draw(params, RngStream(8), 0) == (Counter(),
                                             (0,) * len(expected[1]))


def test_draw_chunk_counts_matrix_entries():
    assert [draw_chunk(n) for n in (1, 2, 3, 4, 8, 16, 40)] == [
        4096, 1024, 455, 256, 64, 64, 64]


# 1,000 draws of corner-E4 run past the rule's 455-draw chunk, and
# overflow often: each chunk's top-up attempts come at its end, just
# before the next chunk's first attempt.
CORNER_COUNTS = [(kind, 150) for kind in sorted(DRAW_CASES)
                 if kind.startswith("corner")] + [("corner-E4", 1000)]


@pytest.mark.parametrize("kind, count", CORNER_COUNTS)
def test_corner_chunks_read_the_stream_as_the_reference(kind, count):
    draw, draw_one, params, _ = DRAW_CASES[kind]
    for chunk in (1, 7, draw_chunk(params[1])):
        ours, ref = RngStream(4, (2,)), RngStream(4, (2,))
        expected = reference_tally(draw_one, params, ref, count)
        assert merge_counts([draw(params, ours, min(chunk, count - start))
                             for start in range(0, count, chunk)]) == expected
        assert ours.bits_consumed == ref.bits_consumed
        assert ours.randbytes(16) == ref.randbytes(16)
    if count > draw_chunk(params[1]):
        assert expected[1][0] > 100  # resamples


@pytest.mark.parametrize("parts, guard", [((3, 1), 6), ((5,), 4), ((6, 6), 3)])
def test_positive_floor_bins_other_and_flags(monkeypatch, parts, guard):
    # shift k_1 in an 8-digit window: the floor k_1 - 8 + guard is 1, so
    # markers could hide positive values and no draw gets a partition
    monkeypatch.setattr(experiments, "sample_nu",
                        lambda hp, rng: Partition(parts))
    params = (HuaParams.of(2, F(1, 2)), 4, 8, guard, 3, 6)
    assert _ergodic_decomp_draw(params, RngStream(3), 20) == (
        Counter({OTHER: 20}), (0, 20, 0))
    # a floor of 0 keeps the positive part
    params = (HuaParams.of(2, F(1, 2)), 4, 8, guard - 1, 3, 6)
    counts, _ = _ergodic_decomp_draw(params, RngStream(3), 20)
    assert parts in counts


class FirstDraw(Exception):
    pass


def _raising_draw(params, rng, count):
    raise FirstDraw


def test_monte_carlo_runs_blocks_before_listing_them():
    # 10^300 draws are 5 * 10^296 blocks: the first block's draw must run,
    # and raise, before memory holds more than the blocks in flight
    with pytest.raises(FirstDraw):
        monte_carlo(_raising_draw, None, 10**300, 1, (0,), 1)
    with worker_pool(1) as pool, pytest.raises(FirstDraw):
        monte_carlo(_raising_draw, None, 10**300, 1, (0,), 1, pool)


def test_worker_pool_starts_at_most_one_process_per_cpu(monkeypatch):
    asked = []

    class Context:
        def __init__(self, method):
            self.method = method

        def Pool(self, size):
            asked.append((self.method, size))

    monkeypatch.setattr(multiprocessing, "get_context", Context)
    for cpus in (3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for workers in (1, 2, 100_000):
            worker_pool(workers)
    assert asked == [("spawn", size) for size in (1, 2, 3, 1, 1, 1)]


def test_identity_suite_passes():
    assert run_identities(3).passed


def off_by_one(d, weights, i):
    """The row (d, weights) with weight i raised by one."""
    weights = list(weights)
    weights[i] += 1
    return d, tuple(weights)


def sequential_tuples(rng, count, n_max, lo, hi):
    """Trial tuples one randbelow at a time, each attempt one randbits call
    of the reference rejection loop: every length first, then every tuple's
    entries in turn."""
    lengths = [1 + reference_randbelow(rng, n_max) for _ in range(count)]
    return [tuple(sorted(
        (lo + reference_randbelow(rng, hi - lo + 1) for _ in range(n)),
        reverse=True)) for n in lengths]


@pytest.mark.parametrize("seed", (1, 7, 42))
@pytest.mark.parametrize("n_max, lo, hi, rejects", [
    (8, -6, 6, True),     # the rewrite trials: bound 13 rejects 3 bytes in 16
    (5, -4, 4, True),     # the profile trials: bounds 5 and 9 reject bytes
    (256, -1, 0, False),  # a length bound of one whole byte
    (1, 0, 255, False),   # randbelow(1) reads nothing
    (3, 5, 5, True),
])
def test_random_descending_tuples_match_sequential_draws(seed, n_max, lo,
                                                         hi, rejects):
    # One stream continued over several calls, with byte reads between
    # them: 300 rewrite tuples read about 2,000 bytes, so reads end at and
    # across the stream's 512-byte refills.
    key = (NS_IDENTITIES, 0)
    ours, ref = RngStream(seed, key), ReferenceStream(seed, key)
    attempts, accepted = [], 0
    randbits = ref.randbits
    ref.randbits = lambda k: attempts.append(k) or randbits(k)
    for count in (1, 37, 300, 0):
        stack, lengths = _random_descending_tuples(ours, count, n_max, lo, hi)
        assert stack.shape == (count, n_max) and lengths.shape == (count,)
        assert [tuple(row[:n]) for row, n in zip(stack.tolist(),
                                                 lengths.tolist())] == (
            sequential_tuples(ref, count, n_max, lo, hi))
        assert not stack[np.arange(n_max) >= lengths[:, None]].any()
        assert ours.bits_consumed == ref.bits_consumed
        assert ours.randbytes(3) == ref.randbytes(3)
        accepted += (n_max > 1) * count + (hi > lo) * int(lengths.sum())
    assert (len(attempts) > accepted) == rejects


@pytest.mark.parametrize("n_max, lo, hi", [(257, 0, 1), (2, 0, 256),
                                           (0, 0, 1), (2, 1, 0)])
def test_random_descending_tuples_refuse_bounds_off_one_byte(n_max, lo, hi):
    rng = RngStream(1, (NS_IDENTITIES, 0))
    with pytest.raises(ValueError):
        _random_descending_tuples(rng, 3, n_max, lo, hi)
    assert rng.bits_consumed == 0


def gate_values(report):
    return {g["name"]: (g["value"], g["passed"]) for g in report.gates}


@pytest.mark.parametrize("row_fn, gate_name, bad_size", [
    ("kernel_weights", "kernel-row-sums", 5),
    ("pi_n_weights", "entrance-law-completeness", 4),
    ("tilde_pi_n_weights", "entrance-law-completeness", 6),
])
def test_identity_row_gates_catch_one_bad_numerator(monkeypatch, row_fn,
                                                    gate_name, bad_size):
    real = getattr(experiments, row_fn)
    bad = (2, 1, 2, bad_size)  # p = 2, t = 1/2

    def perturbed(p, u, v, size):
        d, weights = real(p, u, v, size)
        if (p, u, v, size) == bad:
            return off_by_one(d, weights, size // 2)
        return d, weights

    monkeypatch.setattr(experiments, row_fn, perturbed)
    report = run_identities(3)
    values = gate_values(report)
    assert values[gate_name] == (1, False)
    assert all(passed for name, (_, passed) in values.items() if name != gate_name)
    assert not report.passed


def wrong_on_first_call(real, wrong):
    """real, except that its first call returns wrong(value, *args)."""
    calls = []

    def patched(*args):
        calls.append(args)
        value = real(*args)
        return wrong(value, *args) if len(calls) == 1 else value

    return patched


def flip_first_row(checks):
    """A block's checks with its first row's first identity flipped."""
    checks = checks.copy()
    checks[0, 0] = not checks[0, 0]
    return checks


@pytest.mark.parametrize("fn, gate_name, wrong", [
    ("m_n_profile", "four-form-equality",
     lambda mass, hp, profile: mass * (1 + F(1, hp.p))),
    ("chain_product_rep2", "four-form-equality",
     lambda mass, hp, profile: mass * (1 + F(1, hp.p))),
    ("haar_orbit_mass", "vol-haar-relation",
     lambda mass, p, k: mass * (1 + F(1, p))),
    ("rewrite_identity_check", "rewriting-identities",
     lambda checks, k, lengths: flip_first_row(checks)),
])
def test_identity_gates_catch_one_wrong_value(monkeypatch, fn, gate_name,
                                              wrong):
    monkeypatch.setattr(experiments, fn,
                        wrong_on_first_call(getattr(experiments, fn), wrong))
    report = run_identities(3)
    values = gate_values(report)
    assert values[gate_name] == (1, False)
    assert all(passed for name, (_, passed) in values.items() if name != gate_name)
    assert not report.passed


def test_chain_factorization_gate_catches_one_wrong_bracket(monkeypatch):
    # The error is absolute: the first boxed partition may have a mass far
    # below the bracket width, where no relative error shows.
    monkeypatch.setattr(experiments, "nu_chain_bracket", wrong_on_first_call(
        experiments.nu_chain_bracket,
        lambda mass, hp, lam, eps: mass + F(1, hp.p)))
    report = run_chain_checks()
    assert gate_values(report) == {"chain-factorization": (1, False),
                                   "largest-part-cdf": (0, True)}
    assert not report.passed


def test_chain_checks_pass():
    assert run_chain_checks().passed


def test_suite_names_and_unknown():
    with pytest.raises(ValueError):
        run_suite("nope", 1)


def test_label_key_handles_markers():
    labels = [(0, -1), (2, None), "other", (0, 0)]
    ordered = sorted(labels, key=label_key)
    assert ordered[-1] == "other"
