"""Verification harness: exhaustive oracles, statistical comparisons and
the convergence experiments.

Every experiment is a pure function of its parameters and seed: reports
come out byte-identical across runs and worker counts.  Draw streams are
spawned per block of draws inside a per-experiment namespace, so parallel
reductions are plain integer histogram merges.  Wall-clock runtime is kept
out of the canonical report payload for the same reason.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from operator import add

import numpy as np

from .laws import (
    ExactLaw,
    HuaParams,
    chain_product_rep1,
    chain_product_rep2,
    haar_orbit_mass,
    kernel_weights,
    m_n_direct,
    m_n_profile,
    m_n_truncated_law,
    nu_bracket,
    nu_chain_bracket,
    nu_k1_below,
    nu_truncated_law,
    pi_n_boundary_tv,
    pi_n_weights,
    rewrite_identity_check,
    rr_cdf,
    tilde_pi_n_weights,
    vol_singular_law,
)
from .matrix import singular_numbers
from .padic import DIGITS, GUARD, PrecisionExhausted, check_prime
from .partitions import LProfile, Partition, _conjugate, partitions_in_box
from .qseries import Bracket, frac_str, pochhammer
from .rng import RngStream
from .samplers import (
    ergodic_matrices,
    hua_matrices,
    sample_ergodic_matrix,
    hua_tail_draws,
    sample_hua_attempts,
    sample_nu,
)

OTHER = "other"

# Stream namespaces: experiments never share draw streams even under one seed.
NS_CORNERS = 2
NS_ROUNDTRIP = 3
NS_ERGODIC_CONV = 4
NS_ERGODIC_DECOMP = 5
NS_NULIMIT = 6
NS_IDENTITIES = 7

ORACLE_SIZE_CAP = 2**24
DEFAULT_BLOCK = 2000
# Draws sampled before their matrices' Smith valuations are computed in one
# batch; the chunk's matrices are all that is held at once.  A chunk of
# n x n draws is sized by their entries (see draw_chunk).
DRAW_CHUNK = 64
CHUNK_ENTRIES = 4096

# Rewriting-identity trial tuples the identity suite draws and checks at
# once.
IDENTITY_BLOCK = 1024

# Corner draws are labelled by their singular numbers when all lie in
# [-CORNER_BOUND, CORNER_BOUND].
CORNER_BOUND = 8
# The box (most parts, largest part) on which ergodic-decomposition and
# nu-limit compare positive parts against nu_truncated_law.
NU_BOX = (3, 6)
# (base gate, base draws) of each Monte Carlo TV gate; see scaled_gate.
CORNER_GATE = (0.01, 100_000)
ERGODIC_DECOMP_GATE = (0.03, 10_000)
NU_LIMIT_GATE = (0.02, 100_000)
# How far the ergodic-decomposition TV may rise from the smallest size to
# the largest.
TREND_ALLOWANCE = 0.01
# The least ergodic-convergence match frequency at the largest size, and the
# most certified entrance-law TV the nu-limit allows at its largest size.
FINAL_FREQUENCY_GATE = 0.95
TV_EXACT_GATE = 1e-6

# The identity suite's grid: kernel rows x1 <= ROW_MAX and entrance laws
# n <= COMPLETENESS_MAX at every (p, t); REWRITE_TRIALS random tuples for the
# rewriting identities; PROFILE_TRIALS tuples of at most PROFILE_N_MAX
# entries per (p, t) for the four forms.
IDENTITY_PRIMES = (2, 3, 5)
IDENTITY_TS = (Fraction(1), Fraction(1, 2), Fraction(3, 2))
ROW_MAX = 50
COMPLETENESS_MAX = 30
REWRITE_TRIALS = 10_000
PROFILE_TRIALS = 200
PROFILE_N_MAX = 5
# The chain checks' grid: the box (most parts, largest part) of partitions
# whose nu mass is matched to its chain factorization at tolerance NU_EPS,
# and the points x where the largest-part CDF P(k_1 < x) is compared at
# tolerance RR_EPS (the nu-limit's largest-part gate reads RR_EPS too).
CHAIN_PRIMES = (2, 3)
CHAIN_TS = (Fraction(1), Fraction(1, 2))
CHAIN_BOX = (4, 6)
NU_EPS = Fraction(1, 10**9)
RR_X_VALUES = (2, 3, 4)
RR_EPS = Fraction(1, 10**10)


# -- histograms and total variation -----------------------------------------


@dataclass
class Histogram:
    """Counts per canonical outcome label; OTHER collects everything that
    falls outside the truncation the draws are labelled against."""

    counts: dict
    total: int

    def frequency(self, label) -> Fraction:
        return Fraction(self.counts.get(label, 0), self.total)


def merge_counts(tallies) -> tuple:
    """Fold (label counts, summed event counts) pairs into one such pair:
    the counts are added label by label and the event tuples entry by
    entry."""
    counts, sums = Counter(), None
    for part_counts, events in tallies:
        counts.update(part_counts)
        sums = events if sums is None else tuple(map(add, sums, events))
    return counts, sums


def tv_distance(hist: Histogram, law: ExactLaw):
    """(1/2) sum |empirical - exact| over the truncated support, plus half
    the empirical mass outside it and half the law's tail mass.

    Equals the true total variation when the out-of-support parts are
    disjoint and upper-bounds it otherwise.  Bracket-valued laws give a
    bracket-valued distance.
    """
    acc = Fraction(0)
    emp_common = Fraction(0)
    for label, mass in law.masses.items():
        emp = hist.frequency(label)
        emp_common += emp
        acc = acc + abs(emp - mass)
    acc = acc + (1 - emp_common) + law.tail
    return acc * Fraction(1, 2)


def tv_on_support(hist: Histogram, law: ExactLaw):
    """(1/2) sum |empirical - exact| restricted to the truncated support
    (both sides as sub-probability vectors; no out-of-support penalty).

    This is the statistic the acceptance gates use: a lower bound of the
    true total variation that is insensitive to the unavoidable geometric
    tail outside any finite truncation.
    """
    acc = Fraction(0)
    for label, mass in law.masses.items():
        acc = acc + abs(hist.frequency(label) - mass)
    return acc * Fraction(1, 2)


def scaled_gate(base: float, base_draws: int, draws: int) -> float:
    """Gate for non-default draw counts: loosen like 1/sqrt(draws), never
    tighten below the calibrated base."""
    return base * max(1.0, sqrt(base_draws / draws))


# -- reports -----------------------------------------------------------------


def mass_json(m) -> dict:
    if isinstance(m, Bracket):
        return {"lower": frac_str(m.lower), "upper": frac_str(m.upper),
                "float": float(m.midpoint)}
    m = Fraction(m)
    return {"exact": frac_str(m), "float": float(m)}


def mass_float(m) -> float:
    return float(m.upper) if isinstance(m, Bracket) else float(m)


def gate(name: str, value, threshold, passed: bool, kind: str = "stat") -> dict:
    return {"name": name, "kind": kind, "value": value,
            "threshold": threshold, "passed": bool(passed)}


def label_key(label):
    if label == OTHER:
        return (1,)
    return (0, tuple(v if v is not None else -(10**9) for v in label))


def label_str(label) -> str:
    if label == OTHER:
        return OTHER
    return "(" + ",".join(str(v) if v is not None else "marked" for v in label) + ")"


@dataclass
class ExperimentReport:
    """Everything needed to reproduce and audit one experiment run."""

    name: str
    params: dict
    seed: int | None
    gates: list
    table: list = field(default_factory=list)
    errors: int = 0
    precision_flags: int = 0
    notes: list = field(default_factory=list)
    runtime_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.gates)

    def to_json_dict(self) -> dict:
        # runtime_seconds deliberately excluded: reports must be
        # byte-identical across runs and worker counts.
        return {
            "schema": "padic-hua/report/1",
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "gates": self.gates,
            "table": self.table,
            "errors": self.errors,
            "precision_flags": self.precision_flags,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def comparison_table(hist: Histogram, law: ExactLaw) -> list:
    rows = []
    for label in sorted(law.masses, key=label_key):
        rows.append({
            "label": label_str(label),
            "count": hist.counts.get(label, 0),
            "empirical": mass_json(hist.frequency(label)),
            "exact": mass_json(law.masses[label]),
        })
    rows.append({
        "label": OTHER,
        "count": hist.counts.get(OTHER, 0),
        "empirical": mass_json(hist.frequency(OTHER)),
        "exact": mass_json(law.tail),
    })
    return rows


# -- exhaustive enumeration oracle -------------------------------------------


def enumerate_oracle(p: int, n: int, digits: int) -> Histogram:
    """Singular-class histogram over ALL matrices mod p^digits.

    The matrices are read at shift 0 and guard 0; classes with markers are
    binned with None in their place (k <= -digits).  Hard size guard
    p^(digits*n^2) <= 2^24.
    """
    check_prime(p)
    total = p ** (digits * n * n)
    if total > ORACLE_SIZE_CAP:
        raise ValueError(f"enumeration size {total} exceeds cap {ORACLE_SIZE_CAP}")
    pe = p**digits
    # Residue k of every code in a chunk, least significant first, row-major.
    place = pe ** np.arange(n * n)
    tally: Counter = Counter()
    chunk = draw_chunk(n)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        units = (codes[:, None] // place % pe).reshape(-1, n, n)
        values, floors = singular_numbers(units, [0] * len(codes), p, digits)
        tally.update(map(tuple, values.tolist()))
    floor = floors[0]  # the same for every matrix: shift 0, guard 0
    counts = {tuple([v if v > floor else None for v in vals]): c
              for vals, c in tally.items()}
    return Histogram(counts, total)


def run_oracle_equality(p: int, n: int, digits: int) -> ExperimentReport:
    """EXACT rational equality of enumerated class frequencies against the
    volume pushforward law, on every fully certified class."""
    hist = enumerate_oracle(p, n, digits)
    table = []
    mismatches = 0
    certified_classes = 0
    for label in sorted(hist.counts, key=label_key):
        freq = hist.frequency(label)
        if None in label:
            table.append({"label": label_str(label), "count": hist.counts[label],
                          "empirical": mass_json(freq), "exact": None})
            continue
        certified_classes += 1
        exact = vol_singular_law(p, label)
        if freq != exact:
            mismatches += 1
        table.append({"label": label_str(label), "count": hist.counts[label],
                      "empirical": mass_json(freq), "exact": mass_json(exact)})
    return ExperimentReport(
        name="oracle-equality",
        params={"p": p, "n": n, "digits": digits, "matrices": hist.total},
        seed=None,
        gates=[gate("exact-class-equality", mismatches, 0, mismatches == 0,
                    kind="zero-tolerance")],
        table=table,
        notes=[f"{certified_classes} certified classes compared exactly"],
    )


# -- the Monte Carlo skeleton ---------------------------------------------------
#
# A run is split into blocks of DEFAULT_BLOCK draws; block i draws from the
# stream (seed, key + (i,)), so its output does not depend on which process
# runs it.  A block asks for its draws draw_chunk(n) at a time, n the size
# of the run's matrices.  A draw function takes (params, rng, count) and
# returns the tally of the chunk: a Counter of labels and a tuple of
# summed event counts, consuming the stream exactly as ``count`` single
# draws would.  A label is a tuple of ints or OTHER, the keys of the exact
# laws.  merge_counts folds chunk tallies into a block's and block tallies
# into the run's.  Draw functions are top level so that worker processes
# can import them.


def draw_chunk(n: int) -> int:
    """Draws of n x n matrices taken in one chunk: CHUNK_ENTRIES matrix
    entries, and never fewer than DRAW_CHUNK draws.  Small matrices make
    long chunks (455 draws at n = 3, 1,024 at n = 2), which spread each
    chunk's fixed stacking, Smith and labelling cost; from n = 8 on a chunk
    is DRAW_CHUNK draws."""
    return max(DRAW_CHUNK, CHUNK_ENTRIES // (n * n))


def _run_block(args):
    draw, params, seed, key, count, chunk = args
    rng = RngStream(seed, key)
    return merge_counts([draw(params, rng, min(chunk, count - start))
                         for start in range(0, count, chunk)])


def worker_pool(workers: int):
    """A pool of ``workers`` processes started by ``spawn``, at most one per
    CPU: reports do not depend on the worker count.  Each pool starts
    fresh interpreters, so run_suite shares one across its runners."""
    from multiprocessing import get_context

    return get_context("spawn").Pool(min(workers, os.cpu_count() or 1))


def monte_carlo(draw, params, draws: int, seed: int, key: tuple, n: int,
                pool=None) -> tuple:
    """(label counts, summed event counts) over ``draws`` draws of n x n
    matrices, chunked by draw_chunk(n).  The blocks are generated lazily
    and run in this process, or mapped in order over ``pool`` when one is
    given; their tallies are merged as they arrive, so memory holds the
    blocks in flight, not one entry per block."""
    chunk = draw_chunk(n)
    blocks = ((draw, params, seed, key + (idx,),
               min(DEFAULT_BLOCK, draws - idx * DEFAULT_BLOCK), chunk)
              for idx in range(-(-draws // DEFAULT_BLOCK)))
    results = (map(_run_block, blocks) if pool is None
               else pool.imap(_run_block, blocks))
    total = (Counter(), None)
    for block in results:
        total = merge_counts((total, block))
    return total


def _corner_draw(params, rng, count):
    """Singular numbers of matrix draws' corners.  Draws are conditioned
    on the top singular number fitting half the window (the resample
    branch of the overflow policy): the chunk makes ``count`` attempts
    with sample_hua_attempts, then as many more as overflowed, until
    ``count`` draws fit.  Attempts are sequential, so this reads the stream
    as resampling each overflow at once would.  Resamples are counted,
    never hidden.  Events: (resamples, flagged)."""
    hp, n, corner_to, digits, guard, bound = params
    draws, attempts = [], 0
    while len(draws) < count:
        need = count - len(draws)
        draws += [(k, *factors) for k, factors
                  in sample_hua_attempts(hp, n, digits, rng, need) if factors]
        attempts += need
    units, shifts = hua_matrices(draws, hp.p, n, digits, corner_to)
    values, floors = singular_numbers(units, shifts, hp.p, digits, guard)
    exact = values[:, -1] > floors  # markers end their row
    labelled = exact & (np.abs(values) <= bound).all(axis=1)
    counts = Counter(map(tuple, values[labelled].tolist()))
    counts[OTHER] = count - int(labelled.sum())
    return counts, (attempts - count, count - int(exact.sum()))


def _ergodic_match_draw(params, rng, count):
    """Whether ergodic matrix draws' leading singular numbers equal
    ``expected``.  Events: (flagged,)."""
    p, lam, n, digits, guard, expected = params
    draws = [sample_ergodic_matrix(p, lam, n, digits, rng) for _ in range(count)]
    units, shifts = ergodic_matrices(draws, p, n, digits)
    values, floors = singular_numbers(units, shifts, p, digits, guard)
    certified = values > floors[:, None]
    window = slice(len(expected))
    match = ((values[:, window] == expected) & certified[:, window]).all(axis=1)
    return Counter(match.tolist()), (count - int(certified[:, -1].sum()),)


def _ergodic_decomp_draw(params, rng, count):
    """Partitions from the limiting law, then the singular numbers of an
    ergodic matrix with each as parameter, labelled by their positive
    parts when those fit the box of at most max_parts parts each <=
    max_part.  Events: (errors, flagged, largest part < 2); a parameter
    that overflows the window is an error and tallies no label.

    When a floor is positive, markers could hide positive values; the
    certified prefix then already exceeds the box (its top value is above
    the floor, hence above max_part for any desk-scale window), so the
    draw is binned OTHER and flagged.
    """
    hp, n, digits, guard, max_parts, max_part = params
    draws, errors = [], 0
    for _ in range(count):
        lam = sample_nu(hp, rng)
        try:
            draws.append(sample_ergodic_matrix(hp.p, lam, n, digits, rng))
        except PrecisionExhausted:
            errors += 1
    units, shifts = ergodic_matrices(draws, hp.p, n, digits)
    values, floors = singular_numbers(units, shifts, hp.p, digits, guard)
    sure = floors <= 0
    in_box = (sure & (values[:, 0] <= max_part)
              & (values[:, max_parts:] <= 0).all(axis=1))
    counts = Counter(tuple(v for v in row if v > 0)
                     for row in values[in_box, :max_parts].tolist())
    counts[OTHER] = len(draws) - int(in_box.sum())
    flagged = int((~sure | (values[:, -1] <= floors)).sum())
    return counts, (errors, flagged, int((sure & (values[:, 0] < 2)).sum()))


def _nu_limit_draw(params, rng, count):
    """Positive parts of exact singular-number draws, clipped to the box as
    in _ergodic_decomp_draw.  Each is labelled from the tail counts: X_1 is
    the number of parts, the number of tail counts is the largest part, and
    the parts are their conjugate.  Events: (largest part < 2,)."""
    hp, n, max_parts, max_part = params
    labels, top_below_2 = [], 0
    draws = hua_tail_draws(hp, n, rng)
    for _ in range(count):
        tails, _ = next(draws)
        largest = len(tails)
        in_box = largest <= max_part and (not tails or tails[0] <= max_parts)
        labels.append(_conjugate(tails) if in_box else OTHER)
        top_below_2 += largest < 2
    return Counter(labels), (top_below_2,)


# -- corners consistency and matrix round trip --------------------------------


def run_corners_consistency(hp: HuaParams, n: int, draws: int, seed: int, *,
                            corner_to: int, pool=None) -> ExperimentReport:
    """Sample the size-n matrix law, project to the top-left corner, and
    compare the singular-number histogram against the exact corner law.

    corner_to = n checks the law itself (matrix round trip); corner_to < n
    checks consistency under the corner projection.
    """
    if not 1 <= corner_to <= n:
        raise ValueError(f"corner_to must be in [1, {n}]")
    namespace = NS_ROUNDTRIP if corner_to == n else NS_CORNERS
    law = m_n_truncated_law(hp, corner_to, CORNER_BOUND)
    counts, (resamples, flagged) = monte_carlo(
        _corner_draw, (hp, n, corner_to, DIGITS, GUARD, CORNER_BOUND),
        draws, seed, (namespace, *hp, n, corner_to), n, pool)
    hist = Histogram(counts, draws)
    tv = tv_on_support(hist, law)
    tv_penalized = tv_distance(hist, law)
    threshold = scaled_gate(*CORNER_GATE, draws)
    name = "matrix-roundtrip" if corner_to == n else "corners-consistency"
    return ExperimentReport(
        name=name,
        params={"p": hp.p, "t": f"{hp.u}/{hp.v}", "n": n,
                "corner_to": corner_to, "draws": draws, "digits": DIGITS,
                "guard": GUARD, "bound": CORNER_BOUND, "block": DEFAULT_BLOCK},
        seed=seed,
        gates=[gate("tv-on-support", mass_float(tv), threshold,
                    mass_float(tv) < threshold),
               gate("precision-errors", 0, 0, True, kind="zero-tolerance")],
        table=comparison_table(hist, law),
        errors=0,
        precision_flags=flagged,
        notes=[f"tv on support = {mass_json(tv)['exact']}",
               f"tv with tail penalty = {mass_json(tv_penalized)['exact']}"
               f" (law tail mass {mass_json(law.tail)['exact']})",
               f"overflow resamples (top singular number > digits/2): {resamples}"],
    )


# -- ergodic convergence for a fixed parameter --------------------------------


def run_ergodic_convergence(p: int, lam: Partition, n_list, draws: int,
                            seed: int, *, pool=None) -> ExperimentReport:
    """Corners of the ergodic matrix with parameter lam: frequency f_N that
    the leading singular numbers reproduce lam exactly, one index past its
    positive support (so the first 'other' part is checked to be 0).

    Gates: f weakly increasing along n_list within two standard errors,
    and f at the largest size at least FINAL_FREQUENCY_GATE.
    """
    freqs = []
    flagged_total = 0
    for n in n_list:
        window = min(lam.num_parts + 1, n)
        expected = (lam.parts + (0,) * window)[:window]
        counts, (flagged,) = monte_carlo(
            _ergodic_match_draw, (p, lam, n, DIGITS, GUARD, expected), draws,
            seed, (NS_ERGODIC_CONV, p, n, lam.num_parts) + lam.parts, n,
            pool)
        flagged_total += flagged
        freqs.append(Fraction(counts.get(True, 0), draws))
    gates = []
    for i in range(1, len(freqs)):
        prev, cur = float(freqs[i - 1]), float(freqs[i])
        sigma = sqrt(prev * (1 - prev) / draws + cur * (1 - cur) / draws)
        gates.append(gate(f"monotone-{n_list[i - 1]}-to-{n_list[i]}",
                          cur - prev, -2 * sigma, cur - prev >= -2 * sigma))
    gates.append(gate("final-frequency", float(freqs[-1]),
                      FINAL_FREQUENCY_GATE,
                      float(freqs[-1]) >= FINAL_FREQUENCY_GATE))
    return ExperimentReport(
        name="ergodic-convergence",
        params={"p": p, "k": list(lam.parts), "n_list": list(n_list),
                "draws": draws, "digits": DIGITS, "guard": GUARD},
        seed=seed,
        gates=gates,
        table=[{"n": n, "frequency": mass_json(f)}
               for n, f in zip(n_list, freqs)],
        precision_flags=flagged_total,
        notes=["match window = positive support plus one index"],
    )


# -- ergodic decomposition end to end ------------------------------------------


def run_ergodic_decomposition(hp: HuaParams, n_list, draws: int, seed: int,
                              *, pool=None) -> ExperimentReport:
    """Full pipeline: partition from the limiting law, ergodic matrix with
    that parameter, singular numbers of the corner; the empirical law of
    the positive parts is compared back to the limiting partition law.

    The finite-size bias is bounded empirically by the TV trend along
    n_list (the largest size also carries the hard gate).
    """
    law = nu_truncated_law(hp, *NU_BOX)
    tvs = []
    errors = flagged = 0
    for n in n_list:
        counts, (n_errors, n_flagged, top_below_2) = monte_carlo(
            _ergodic_decomp_draw, (hp, n, DIGITS, GUARD, *NU_BOX),
            draws, seed, (NS_ERGODIC_DECOMP, *hp, n), n, pool)
        hist = Histogram(counts, draws)
        errors += n_errors
        flagged += n_flagged
        tvs.append(tv_on_support(hist, law))
    # hist and top_below_2 are left from the largest size
    threshold = scaled_gate(*ERGODIC_DECOMP_GATE, draws)
    gates = [gate("tv-final", mass_float(tvs[-1]), threshold,
                  mass_float(tvs[-1]) < threshold),
             gate("precision-errors", errors, 0, errors == 0,
                  kind="zero-tolerance")]
    if len(tvs) > 1:
        first, last = float(tvs[0].midpoint), float(tvs[-1].midpoint)
        gates.append(gate("tv-trend", last - first, TREND_ALLOWANCE,
                          last <= first + TREND_ALLOWANCE))
    return ExperimentReport(
        name="ergodic-decomposition",
        params={"p": hp.p, "t": f"{hp.u}/{hp.v}",
                "n_list": list(n_list), "draws": draws, "digits": DIGITS,
                "guard": GUARD, "max_parts": NU_BOX[0], "max_part": NU_BOX[1]},
        seed=seed,
        gates=gates,
        table=comparison_table(hist, law),
        errors=errors,
        precision_flags=flagged,
        notes=[f"tv on support per n: {[float(tv.midpoint) for tv in tvs]}",
               f"tv with tail penalty at n={n_list[-1]}: "
               f"{float(tv_distance(hist, law).midpoint)}",
               f"empirical P(k_1 < 2) at n={n_list[-1]}: "
               f"{float(Fraction(top_below_2, draws))}"],
    )


# -- boundary limit of the entrance laws --------------------------------------


def run_nu_limit(hp: HuaParams, n_list, draws: int, seed: int, *,
                 pool=None) -> ExperimentReport:
    """(a) certified TV between the reflected finite entrance law and its
    limit, decreasing along n_list and below TV_EXACT_GATE at the largest
    size; (b) Monte Carlo at the largest size: positive-part partitions
    against the limiting partition law; (c) the largest-part CDF at 2
    against the sparse-product value, when t is 1 or 1/p."""
    exact_tvs = [pi_n_boundary_tv(hp, n) for n in n_list]
    gates = []
    for i in range(1, len(exact_tvs)):
        ok = exact_tvs[i].upper < exact_tvs[i - 1].lower
        gates.append(gate(f"tv-decreasing-{n_list[i - 1]}-to-{n_list[i]}",
                          float(exact_tvs[i].upper),
                          float(exact_tvs[i - 1].lower), ok, kind="certified"))
    gates.append(gate("tv-exact-final", float(exact_tvs[-1].upper),
                      TV_EXACT_GATE,
                      exact_tvs[-1].upper < Fraction(TV_EXACT_GATE),
                      kind="certified"))

    n_max = n_list[-1]
    law = nu_truncated_law(hp, *NU_BOX)
    counts, (top_below_2,) = monte_carlo(
        _nu_limit_draw, (hp, n_max, *NU_BOX), draws, seed,
        (NS_NULIMIT, *hp, n_max), n_max, pool)
    hist = Histogram(counts, draws)
    tv_mc = tv_on_support(hist, law)
    threshold = scaled_gate(*NU_LIMIT_GATE, draws)
    gates.append(gate("tv-mc-on-support", mass_float(tv_mc), threshold,
                      mass_float(tv_mc) < threshold))

    notes = [f"exact tv per n: {[float(tv.upper) for tv in exact_tvs]}",
             f"mc tv with tail penalty: {float(tv_distance(hist, law).midpoint)}"]
    s = hp.s_exponent()
    if s in (0, 1):
        rr = rr_cdf(hp.p, s, 2, RR_EPS)
        emp = Fraction(top_below_2, draws)
        mid = float(rr.midpoint)
        sigma = sqrt(mid * (1 - mid) / draws)
        ok = abs(float(emp) - mid) <= 3 * sigma + float(rr.width)
        gates.append(gate("rr-largest-part", float(emp), mid, ok))
        notes.append(f"rr product P(k_1 < 2) = {mass_json(rr)}")
    return ExperimentReport(
        name="nu-limit",
        params={"p": hp.p, "t": f"{hp.u}/{hp.v}",
                "n_list": list(n_list), "draws": draws,
                "max_parts": NU_BOX[0], "max_part": NU_BOX[1]},
        seed=seed,
        gates=gates,
        table=comparison_table(hist, law),
        notes=notes,
    )


# -- exact identity suite -------------------------------------------------------


def _random_descending_tuples(rng, count: int, n_max: int, lo: int,
                              hi: int) -> tuple:
    """count trial tuples, each of length n = 1 + randbelow(n_max) with
    entries lo + randbelow(hi - lo + 1) sorted into weakly decreasing order:
    a (count, n_max) int64 stack, zero past each row's length, and the
    lengths.  All count lengths are drawn first, then every entry, row by
    row.  Both bounds must lie in 1..256, as randbelow_array reads them;
    they are checked first, so a refused call reads nothing."""
    if not (1 <= n_max <= 256 and 1 <= hi - lo + 1 <= 256):
        raise ValueError(f"bounds {n_max} and {hi - lo + 1} must lie in 1..256")
    lengths = 1 + rng.randbelow_array(n_max, count)
    live = np.arange(n_max) < lengths[:, None]
    stack = np.full((count, n_max), lo - 1, dtype=np.int64)
    stack[live] = lo + rng.randbelow_array(hi - lo + 1, int(lengths.sum()))
    stack = -np.sort(-stack, axis=1)  # the dead slots, below lo, sort last
    stack[~live] = 0
    return stack, lengths


def _vol_haar_holds(p: int, k) -> bool:
    """vol(k) == (q;q)_n p^(n sum(k)) haar(k) for a size-n tuple k, decided by
    one integer cross-multiplication instead of a chain of Fraction products."""
    n = len(k)
    q = Fraction(1, p)
    vol = vol_singular_law(p, k)
    qq = pochhammer(q, q, n)
    haar = haar_orbit_mass(p, k)
    lhs = vol.numerator * qq.denominator * haar.denominator
    rhs = qq.numerator * haar.numerator * vol.denominator
    e = n * sum(k)
    if e >= 0:
        rhs *= p**e
    else:
        lhs *= p**-e
    return lhs == rhs


def run_identities(seed: int) -> ExperimentReport:
    """Zero-tolerance identity suite: kernel rows are stochastic, the finite
    entrance laws are complete, the tail-sum rewriting identities hold on
    random tuples, and all four forms of the singular-number law agree."""
    grid = [HuaParams.of(p, t) for p in IDENTITY_PRIMES for t in IDENTITY_TS]

    # A row sums to 1 exactly when its integer weights sum to its denominator.
    row_failures = 0
    completeness_failures = 0
    for hp in grid:
        for x1 in range(ROW_MAX + 1):
            d, w = kernel_weights(*hp, x1)
            row_failures += sum(w) != d
        for n in range(1, COMPLETENESS_MAX + 1):
            for weights in (pi_n_weights, tilde_pi_n_weights):
                d, w = weights(*hp, n)
                completeness_failures += sum(w) != d

    rng = RngStream(seed, (NS_IDENTITIES, 0))
    rewrite_failures = 0
    for start in range(0, REWRITE_TRIALS, IDENTITY_BLOCK):
        k, lengths = _random_descending_tuples(
            rng, min(IDENTITY_BLOCK, REWRITE_TRIALS - start), 8, -6, 6)
        checks = rewrite_identity_check(k, lengths)
        rewrite_failures += int(np.count_nonzero(~checks.all(axis=1)))

    form_failures = 0
    relation_failures = 0
    for gi, hp in enumerate(grid):
        rng = RngStream(seed, (NS_IDENTITIES, 1, gi))
        stack, lengths = _random_descending_tuples(
            rng, PROFILE_TRIALS, PROFILE_N_MAX, -4, 4)
        for row, n in zip(stack.tolist(), lengths.tolist()):
            k = tuple(row[:n])
            profile = LProfile.from_singular_values(k)
            reference = m_n_direct(hp, k)
            if not (reference == m_n_profile(hp, profile)
                    == chain_product_rep1(hp, profile)
                    == chain_product_rep2(hp, profile)):
                form_failures += 1
            if not _vol_haar_holds(hp.p, k):
                relation_failures += 1

    gates = [
        gate("kernel-row-sums", row_failures, 0, row_failures == 0,
             kind="zero-tolerance"),
        gate("entrance-law-completeness", completeness_failures, 0,
             completeness_failures == 0, kind="zero-tolerance"),
        gate("rewriting-identities", rewrite_failures, 0, rewrite_failures == 0,
             kind="zero-tolerance"),
        gate("four-form-equality", form_failures, 0, form_failures == 0,
             kind="zero-tolerance"),
        gate("vol-haar-relation", relation_failures, 0, relation_failures == 0,
             kind="zero-tolerance"),
    ]
    return ExperimentReport(
        name="identities",
        params={"primes": list(IDENTITY_PRIMES),
                "ts": [frac_str(t) for t in IDENTITY_TS],
                "row_max": ROW_MAX, "completeness_max": COMPLETENESS_MAX,
                "rewrite_trials": REWRITE_TRIALS,
                "profile_trials": PROFILE_TRIALS},
        seed=seed,
        gates=gates,
    )


# -- bracket-overlap suite (chain factorization and largest-part CDF) ----------


def run_chain_checks() -> ExperimentReport:
    """Certified-overlap checks: the limiting partition mass equals its
    chain factorization on every boxed partition, and the largest-part CDF
    from the sparse product matches the direct partition sum."""
    factorization_failures = 0
    checked = 0
    for p in CHAIN_PRIMES:
        for t in CHAIN_TS:
            hp = HuaParams.of(p, t)
            for lam in partitions_in_box(*CHAIN_BOX):
                checked += 1
                if not nu_bracket(hp, lam, NU_EPS).overlaps(
                        nu_chain_bracket(hp, lam, NU_EPS)):
                    factorization_failures += 1

    rr_failures = 0
    rr_rows = []
    for p in CHAIN_PRIMES:
        for s in (0, 1):
            hp = HuaParams.of(p, Fraction(1, p**s))
            for x in RR_X_VALUES:
                product = rr_cdf(p, s, x, RR_EPS)
                direct = nu_k1_below(hp, x, RR_EPS)
                ok = product.overlaps(direct)
                if not ok:
                    rr_failures += 1
                rr_rows.append({"p": p, "s": s, "x": x,
                                "product": mass_json(product),
                                "direct": mass_json(direct),
                                "overlap": ok})

    gates = [
        gate("chain-factorization", factorization_failures, 0,
             factorization_failures == 0, kind="certified"),
        gate("largest-part-cdf", rr_failures, 0, rr_failures == 0,
             kind="certified"),
    ]
    return ExperimentReport(
        name="chain-checks",
        params={"primes": list(CHAIN_PRIMES),
                "ts": [frac_str(t) for t in CHAIN_TS],
                "max_parts": CHAIN_BOX[0], "max_part": CHAIN_BOX[1],
                "nu_eps": str(NU_EPS), "x_values": list(RR_X_VALUES),
                "rr_eps": str(RR_EPS)},
        seed=None,
        gates=gates,
        table=rr_rows,
        notes=[f"{checked} partition factorizations checked"],
    )


# -- suites ---------------------------------------------------------------------


SUITE_NAMES = ("oracle", "identities", "chains", "corners", "ergodic",
               "nulimit", "all")


def _scaled(draws: int, scale: float) -> int:
    return max(200, round(draws * scale))


def suite_runs(name: str, seed: int, scale: float = 1.0) -> list:
    """(runner, positional args, keyword args) of each report of a named
    suite at the shipped default configuration, in report order.  Monte
    Carlo runners get the keyword ``pool``, None here.

    ``scale`` multiplies all Monte Carlo draw counts (gates loosen
    accordingly); exact suites ignore it.  Raises OverflowError when a
    scaled draw count is not finite.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    chosen = {name} if name != "all" else set(SUITE_NAMES)
    mc = {"pool": None}
    hp1, hp2 = HuaParams.of(2, 1), HuaParams.of(2, Fraction(1, 2))
    runs = []  # (runner, positional args, keyword args)
    if "oracle" in chosen:
        for p, n, digits in ((2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 2)):
            runs.append((run_oracle_equality, (p, n, digits), {}))
    if "identities" in chosen:
        runs.append((run_identities, (seed,), {}))
    if "chains" in chosen:
        runs.append((run_chain_checks, (), {}))
    if "corners" in chosen:
        draws = _scaled(100_000, scale)
        for hp, n, corner_to in ((hp1, 3, 2), (hp2, 2, 1), (hp1, 2, 2)):
            runs.append((run_corners_consistency, (hp, n, draws, seed),
                         dict(mc, corner_to=corner_to)))
    if "ergodic" in chosen:
        draws = _scaled(1000, scale)
        runs.append((run_ergodic_convergence,
                     (2, Partition((2, 1)), (8, 16), draws, seed), mc))
        runs.append((run_ergodic_convergence,
                     (2, Partition(()), (4, 8), draws, seed), mc))
        runs.append((run_ergodic_decomposition,
                     (hp1, (8, 16), _scaled(10_000, scale), seed), mc))
    if "nulimit" in chosen:
        draws = _scaled(100_000, scale)
        for hp in (hp1, hp2):
            runs.append((run_nu_limit, (hp, (5, 10, 20, 40), draws, seed), mc))
    return runs


def run_suite(name: str, seed: int, *, workers: int = 1,
              scale: float = 1.0) -> list:
    """Run the reports of suite_runs(name, seed, scale).  With
    ``workers > 1`` one worker pool serves every Monte Carlo runner.  Each
    report's runtime is set here, outside its canonical payload.
    """
    runs = suite_runs(name, seed, scale)
    pool = None
    if workers > 1 and any("pool" in kwargs for _, _, kwargs in runs):
        pool = worker_pool(workers)
    reports = []
    try:
        for runner, args, kwargs in runs:
            if "pool" in kwargs:
                kwargs = dict(kwargs, pool=pool)
            t0 = time.perf_counter()
            report = runner(*args, **kwargs)
            report.runtime_seconds = time.perf_counter() - t0
            reports.append(report)
    finally:
        if pool is not None:
            pool.terminate()
    return reports
