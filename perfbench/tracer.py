"""In-memory span tracer that wraps padic_hua functions from the outside.

Nothing under src/ knows about it: `install` replaces each traced function
at every place a padic_hua module binds it (``from .matrix import
sample_haar_gl`` copies the function into the importing module, so each
copy is replaced), and methods and classmethods on their class.

Every wrapped call pushes a frame on one stack. When it returns, its
duration is charged to the caller's frame, so a function's self time is
its duration minus the time its traced callees took. Recorded functions
also keep one span (id, parent id, name, start, end) in memory; `write`
saves them when the run ends. The hottest leaves (COUNT_ONLY) keep only
their counters and times, no span, so that tracing memory stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Traced functions per module; "Class.method" is patched on the class. A
# function's metric name is "<module>.<function>" unless aliased below, and
# the module is its layer.
TRACED = {
    "cli": ("main", "write_report_files"),
    "experiments": ("run_suite", "run_oracle_equality", "run_identities",
                    "run_chain_checks", "run_corners_consistency",
                    "run_ergodic_convergence", "run_ergodic_decomposition",
                    "run_nu_limit", "enumerate_oracle", "merge_counts",
                    "tv_on_support", "tv_distance"),
    "samplers": ("sample_hua_matrix", "sample_hua_singulars",
                 "sample_ergodic_matrix", "sample_nu", "sample_pi_s",
                 "run_chain"),
    "matrix": ("sample_haar_gl", "assemble_orbit", "corner", "singular_numbers",
               "smith_valuations"),
    "laws": ("kernel_row", "pi_n", "tilde_pi_n", "pi_s_bracket", "m_n_direct",
             "m_n_profile", "chain_product_rep1", "chain_product_rep2",
             "nu_bracket", "nu_chain_bracket", "vol_singular_law",
             "haar_orbit_mass", "rr_cdf", "nu_k1_below",
             "rewrite_identity_check", "m_n_truncated_law", "nu_truncated_law",
             "pi_n_boundary_tv"),
    "qseries": ("pochhammer", "pochhammer_inf"),
    "partitions": ("Partition.from_tail_counts", "LProfile.from_singular_values"),
    "rng": ("RngStream.randbelow", "RngStream.randbits"),
}
ALIASES = {"experiments.tv_on_support": "experiments.tv",
           "experiments.tv_distance": "experiments.tv",
           "laws.chain_product_rep1": "laws.chain_product",
           "laws.chain_product_rep2": "laws.chain_product"}

# Called hundreds of thousands of times per run: counters and times only.
COUNT_ONLY = {"rng.randbelow", "rng.randbits", "qseries.pochhammer",
              "qseries.pochhammer_inf"}

# Smith valuations are keyed by matrix size: few large matrices (ergodic)
# and many small ones (corners) are different workloads for one function.
KEYED = {"matrix.smith_valuations": lambda args: f"n{len(args[0])}"}

# Extra per-call counters: random bits asked for, and chain steps taken.
BITS = {"rng.randbits": lambda args: args[1]}
TALLY = {"samplers.run_chain": len}

# Frame slots: time charged by traced callees, random bits drawn beneath,
# span id (-1 when not recorded), Stat of the running call.
_CHILD_NS, _BITS, _SPAN, _STAT = 0, 1, 2, 3


class Stat:
    """Counters for one metric name."""

    __slots__ = ("id", "calls", "self_ns", "bits", "tally", "raised",
                 "children")

    def __init__(self, stat_id: int):
        self.id = stat_id
        self.calls = self.self_ns = 0
        self.bits = self.tally = self.raised = 0
        self.children: dict = {}  # callee name -> calls made directly from here


class Tracer:
    """Spans and per-name counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list = []
        self.stats: dict = {}
        self.spans: list = []  # (id, parent id or -1, name id, start_ns, end_ns)
        self.t0 = time.perf_counter_ns()
        # The root frame stands for the benchmark code around the traced calls.
        self.stack = [[0, 0, -1, Stat(-1)]]

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(len(self.names))
            self.names.append(name)
        return stat

    def wrap(self, name: str, func):
        """Return ``func`` wrapped so each call is timed under ``name``."""
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns
        t0 = self.t0
        record = name not in COUNT_ONLY
        key = KEYED.get(name)
        bits = BITS.get(name)
        tally = TALLY.get(name)
        fixed = None if key else self.stat(name)

        def traced(*args, **kwargs):
            stat = fixed or self.stat(f"{name}.{key(args)}")
            parent = stack[-1]
            span_id = -1
            if record:
                span_id = len(spans)
                spans.append(None)  # reserves the id; filled in on return
            frame = [0, bits(args) if bits else 0, span_id, stat]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.self_ns += dur - frame[_CHILD_NS]
                stat.bits += frame[_BITS]
                parent[_CHILD_NS] += dur
                parent[_BITS] += frame[_BITS]
                kids = parent[_STAT].children
                kids[name] = kids.get(name, 0) + 1
                if record:
                    spans[span_id] = (span_id, parent[_SPAN], stat.id,
                                      start - t0, end - t0)
            if tally:
                stat.tally += tally(result)
            return result

        return functools.update_wrapper(traced, func)

    def install(self) -> None:
        """Wrap every TRACED function at each place padic_hua binds it."""
        modules = [mod for modname, mod in sorted(sys.modules.items())
                   if modname == "padic_hua" or modname.startswith("padic_hua.")]
        for modname, attrs in TRACED.items():
            module = importlib.import_module(f"padic_hua.{modname}")
            for attr in attrs:
                *owner, func_name = attr.split(".")
                name = f"{modname}.{func_name}"
                name = ALIASES.get(name, name)
                if owner:
                    cls = getattr(module, owner[0])
                    raw = cls.__dict__[func_name]
                    if isinstance(raw, classmethod):
                        raw = classmethod(self.wrap(name, raw.__func__))
                    else:
                        raw = self.wrap(name, raw)
                    setattr(cls, func_name, raw)
                    continue
                func = getattr(module, func_name)
                wrapped = self.wrap(name, func)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            setattr(mod, key, wrapped)

    def write(self, path: str, run_id: str) -> None:
        """Write every recorded span; times are ns since the tracer started."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "names": self.names,
                       "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh,
                      separators=(",", ":"))
            fh.write("\n")



LAYERS = ("cli", "experiments", "samplers", "matrix", "laws", "qseries",
          "partitions", "rng")

# Per-function metrics; p50/p99 are of whole-call durations of recorded spans.
FUNCTION_METRICS = {
    "rng.randbelow": ("calls",),
    "matrix.sample_haar_gl": ("calls", "self_s", "p50_us", "p99_us"),
    "matrix.assemble_orbit": ("self_s", "p50_us"),
    "matrix.smith_valuations.n2": ("self_s", "p50_us", "p99_us"),
    "matrix.smith_valuations.n16": ("self_s", "p50_us", "p99_us"),
    "samplers.sample_pi_s": ("self_s", "p50_us", "p99_us"),
    "samplers.sample_ergodic_matrix": ("self_s", "p50_us"),
    "samplers.sample_hua_singulars": ("self_s", "p50_us"),
    "samplers.run_chain": ("self_s",),
    "laws.kernel_row": ("self_s",),
    "laws.pi_n": ("self_s",),
    "laws.tilde_pi_n": ("self_s",),
    "laws.m_n_direct": ("self_s",),
    "laws.chain_product": ("self_s",),
    "laws.nu_bracket": ("self_s",),
    "laws.m_n_truncated_law": ("self_s",),
    "laws.nu_truncated_law": ("self_s",),
    "laws.pi_n_boundary_tv": ("self_s",),
    "qseries.pochhammer": ("calls", "self_s"),
    "qseries.pochhammer_inf": ("calls", "self_s"),
    "partitions.from_tail_counts": ("self_s",),
    "partitions.from_singular_values": ("self_s",),
    "experiments.tv": ("self_s",),
    "experiments.merge_counts": ("self_s",),
    "experiments.enumerate_oracle": ("self_s",),
    "cli.write_report_files": ("self_s",),
}

# Monte Carlo runners: in their own (self) time the parent process is
# either running block glue or, with workers > 1, waiting on the pool.
MONTE_CARLO_RUNNERS = ("experiments.run_corners_consistency",
                       "experiments.run_ergodic_convergence",
                       "experiments.run_ergodic_decomposition",
                       "experiments.run_nu_limit")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _percentile_us(durations: list, q: float) -> float:
    """Nearest-rank percentile of ns durations, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e3


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a finished traced run, as {name: (value, unit)}.

    A function never called in the run reads 0.
    """
    stats = tracer.stats
    durations: dict = {}
    for span in tracer.spans:
        if span is not None:
            durations.setdefault(span[2], []).append(span[4] - span[3])

    def stat(name: str) -> Stat:
        return stats.get(name) or Stat(-1)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            s.self_ns for name, s in stats.items()
            if name.split(".", 1)[0] == layer) / 1e9, "s")
    for name, fields in FUNCTION_METRICS.items():
        s = stat(name)
        spans = durations.get(s.id, [])
        values = {"calls": (s.calls, "count"), "self_s": (s.self_ns / 1e9, "s"),
                  "p50_us": (_percentile_us(spans, 0.50), "us"),
                  "p99_us": (_percentile_us(spans, 0.99), "us")}
        for field in fields:
            out[f"{name}.{field}"] = values[field]
    randbelow, haar = stat("rng.randbelow"), stat("matrix.sample_haar_gl")
    hua = stat("samplers.sample_hua_matrix")
    out["rng.randbits.bits"] = (stat("rng.randbits").bits, "bits")
    out["rng.randbelow.accept_ratio"] = (_ratio(
        randbelow.calls, randbelow.children.get("rng.randbits", 0)), "ratio")
    out["matrix.sample_haar_gl.accept_ratio"] = (_ratio(
        haar.calls, haar.children.get("rng.randbelow", 0)), "ratio")
    out["samplers.sample_pi_s.rounds"] = (
        stat("samplers.sample_pi_s").children.get("rng.randbits", 0), "count")
    out["samplers.sample_ergodic_matrix.bits"] = (
        stat("samplers.sample_ergodic_matrix").bits, "bits")
    out["samplers.run_chain.steps"] = (stat("samplers.run_chain").tally, "count")
    out["samplers.sample_hua_matrix.overflow_ratio"] = (
        _ratio(hua.raised, hua.calls), "ratio")
    out["experiments.parallel_map.wait_s"] = (sum(
        stat(name).self_ns for name in MONTE_CARLO_RUNNERS) / 1e9, "s")
    return out
