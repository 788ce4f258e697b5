"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload corners --seed 1 --out DIR \
        [--workers 2] [--trace | --probe]
    python3 perfbench/rep.py --setup-only

Imports padic_hua.cli from the checkout's src/ (the set-up being timed),
then runs the workload's `padic-hua verify` calls one after another
through `padic_hua.cli.main`, each writing its reports under DIR/<suite>.
Prints one JSON record on stdout: timings, resource use, what the reports
say, and with --trace the per-layer metrics (spans go to DIR.spans.json).
With --probe a speed probe samples the machine's speed during the calls
(see SpeedProbe). With --setup-only it stops after the import and prints
when that ended.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Each workload is a closed loop of verify calls: (suite, --scale) in order,
# on one worker. Corners is also run once with 2 pool workers, untimed, to
# check that worker count changes no report byte.
WORKLOADS = {
    "corners": {"calls": (("corners", 0.05),), "check_workers": 2},
    "ergodic": {"calls": (("ergodic", 0.1),)},
    "exact": {"calls": (("oracle", 1.0), ("identities", 1.0), ("chains", 1.0),
                        ("nulimit", 0.05))},
}


# Reports whose draw count is per size in n_list; the others draw once.
_PER_SIZE_DRAWS = ("ergodic-convergence", "ergodic-decomposition")


def dir_digest(path: str) -> tuple:
    """(sha256 over relative paths and bytes of every file, total bytes)."""
    digest = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            digest.update(len(data).to_bytes(8, "big") + data)
            total += len(data)
    return digest.hexdigest(), total


def read_call(suite: str, out_dir: str, code: int) -> dict:
    """What one verify call's reports say: whether the report set is
    complete, its gates and failed gates, report errors and draws."""
    call = {"suite": suite, "exit": code, "complete": False, "gates": 0,
            "failed_gates": [], "errors": 0, "draws": 0}
    summary_path = os.path.join(out_dir, "summary.json")
    if not os.path.isfile(summary_path):
        return call
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    for entry in summary["reports"]:
        with open(os.path.join(out_dir, entry["file"]), encoding="utf-8") as fh:
            report = json.load(fh)
        call["gates"] += len(report["gates"])
        call["failed_gates"] += [
            {"report": report["name"], "gate": g["name"], "kind": g["kind"]}
            for g in report["gates"] if not g["passed"]]
        call["errors"] += report["errors"]
        params = report["params"]
        if "draws" in params:
            sizes = len(params["n_list"]) if report["name"] in _PER_SIZE_DRAWS else 1
            call["draws"] += params["draws"] * sizes
    call["complete"] = code == (0 if summary["passed"] else 1)
    return call


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# The shared host the benchmark was tuned on switches between a fast and a
# slow state (about 2x apart) every few seconds and has slow spells lasting
# minutes, so raw times of one workload spread by 15-33% between runs. The
# probe measures that speed while the verify calls run, so that times can
# also be given at a fixed reference speed.
PROBE_INTERVAL_S = 0.02
REF_PROBE_S = 150e-6  # about the snippet's time in the host's fast state
BURST_PROBES = 20
_MERSENNE_127 = 2**127 - 1


def probe_snippet() -> None:
    """A fixed piece of interpreter work of the kinds padic_hua does:
    big-integer arithmetic, dict stores and Fraction arithmetic."""
    acc, table = 0, {}
    for i in range(150):
        acc = (acc * 1103515245 + i) % _MERSENNE_127
        table[i & 63] = acc
    f = Fraction(1, 3)
    for i in range(1, 25):
        f = f * Fraction(i, i + 1) + 1


class SpeedProbe:
    """Times probe_snippet from a SIGALRM handler every PROBE_INTERVAL_S.

    The samples are evenly spaced in time, so the mean of 1/duration is
    the machine's mean speed over the interval measured. The snippet's own
    time (about 1% of the run) is part of what is measured.
    """

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        probe_snippet()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self, count: int) -> None:
        """Take count samples now, back to back."""
        for _ in range(count):
            self._sample(None, None)

    def ref_scale(self) -> float:
        """Seconds at reference speed per second measured: REF_PROBE_S
        times the mean of 1/duration over the samples."""
        if not self.samples:  # the calls ended within one interval
            self.take(BURST_PROBES)
        return REF_PROBE_S * statistics.fmean(1 / t for t in self.samples)


def main() -> int:
    sys.path.insert(0, SRC)
    import padic_hua.cli
    setup_done_ns = time.monotonic_ns()
    # The speed state lasts seconds, so a burst of samples right after the
    # import gives the speed of the set-up just ended.
    setup_probe = SpeedProbe()
    setup_probe.take(BURST_PROBES)
    setup_ref_scale = setup_probe.ref_scale()
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"setup_done_ns": setup_done_ns,
                          "setup_ref_scale": setup_ref_scale}))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=1)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(padic_hua.cli.__file__).startswith(SRC + os.sep):
        print(f"padic_hua imported from {padic_hua.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    codes = []
    probe = SpeedProbe() if args.probe else contextlib.nullcontext()
    with probe:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for suite, scale in spec["calls"]:
            codes.append(padic_hua.cli.main([
                "verify", suite, "--seed", str(args.seed), "--scale", str(scale),
                "--workers", str(args.workers),
                "--out-dir", os.path.join(args.out, suite)]))
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    import numpy
    digest, report_bytes = dir_digest(args.out)
    record = {
        "setup_done_ns": setup_done_ns,
        "setup_ref_scale": setup_ref_scale,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kib / 1024,
        "calls": [read_call(suite, os.path.join(args.out, suite), code)
                  for (suite, _), code in zip(spec["calls"], codes)],
        "digest": digest,
        "report_bytes": report_bytes,
        "numpy": numpy.__version__,
    }
    if args.probe:
        record["probe_samples"] = len(probe.samples)
        record["ref_scale"] = probe.ref_scale()
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["spans"] = len(tracer.spans)
        tracer.write(args.out + ".spans.json", f"{args.workload}-seed{args.seed}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
