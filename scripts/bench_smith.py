#!/usr/bin/env python3
"""Time the Smith layer of the ergodic workload, in process.

    python3 scripts/bench_smith.py --reps 5 --label after --out BENCH.json

Imports padic_hua from this checkout's src/.  One untimed run of
`padic-hua verify ergodic --seed 1 --scale 0.1 --workers 1` keeps a copy
of every stack handed to matrix.smith_valuations, which is wrapped at
each place a padic_hua module binds it (as perfbench/tracer.py does).
Each repetition then times the whole verify, and every captured stack
passed to smith_valuations again.  The record gives the median and least
of each time over the repetitions, the calls by matrix size, and a sha256
of the valuations, so two checkouts can be compared call for call.

The record is stored under --label in the JSON file --out, keeping the
other labels already there, so one file holds the runs before and after
a change.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from padic_hua import cli, matrix  # noqa: E402

VERIFY = ("verify", "ergodic", "--seed", "1", "--scale", "0.1",
          "--workers", "1")


def run_verify(out_dir: str) -> float:
    """Seconds one in-process verify takes; its output is dropped."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*VERIFY, "--out-dir", out_dir])
    elapsed = time.perf_counter() - start
    if code not in (0, 1):
        raise SystemExit(f"verify exited {code}")
    return elapsed


def capture_stacks(out_dir: str) -> list:
    """Copies of the (stack, p, digits) of every smith_valuations call
    made by one verify run."""
    original = matrix.smith_valuations
    calls = []

    def capturing(stack, p, digits):
        calls.append((np.array(stack), p, digits))
        return original(stack, p, digits)

    bound = [module for name, module in sys.modules.items()
             if name.startswith("padic_hua")
             and getattr(module, "smith_valuations", None) is original]
    for module in bound:
        module.smith_valuations = capturing
    try:
        run_verify(out_dir)
    finally:
        for module in bound:
            module.smith_valuations = original
    return calls


def time_smith(calls: list) -> tuple:
    """(seconds, sha256 of the valuations) of one pass over the calls."""
    digest = hashlib.sha256()
    elapsed = 0.0
    for stack, p, digits in calls:
        start = time.perf_counter()
        values = matrix.smith_valuations(stack, p, digits)
        elapsed += time.perf_counter() - start
        digest.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return elapsed, digest.hexdigest()


def summary(times: list) -> dict:
    return {"median": round(statistics.median(times), 6),
            "min": round(min(times), 6)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--label", default="after")
    parser.add_argument("--out", default="BENCH_smith.json")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        calls = capture_stacks(os.path.join(tmp, "capture"))
        verify_s, smith_s, digests = [], [], set()
        for rep in range(args.reps):
            verify_s.append(run_verify(os.path.join(tmp, f"rep{rep}")))
            seconds, digest = time_smith(calls)
            smith_s.append(seconds)
            digests.add(digest)
    if len(digests) != 1:
        raise SystemExit("smith_valuations gave different valuations "
                         "on the same stacks")
    sizes = Counter(f"n{len(stack)}" for stack, _, _ in calls)
    record = {
        "command": "padic-hua " + " ".join(VERIFY),
        "reps": args.reps,
        "smith_calls": len(calls),
        "smith_calls_by_size": dict(sorted(sizes.items())),
        "matrices": sum(stack.shape[-1] for stack, _, _ in calls),
        "valuations_sha256": digests.pop(),
        "smith_s": summary(smith_s),
        "verify_s": summary(verify_s),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }
    results = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            results = json.load(fh)
    results[args.label] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
