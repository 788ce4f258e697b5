#!/usr/bin/env python3
"""Time the corner-draw layer of the corners workload, in process.

    python3 scripts/bench_corners.py --reps 15 --label after --out BENCH.json

Imports padic_hua from this checkout's src/.  One untimed run of
`padic-hua verify corners --seed 1 --scale 0.05 --workers 1` keeps the
arguments of every experiments.monte_carlo call it makes: the three
corner-draw runs of suite_runs("corners", 1, 0.05).  Each repetition then
times the whole verify, and each captured monte_carlo call made again.
The record gives the median and least of each time over the repetitions,
the draws of each run, and a sha256 of the merged tallies, so two
checkouts can be compared tally for tally.

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from padic_hua import cli, experiments  # noqa: E402

VERIFY = ("verify", "corners", "--seed", "1", "--scale", "0.05",
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


def capture_runs(out_dir: str) -> list:
    """The (args, kwargs) of every monte_carlo call made by one verify
    run."""
    original = experiments.monte_carlo
    calls = []

    def capturing(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    experiments.monte_carlo = capturing
    try:
        run_verify(out_dir)
    finally:
        experiments.monte_carlo = original
    return calls


def time_runs(calls: list) -> tuple:
    """(seconds per call, sha256 of the merged tallies) of one pass over
    the calls."""
    digest = hashlib.sha256()
    seconds = []
    for args, kwargs in calls:
        start = time.perf_counter()
        counts, events = experiments.monte_carlo(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
        tally = sorted([str(label), count] for label, count in counts.items())
        digest.update(json.dumps([tally, list(events)]).encode())
    return seconds, digest.hexdigest()


def summary(times: list) -> dict:
    return {"median": round(statistics.median(times), 6),
            "min": round(min(times), 6)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--label", default="after")
    parser.add_argument("--out", default="BENCH_corners.json")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        calls = capture_runs(os.path.join(tmp, "capture"))
        verify_s, run_s, digests = [], [], set()
        for rep in range(args.reps):
            verify_s.append(run_verify(os.path.join(tmp, f"rep{rep}")))
            seconds, digest = time_runs(calls)
            run_s.append(seconds)
            digests.add(digest)
    if len(digests) != 1:
        raise SystemExit("monte_carlo gave different tallies on the same "
                         "arguments")
    record = {
        "command": "padic-hua " + " ".join(VERIFY),
        "reps": args.reps,
        "runs": [{"draw": call_args[0].__name__, "draws": call_args[2],
                  "key": list(call_args[4]),
                  "monte_carlo_s": summary([rep[i] for rep in run_s])}
                 for i, (call_args, _) in enumerate(calls)],
        "tallies_sha256": digests.pop(),
        "monte_carlo_s": summary([sum(rep) for rep in run_s]),
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
