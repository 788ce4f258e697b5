#!/usr/bin/env python3
"""Run the Monte Carlo verify suites over many seeds and count gate passes.

For each seed 0..K-1 this calls `run_suite` in this process, with no
worker pool, for the corners, ergodic and nulimit suites at a reduced
`--scale`, and prints, per gate, how many of the K seeds passed it and
which seeds missed. The gates are the suites' own, with their own
thresholds; nothing is added or loosened here. Most statistical gates
widen as 1/sqrt(draws) at reduced scale, but not all: the `tv-trend` gate
of ergodic-decomposition keeps a fixed 0.01 allowance, so it misses more
often at small `--scale`.

A statistical ("stat") gate has a nonzero false-failure rate, so a few
misses over many seeds are expected; a zero-tolerance or certified gate
must pass on every seed. The exit code is 1 when one of those missed,
else 0.

    python3 scripts/seed_sweep.py --seeds 20 --scale 0.05
"""

import argparse
import sys
import time

from padic_hua.experiments import run_suite

MONTE_CARLO_SUITES = ("corners", "ergodic", "nulimit")


def sweep(suites, seeds, scale: float) -> dict:
    """{(suite, report stem, gate name, kind): [seeds that missed]}, in
    report order.  The stem is the report's file stem in `verify` output."""
    missed: dict = {}
    for seed in seeds:
        for suite in suites:
            for i, report in enumerate(run_suite(suite, seed, scale=scale)):
                for g in report.gates:
                    key = (suite, f"{i:02d}-{report.name}", g["name"], g["kind"])
                    missed.setdefault(key, [])
                    if not g["passed"]:
                        missed[key].append(seed)
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count gate passes of the Monte Carlo suites over seeds.")
    parser.add_argument("--seeds", type=int, default=20,
                        help="K: sweep seeds 0..K-1 (default 20)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="Monte Carlo draw multiplier (default 0.05)")
    args = parser.parse_args(argv)
    if args.seeds < 1 or not args.scale >= 0:
        parser.error("need --seeds >= 1 and --scale >= 0")

    t0 = time.perf_counter()
    missed = sweep(MONTE_CARLO_SUITES, range(args.seeds), args.scale)
    k = args.seeds
    print(f"seed sweep: seeds 0..{k - 1}, --scale {args.scale}, "
          f"{time.perf_counter() - t0:.1f}s")
    exact_miss = False
    for (suite, stem, name, kind), seeds in missed.items():
        seeds_text = ", ".join(map(str, seeds)) if seeds else "-"
        print(f"{suite:8} {stem:28} {name:26} {kind:15} "
              f"{k - len(seeds):>3}/{k}  missed: {seeds_text}")
        exact_miss |= kind != "stat" and bool(seeds)
    return 1 if exact_miss else 0


if __name__ == "__main__":
    sys.exit(main())
