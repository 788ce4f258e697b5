#!/usr/bin/env python3
"""Calibration pilot for the ergodic-convergence gates.

The match frequency f_N (leading singular numbers of an N x N corner
reproduce the parameter partition, one index past its positive support)
has no closed-form finite-N rate, so the shipped thresholds were frozen
from this pilot: f is already > 0.95 by N = 8 for small parameters at
p = 2 and keeps climbing, which is why the default suite gates
f_16 >= 0.95 on 1000 draws.

Run with no arguments for the frozen grid; pass --draws to change the
resolution.  Wall time a few minutes at the default 2000 draws.
"""

import argparse

from padic_hua.experiments import run_ergodic_convergence
from padic_hua.padic import DIGITS, check_prime
from padic_hua.partitions import Partition


def prime(text: str) -> int:
    """--p as a checked prime, so a composite one is refused at once."""
    try:
        return check_prime(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=prime, default=2)
    parser.add_argument("--draws", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    grid = [(), (1,), (2, 1), (3, 1, 1)]
    sizes = (4, 6, 8, 12, 16)
    print(f"p={args.p} draws={args.draws} digits={DIGITS} seed={args.seed}")
    print(f"{'k':>12} " + " ".join(f"f_{n:<4}" for n in sizes))
    for parts in grid:
        report = run_ergodic_convergence(
            args.p, Partition(parts), sizes, args.draws, args.seed)
        freqs = " ".join(f"{row['frequency']['float']:.4f}"
                         for row in report.table)
        print(f"{str(parts):>12} {freqs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
