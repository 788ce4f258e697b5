#!/usr/bin/env python3
"""Time one layer of a padic-hua command, before and after a change.

    python3 scripts/bench.py --layer corners --reps 15 --label after \
        --out BENCH.json

Imports padic_hua from this checkout's src/.  Each layer (LAYERS) is one
padic-hua command and, for most layers, the function that does its work:

  smith        verify ergodic --seed 1 --scale 0.1 --workers 1, and
               matrix.smith_valuations
  corners      verify corners --seed 1 --scale 0.05 --workers 1, and
               experiments.monte_carlo (its three corner-draw runs)
  sample-n400  sample hua --N 400 --count 1 --seed 1, the command alone

One untimed in-process run of the command keeps the arguments of every
call of the layer's function, which is wrapped at each place a padic_hua
module binds it (as perfbench/tracer.py does).  Each repetition then times
the command in a fresh interpreter, and each captured call made again in
this one.  The record gives the median and least of each time over the
repetitions, the calls by kind, and a sha256 of the calls' results (of
the command's stdout for a layer without a function), so two checkouts
can be compared result for result.

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
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from padic_hua import cli, experiments, matrix  # noqa: E402

# Runs padic-hua's main on the arguments after -c, with its exit code.
MAIN = "import sys; from padic_hua.cli import main; sys.exit(main())"


class Layer(NamedTuple):
    """A command, the module and name of the function whose calls are
    replayed (None: the command alone), the digest of one call's result
    and the kind a call is counted under."""

    command: tuple
    module: object
    name: str | None
    digest: Callable
    kind: Callable


def smith_digest(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.int64).tobytes()


def tally_digest(result) -> bytes:
    counts, events = result
    tally = sorted([str(label), count] for label, count in counts.items())
    return json.dumps([tally, list(events)]).encode()


LAYERS = {
    "smith": Layer(
        ("verify", "ergodic", "--seed", "1", "--scale", "0.1", "--workers",
         "1"), matrix, "smith_valuations", smith_digest,
        lambda args, kwargs: f"n{len(args[0])}"),
    "corners": Layer(
        ("verify", "corners", "--seed", "1", "--scale", "0.05", "--workers",
         "1"), experiments, "monte_carlo", tally_digest,
        lambda args, kwargs: f"{args[0].__name__}:{args[2]}"),
    "sample-n400": Layer(
        ("sample", "hua", "--N", "400", "--count", "1", "--seed", "1"),
        None, None, None, None),
}


def with_out_dir(layer: Layer, out_dir: str) -> list:
    """The command's arguments; a verify writes its reports to out_dir."""
    extra = ["--out-dir", out_dir] if layer.command[0] == "verify" else []
    return [*layer.command, *extra]


def run_fresh(layer: Layer, out_dir: str) -> tuple:
    """(seconds, stdout) of the command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", MAIN,
                           *with_out_dir(layer, out_dir)],
                          env=env, capture_output=True, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(layer.command)} exited "
                         f"{done.returncode}: {done.stderr.decode()}")
    return elapsed, done.stdout


def capture_calls(layer: Layer, out_dir: str) -> list:
    """The (args, kwargs) of every call of the layer's function made by
    one in-process run of the command."""
    original = getattr(layer.module, layer.name)
    calls = []

    def capturing(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    bound = [module for name, module in sys.modules.items()
             if name.startswith("padic_hua")
             and getattr(module, layer.name, None) is original]
    for module in bound:
        setattr(module, layer.name, capturing)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(with_out_dir(layer, out_dir))
    finally:
        for module in bound:
            setattr(module, layer.name, original)
    if code not in (0, 1):
        raise SystemExit(f"{' '.join(layer.command)} exited {code}")
    return calls


def replay(layer: Layer, calls: list) -> tuple:
    """(seconds, sha256 of the results) of one pass over the calls."""
    function = getattr(layer.module, layer.name)
    digest = hashlib.sha256()
    elapsed = 0.0
    for args, kwargs in calls:
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed += time.perf_counter() - start
        digest.update(layer.digest(result))
    return elapsed, digest.hexdigest()


def summary(times: list) -> dict | None:
    if not times:
        return None
    return {"median": round(statistics.median(times), 6),
            "min": round(min(times), 6)}


def measure(name: str, reps: int) -> dict:
    """The record of ``reps`` repetitions of one layer."""
    layer = LAYERS[name]
    command_s, layer_s, digests, calls = [], [], set(), []
    with tempfile.TemporaryDirectory() as tmp:
        if layer.name:
            calls = capture_calls(layer, os.path.join(tmp, "capture"))
        for rep in range(reps):
            seconds, stdout = run_fresh(layer, os.path.join(tmp, f"rep{rep}"))
            command_s.append(seconds)
            if layer.name:
                seconds, digest = replay(layer, calls)
                layer_s.append(seconds)
            else:
                digest = hashlib.sha256(stdout).hexdigest()
            digests.add(digest)
    if len(digests) != 1:
        raise SystemExit(f"layer {name} gave different results on the same "
                         "calls")
    kinds = Counter(layer.kind(*call) for call in calls)
    return {
        "layer": name,
        "command": "padic-hua " + " ".join(layer.command),
        "function": f"{layer.module.__name__}.{layer.name}"
                    if layer.name else None,
        "reps": reps,
        "calls": len(calls),
        "calls_by_kind": dict(sorted(kinds.items())),
        "sha256": digests.pop(),
        "command_s": summary(command_s),
        "layer_s": summary(layer_s),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layer", choices=sorted(LAYERS), required=True)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--label", default="after")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")

    record = measure(args.layer, args.reps)
    results = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            results = json.load(fh)
    results.setdefault(args.layer, {})[args.label] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.layer: {args.label: record}}, indent=2,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
