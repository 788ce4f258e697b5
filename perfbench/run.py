"""padic-hua benchmark: wall time to a passing `padic-hua verify`.

    python3 perfbench/run.py --workload corners --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition is a fresh interpreter
(perfbench/rep.py) that imports padic_hua.cli from src/ and runs the
workload's verify calls at the given seed. With --trace 0 repetitions
follow one another until --seconds have passed and the end-to-end metrics
are medians over them; the timings are given at a fixed reference speed
of the machine, measured by a speed probe during each repetition (see
rep.SpeedProbe), and the raw timings go to the results file and the
human-readable lines. With --trace 1 the run makes untraced and traced
repetitions in turn, two of each, and reports the per-layer metrics of
the first traced one, plus the tracing overhead: the median traced wall_s
minus the median untraced wall_s.

Every verify call must complete and every exact gate pass, and all
repetitions of a run must write identical report bytes; corners is run
once more, untimed, on 2 pool workers and must write the same bytes
again. Any miss sets
"correct" to false and the exit code to 1. Statistical gate misses and
report errors count as failed but leave the run correct. Each check is
made once per run, so "attempted" and "failed" do not depend on how many
repetitions fit in --seconds (see Checks).

Human-readable lines go first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A results file with
an environment block goes to .perfbench/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from rep import ROOT, SRC, WORKLOADS

REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")
OUT = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 2  # import-only interpreters before each repetition
TRACE_PLAN = (("untraced0", ()), ("traced0", ("--trace",)),
              ("untraced1", ()), ("traced1", ("--trace",)))


def source_digest() -> str:
    """sha256 of the padic_hua sources, which identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "padic_hua")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": None,  # filled from the first repetition
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_at_start": list(os.getloadavg()),
            "git_sha": git_sha(),
            "src_sha256": source_digest()}


def spawn(rep_args: list, deadline: float):
    """Run rep.py with rep_args in a fresh interpreter; (record, error).

    The record's setup_raw_s runs from just before the spawn to the end of
    the `import padic_hua.cli` in the child (one system-wide monotonic
    clock); setup_s is that time at reference speed, scaled by a burst of
    speed probes the child takes right after the import.
    """
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, REP] + rep_args, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"rep.py {' '.join(rep_args)} timed out"
    if proc.returncode != 0:
        return None, f"rep.py {' '.join(rep_args)} exited {proc.returncode}:\n{stderr}"
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = (record.pop("setup_done_ns") - spawn_ns) / 1e9
    record["setup_s"] = record["setup_raw_s"] * record["setup_ref_scale"]
    return record, None


class Checks:
    """Correctness checks of one run, counted one by one.

    Must hold at every seed: each verify call completes (exit 0 on a
    passing summary, 1 on a failing one, never a crash or usage error),
    every exact gate (kinds zero-tolerance and certified) passes, and
    report bytes match wherever they are compared. A statistical gate (kind
    stat) is a test with a false-failure rate at any fixed seed: its miss,
    like a report with errors, counts as failed but leaves the run correct.

    The repetitions of a run repeat one computation to time it, so each
    check is made once per run: the verify calls and gates of the first
    repetition, then one comparison of all report sets against it. The
    counts are thus the same in every run of a workload at a seed, however
    many repetitions fit in its time.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.misses: list = []

    def check(self, ok: bool, what: str, must_hold: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not must_hold
            self.misses.append(("FAIL: " if must_hold else "miss: ") + what)

    def add_record(self, record: dict, label: str) -> None:
        for call in record["calls"]:
            where = f"{label} {call['suite']}"
            self.check(call["complete"],
                       f"{where}: exit {call['exit']} without a complete report set")
            self.attempted += call["gates"] - len(call["failed_gates"])
            for g in call["failed_gates"]:
                self.check(False, f"{where}: {g['kind']} gate {g['report']}/"
                                  f"{g['gate']} failed", g["kind"] != "stat")
            self.check(call["errors"] == 0,
                       f"{where}: {call['errors']} report errors", False)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


E2E_UNITS = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s",
             "draws_per_ref_s": "1/s", "peak_rss_mb": "MiB"}
RAW_UNITS = {"setup_raw_s": "s", "wall_s": "s", "cpu_s": "s",
             "draws_per_s": "1/s", "ref_scale": "ratio"}  # information only


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "padic_hua", "cli.py")):
        print(f"error: no padic_hua sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    # The first import compiles the bytecode caches and is not timed: set-up
    # time is what an installed package costs on every run.
    record, error = spawn(["--setup-only"], deadline)
    if record is None:
        print(f"error: padic_hua.cli does not import: {error}", file=sys.stderr)
        return 2
    setups = []

    spec = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, args.workload, f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = Checks()
    records = []
    spawn_errors = []
    traced = None

    def rep(label: str, extra: tuple = ()):
        rep_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--out", os.path.join(run_dir, label), *extra]
        record, error = spawn(rep_args, deadline)
        if record is None:
            spawn_errors.append(error)
            return None
        draws = sum(c["draws"] for c in record["calls"])
        record["draws_per_s"] = draws / record["wall_s"]
        if "ref_scale" in record:
            record["wall_ref_s"] = record["wall_s"] * record["ref_scale"]
            record["cpu_ref_s"] = record["cpu_s"] * record["ref_scale"]
            record["draws_per_ref_s"] = draws / record["wall_ref_s"]
        return record

    def sample_setup():
        record, _ = spawn(["--setup-only"], deadline)
        if record is not None:
            setups.append(record)

    if args.trace:
        # Alternating pairs, so that the overhead is not one slow spell.
        for label, extra in TRACE_PLAN:
            record = rep(label, extra)
            if record is None:
                break
            records.append(record)
        traced = records[1] if len(records) == len(TRACE_PLAN) else None
    else:
        # Set-up samples are spread over the run, like the repetitions, so
        # that a slow spell of the machine weighs the same on both.
        while not records or time.monotonic() - started < args.seconds:
            for _ in range(SETUP_SAMPLES):
                sample_setup()
            record = rep(f"rep{len(records)}", ("--probe",))
            if record is None:
                break
            records.append(record)

    checks.check(not spawn_errors, "; ".join(spawn_errors))
    if records:
        checks.add_record(records[0], "rep0")
    digests = [r["digest"] for r in records]
    checks.check(len(set(digests)) <= 1,
                 "report bytes differ between repetitions: "
                 + ", ".join(d[:12] for d in digests))
    if spec.get("check_workers") and records:
        workers = str(spec["check_workers"])
        record = rep(f"workers{workers}", ("--workers", workers))
        digest = record["digest"] if record is not None else None
        checks.check(digest == digests[0],
                     f"{workers} workers: " + (spawn_errors[-1] if digest is None
                     else f"report bytes {digest[:12]} != {digests[0][:12]}"))
        if digest is not None:
            digests.append(digest)

    correct = checks.correct
    if records:
        env["numpy"] = records[0]["numpy"]

    metrics = {}
    summary = {}
    if args.trace and traced is not None:
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["cli.report_bytes"] = {"value": traced["report_bytes"],
                                       "unit": "bytes"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
        metrics["trace.overhead_s"] = {"value": statistics.median(
            r["wall_s"] for r in records[1::2]) - statistics.median(
            r["wall_s"] for r in records[0::2]), "unit": "s"}
    elif not args.trace and records:
        for name, unit in {**E2E_UNITS, **RAW_UNITS}.items():
            values = [r[name] for r in records]
            if name.startswith("setup_"):
                values += [r[name] for r in setups]
            q1, q3 = quartiles(values)
            if name in E2E_UNITS:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            summary[name] = {"median": statistics.median(values), "q1": q1,
                             "q3": q3, "min": min(values), "max": max(values),
                             "samples": len(values), "unit": unit}

    gate_fail_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    results_file = os.path.join(
        OUT, f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "spec": spec,
                   "gate_fail_ratio": gate_fail_ratio,
                   "misses": checks.misses,
                   "report_digests": digests,  # information only, never a gate
                   "summary": summary,
                   "repetitions": [{k: v for k, v in r.items() if k != "layers"}
                                   for r in records],
                   "result": result}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(records)} "
          f"repetition(s) of {spec['calls']}")
    for name, stats in summary.items():
        print(f"  {name:<15} {stats['median']:.6g} {stats['unit']}  (median of "
              f"{stats['samples']}; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g})")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  gate_fail_ratio {gate_fail_ratio:.6g} ratio  ({checks.failed} "
          f"failed of {checks.attempted} checks, once per run: the first "
          "repetition's verify calls, gates and report errors, repetitions "
          "run, and report-bytes comparisons)")
    for digest in dict.fromkeys(digests):
        print(f"  report digest sha256:{digest} (information only)")
    print(f"  results in {os.path.relpath(results_file, ROOT)}")
    for miss in checks.misses:
        print(miss, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
