"""Command-line front end.

Subcommands: ``law`` evaluates any implemented mass or bracket, ``sample``
emits JSON-lines draws, ``sing`` prints the singular numbers of a matrix
file, ``verify`` runs named experiment suites and writes JSON reports plus
CSV tables.

Exit codes are a stable contract: 0 pass, 1 gate failure, 2 usage or
configuration error.  A reader that closes stdout early (``| head``) ends
the run quietly with 141, the status of a process killed by SIGPIPE.
Exact rationals are always serialized as "num/den" strings; decimals are
display-only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from .experiments import DRAW_CHUNK, SUITE_NAMES, run_suite, suite_runs
from .laws import (
    HuaParams,
    hua_density,
    kernel_p,
    m_n_direct,
    haar_orbit_mass,
    nu_bracket,
    nu_chain_bracket,
    nu_k1_below,
    pi_n,
    pi_s_bracket,
    rr_cdf,
    tilde_pi_n,
    vol_singular_law,
)
from .matrix import (format_entry, parse_matrix_text, residue_dtype,
                     singular_numbers)
from .padic import DIGITS, GUARD, PrecisionExhausted, check_prime
from .partitions import Partition
from .qseries import Bracket, pochhammer, pochhammer_inf
from .rng import RngStream
from .samplers import (
    ergodic_matrices,
    hua_matrices,
    sample_ergodic_matrix,
    sample_hua_matrix,
    sample_nu,
)

LAW_SCHEMA = "padic-hua/law/1"
SAMPLE_SCHEMA = "padic-hua/sample/1"

# Stream namespaces for the sample subcommand, per record kind.
_SAMPLE_NS = {"nu": 10, "hua": 11, "ergodic": 12}

# Most bytes of residues one chunk of sample draws may hold: a chunk keeps
# the reads of up to DRAW_CHUNK draws at once.  The peak resident memory
# of a chunk, with its stacks and printed entries, measured 5 to 11 times
# this count (ergodic and hua chunks of 64 draws, p = 2, E from 24 to 200),
# so the budget keeps a chunk below about 3 GiB.
MAX_CHUNK_BYTES = 2**28


# Options whose value may start with "-": a tuple such as -1,-2 or a
# fraction such as -1/2, which argparse would read as an option.
_SIGNED_OPTIONS = ("--k", "--a", "--q")


class ConfigError(Exception):
    """Bad parameter values (exit code 2)."""


def parse_fraction(text: str) -> Fraction:
    """Exact fraction from 'num/den' or an integer string; decimals are
    refused so exactness survives the CLI boundary."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ConfigError(
            f"{text!r} is not an exact fraction; write it as num/den (e.g. 1/2)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse {text!r} as a fraction: {exc}") from None


def parse_eps(text: str) -> Fraction:
    """Positive tolerance from 'num/den', an integer, a decimal or
    scientific notation; converted exactly."""
    try:
        eps = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"cannot parse {text!r} as a tolerance; write num/den, a decimal "
            f"or scientific notation (e.g. 1/100, 0.01, 1e-9)") from None
    _require(eps > 0, f"tolerance must be positive, got {text!r}")
    return eps


def parse_int_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def law_value_json(value) -> dict:
    if isinstance(value, Bracket):
        return {"lower": frac_str(value.lower), "upper": frac_str(value.upper),
                "decimal_lower": repr(float(value.lower)),
                "decimal_upper": repr(float(value.upper))}
    value = Fraction(value)
    return {"exact": frac_str(value), "decimal": repr(float(value))}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _hp(args) -> HuaParams:
    try:
        return HuaParams.of(args.p, parse_fraction(args.t))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_law(args) -> int:
    name = args.name
    params: dict = {}
    try:
        if name == "pochhammer":
            a, q = parse_fraction(args.a), parse_fraction(args.q)
            value = pochhammer(a, q, args.n)
            params = {"a": frac_str(a), "q": frac_str(q), "n": args.n}
        elif name == "pochhammer_inf":
            a, q = parse_fraction(args.a), parse_fraction(args.q)
            eps = parse_eps(args.eps)
            value = pochhammer_inf(a, q, eps)
            params = {"a": frac_str(a), "q": frac_str(q), "eps": args.eps}
        elif name == "kernel":
            hp = _hp(args)
            value = kernel_p(hp, args.x1, args.x2)
            params = {"p": hp.p, "t": frac_str(hp.t), "x1": args.x1, "x2": args.x2}
        elif name == "pi_s":
            hp = _hp(args)
            value = pi_s_bracket(hp, args.x, parse_eps(args.eps))
            params = {"p": hp.p, "t": frac_str(hp.t), "x": args.x, "eps": args.eps}
        elif name == "pi_N":
            hp = _hp(args)
            value = pi_n(hp, args.N, args.x)
            params = {"p": hp.p, "t": frac_str(hp.t), "N": args.N, "x": args.x}
        elif name == "tilde_pi_N":
            hp = _hp(args)
            value = tilde_pi_n(hp, args.N, args.x)
            params = {"p": hp.p, "t": frac_str(hp.t), "N": args.N, "x": args.x}
        elif name == "mN":
            hp = _hp(args)
            k = parse_int_list(args.k)
            value = m_n_direct(hp, k)
            params = {"p": hp.p, "t": frac_str(hp.t), "k": list(k)}
        elif name == "vol":
            k = parse_int_list(args.k)
            value = vol_singular_law(args.p, len(k), k)
            params = {"p": args.p, "k": list(k)}
        elif name == "haar_orbit":
            k = parse_int_list(args.k)
            value = haar_orbit_mass(args.p, len(k), k)
            params = {"p": args.p, "k": list(k)}
        elif name == "nu":
            hp = _hp(args)
            lam = Partition(parse_int_list(args.k))
            value = nu_bracket(hp, lam, parse_eps(args.eps))
            params = {"p": hp.p, "t": frac_str(hp.t), "k": list(lam.parts),
                      "eps": args.eps}
        elif name == "nu_chain":
            hp = _hp(args)
            lam = Partition(parse_int_list(args.k))
            value = nu_chain_bracket(hp, lam, parse_eps(args.eps))
            params = {"p": hp.p, "t": frac_str(hp.t), "k": list(lam.parts),
                      "eps": args.eps}
        elif name == "rr_cdf":
            value = rr_cdf(args.p, args.s, args.x, parse_eps(args.eps))
            params = {"p": args.p, "s": args.s, "x": args.x, "eps": args.eps}
        elif name == "nu_k1_below":
            hp = _hp(args)
            value = nu_k1_below(hp, args.x, parse_eps(args.eps))
            params = {"p": hp.p, "t": frac_str(hp.t), "x": args.x, "eps": args.eps}
        elif name == "hua_density":
            hp = _hp(args)
            k = parse_int_list(args.k)
            power, coeff = hua_density(hp, k)
            doc = {"schema": LAW_SCHEMA, "law": name,
                   "params": {"p": hp.p, "t": frac_str(hp.t), "k": list(k)},
                   "p_power": power, "coefficient": frac_str(coeff),
                   "decimal": repr(float(coeff) * float(hp.p) ** power)}
            print(json.dumps(doc, sort_keys=True))
            return 0
        else:
            raise ConfigError(f"unknown law {name!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from None
    doc = {"schema": LAW_SCHEMA, "law": name, "params": params}
    try:
        doc.update(law_value_json(value))
    except ValueError:
        # A numerator or denominator has more digits than the interpreter
        # converts to a string.
        raise ConfigError(
            f"law value has more than {sys.get_int_max_str_digits()} digits, "
            f"too long to print") from None
    print(json.dumps(doc, sort_keys=True))
    return 0


def matrix_record(units, shift: int, p: int, digits: int) -> dict:
    return {"n": len(units), "digits": digits, "shift": shift,
            "matrix": [[format_entry(u, p, shift, digits) for u in row]
                       for row in units.tolist()]}


def cmd_sample(args) -> int:
    hp = _hp(args)
    digits, guard = args.E, args.guard
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    _require(args.N >= 1, f"--N must be >= 1, got {args.N}")
    _require(digits >= 1, f"--E must be >= 1, got {digits}")
    _require(0 <= guard < digits,
             f"need 0 <= --guard < --E, got guard {guard} and E {digits}")
    _require(args.count >= 0, f"--count must be >= 0, got {args.count}")
    namespace = _SAMPLE_NS[args.kind]
    lam = None
    reads = 2 * args.N**2  # the residues of two Haar reads
    if args.kind == "ergodic":
        try:
            lam = Partition(parse_int_list(args.k))
        except ValueError as exc:
            raise ConfigError(f"bad --k: {exc}") from None
        reads = (2 * lam.num_parts + args.N) * args.N
    if args.kind != "nu":
        # A residue below p^E has up to E log10(p) + 1 digits, and the
        # interpreter prints no int longer than its limit (0: no limit).
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        _require(not limit or digits * math.log10(hp.p) < limit,
                 f"--E {digits} at p = {hp.p} gives entries longer than "
                 f"the interpreter's {limit}-digit limit on printed ints")
        # A residue is an int64 word, or a pointer and a Python int of
        # about 32 + E log2(p) / 8 bytes.
        width = (8 if residue_dtype(hp.p, digits) is not object
                 else 40 + math.ceil(digits * math.log2(hp.p) / 8))
        size = min(args.count, DRAW_CHUNK) * reads * width
        _require(size <= MAX_CHUNK_BYTES,
                 f"a chunk of {args.kind} draws at --N {args.N} and --E "
                 f"{digits} holds {size} bytes of residues, above the "
                 f"budget of {MAX_CHUNK_BYTES}")
    out = sys.stdout
    # Records are written a chunk at a time: the chunk's matrices are
    # assembled as one stack, and their singular numbers come from one
    # batched call.
    for start in range(0, args.count, DRAW_CHUNK):
        records, drawn, draws = [], [], []
        for index in range(start, min(start + DRAW_CHUNK, args.count)):
            rng = RngStream(args.seed, (namespace, index))
            record = {"schema": SAMPLE_SCHEMA, "kind": args.kind,
                      "seed": args.seed, "index": index}
            records.append(record)
            try:
                if args.kind == "nu":
                    record["k"] = list(sample_nu(hp, rng).parts)
                elif args.kind == "hua":
                    draws.append(sample_hua_matrix(hp, args.N, digits, rng))
                    drawn.append(record)
                else:
                    draws.append(
                        sample_ergodic_matrix(hp.p, lam, args.N, digits, rng))
                    drawn.append(record)
            except PrecisionExhausted as exc:
                record["error"] = str(exc)
        if drawn:
            assemble = hua_matrices if args.kind == "hua" else ergodic_matrices
            units, shifts = assemble(draws, hp.p, args.N, digits)
            for record, m, shift in zip(drawn, units, shifts):
                record.update(matrix_record(m, shift, hp.p, digits))
            if args.kind == "hua":
                values, floors = singular_numbers(units, shifts, hp.p, digits,
                                                  guard)
                for record, vals, floor in zip(drawn, values.tolist(),
                                               floors.tolist()):
                    record["k"] = [v if v > floor else None for v in vals]
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_sing(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}") from None
    try:
        check_prime(args.p)
    except ValueError as exc:
        raise ConfigError(f"bad --p: {exc}") from None
    _require(args.E >= 1, f"--E must be >= 1, got {args.E}")
    _require(0 <= args.guard < args.E,
             f"need 0 <= --guard < --E, got guard {args.guard} and E {args.E}")
    try:
        units, shift = parse_matrix_text(text, args.p, args.E)
        # A shift beyond int64 overflows here.
        values, floors = singular_numbers(units[None], [shift], args.p,
                                          args.E, args.guard)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad matrix literal: {exc}") from None
    [vals], [floor] = values.tolist(), floors.tolist()
    doc = {"schema": "padic-hua/sing/1", "p": args.p, "n": len(units),
           "digits": args.E, "shift": shift, "floor": floor,
           "k": [v if v > floor else f"<={floor}" for v in vals]}
    print(json.dumps(doc, sort_keys=True))
    return 0


def _flatten(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def write_report_files(reports, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for i, report in enumerate(reports):
        stem = f"{i:02d}-{report.name}"
        with open(os.path.join(out_dir, stem + ".json"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_json())
        if report.table:
            keys = sorted({key for row in report.table for key in row})
            with open(os.path.join(out_dir, stem + ".csv"), "w",
                      encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(keys)
                for row in report.table:
                    writer.writerow([_flatten(row.get(k, "")) for k in keys])
        summary.append({"file": stem + ".json", "name": report.name,
                        "passed": report.passed})
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema": "padic-hua/summary/1", "reports": summary,
                   "passed": all(r["passed"] for r in summary)},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_verify(args) -> int:
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    _require(math.isfinite(args.scale) and args.scale >= 0,
             f"--scale must be a finite number >= 0, got {args.scale}")
    workers = args.workers
    if workers is None:
        # Read here, not when the parser is built, so a bad value only
        # affects the one subcommand that uses it.
        env = os.environ.get("PADIC_HUA_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(
                f"PADIC_HUA_WORKERS must be an integer, got {env!r}") from None
    _require(workers >= 1, f"worker count must be >= 1, got {workers}")
    try:
        suite_runs(args.suite, args.seed, args.scale)
    except OverflowError as exc:
        raise ConfigError(f"--scale {args.scale} is too large: {exc}") from None
    # Made before the run, so an unusable directory fails in a moment
    # instead of after the whole suite.
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {args.out_dir}: {exc}") from None
    t0 = time.perf_counter()
    reports = run_suite(args.suite, args.seed, workers=workers,
                        scale=args.scale)
    write_report_files(reports, args.out_dir)
    failed = [r.name for r in reports if not r.passed]
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.name} ({report.runtime_seconds:.1f}s)",
              file=sys.stderr)
    print(f"total {time.perf_counter() - t0:.1f}s; reports in {args.out_dir}",
          file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-hua",
        description="Exact laws, samplers and verification experiments for "
                    "singular numbers of random p-adic matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    law = sub.add_parser("law", help="evaluate a mass or certified bracket")
    law.add_argument("name")
    law.add_argument("--p", type=int, default=2)
    law.add_argument("--t", default="1", help="exact fraction num/den")
    law.add_argument("--N", type=int, default=1)
    law.add_argument("--x", type=int, default=0)
    law.add_argument("--x1", type=int, default=0)
    law.add_argument("--x2", type=int, default=0)
    law.add_argument("--s", type=int, default=0)
    law.add_argument("--n", type=int, default=0)
    law.add_argument("--a", default="1/2")
    law.add_argument("--q", default="1/2")
    law.add_argument("--k", default="", help="comma-separated integers")
    law.add_argument("--eps", default="1e-9")
    law.set_defaults(func=cmd_law)

    sample = sub.add_parser("sample", help="emit JSON-lines draws")
    sample.add_argument("kind", choices=sorted(_SAMPLE_NS))
    sample.add_argument("--p", type=int, default=2)
    sample.add_argument("--t", default="1")
    sample.add_argument("--N", type=int, default=2)
    sample.add_argument("--E", type=int, default=DIGITS)
    sample.add_argument("--guard", type=int, default=GUARD)
    sample.add_argument("--k", default="", help="partition for ergodic draws")
    sample.add_argument("--count", type=int, default=1)
    sample.add_argument("--seed", type=int, required=True)
    sample.set_defaults(func=cmd_sample)

    sing = sub.add_parser("sing", help="singular numbers of a matrix file")
    sing.add_argument("file")
    sing.add_argument("--p", type=int, required=True)
    sing.add_argument("--E", type=int, default=DIGITS)
    sing.add_argument("--guard", type=int, default=0)
    sing.set_defaults(func=cmd_sing)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--out-dir", default="reports")
    verify.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: $PADIC_HUA_WORKERS "
                             "or 1)")
    verify.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on Monte Carlo draw counts")
    verify.set_defaults(func=cmd_verify)
    return parser


def attach_signed_values(argv) -> list:
    """argv with each value after a _SIGNED_OPTIONS option that starts with
    "-" and a digit attached to it, as in "--k=-1,-2"."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and arg[:1] == "-" \
                and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at the null device, so that the flush at exit does
        # not raise again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
