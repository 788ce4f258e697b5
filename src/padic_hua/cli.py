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
from typing import Callable, NamedTuple

from .experiments import DRAW_CHUNK, SUITE_NAMES, run_suite, suite_runs
from .laws import (HuaParams, haar_orbit_mass, hua_density, kernel_p,
                   m_n_direct, nu_bracket, nu_chain_bracket, nu_k1_below, pi_n,
                   pi_s_bracket, rr_cdf, tilde_pi_n, vol_singular_law)
from .matrix import (format_entry, parse_matrix_text, residue_dtype,
                     singular_numbers)
from .padic import DIGITS, GUARD, PrecisionExhausted, check_prime
from .partitions import Partition
from .qseries import Bracket, frac_str, pochhammer, pochhammer_inf
from .rng import RngStream
from .samplers import (ergodic_matrices, hua_matrices, sample_ergodic_matrix,
                       sample_hua_matrix, sample_nu)

LAW_SCHEMA = "padic-hua/law/1"
SAMPLE_SCHEMA = "padic-hua/sample/1"

# Each kind of sample record: its stream namespace and the options it reads.
_SAMPLE_KINDS = {"nu": (10, ("p", "t", "count", "seed")),
                 "hua": (11, ("p", "t", "count", "seed", "N", "E", "guard")),
                 "ergodic": (12, ("p", "count", "seed", "N", "E", "k"))}

# Most bytes of residues one chunk of sample draws may hold: a chunk keeps
# the reads of up to DRAW_CHUNK draws at once.  The peak resident memory
# of a chunk, with its stacks and printed entries, measured 5 to 11 times
# this count (ergodic and hua chunks of 64 draws, p = 2, E from 24 to 200),
# so the budget keeps a chunk below about 3 GiB.
MAX_CHUNK_BYTES = 2**28


class ConfigError(Exception):
    """Bad parameter values (exit code 2)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


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


REQUIRED = object()


class Option(NamedTuple):
    """How an option's text is read (an int or float as it is parsed, any
    other text when a command reads it, in that command's order), its
    default per subcommand that takes it (REQUIRED: none), and the least
    value `sample`, `sing` and `verify` accept (a law checks its own)."""
    read: Callable
    defaults: dict
    least: object = None
    help: str | None = None


# Every option, in the order --help lists them; each takes one value.
OPTIONS = {
    "p": Option(int, {"law": 2, "sample": 2, "sing": REQUIRED}),
    "t": Option(parse_fraction, {"law": "1", "sample": "1"},
                help="exact fraction num/den"),
    "N": Option(int, {"law": 1, "sample": 2}, least=1),
    "E": Option(int, {"sample": DIGITS, "sing": DIGITS}, least=1),
    "guard": Option(int, {"sample": GUARD, "sing": 0}),
    "x": Option(int, {"law": 0}),
    "x1": Option(int, {"law": 0}),
    "x2": Option(int, {"law": 0}),
    "s": Option(int, {"law": 0}),
    "n": Option(int, {"law": 0}),
    "a": Option(parse_fraction, {"law": "1/2"}),
    "q": Option(parse_fraction, {"law": "1/2"}),
    "k": Option(parse_int_list, {"law": "", "sample": ""},
                help="comma-separated integers"),
    "eps": Option(parse_eps, {"law": "1e-9"}),
    "count": Option(int, {"sample": 1}, least=0),
    "seed": Option(int, {"sample": REQUIRED, "verify": REQUIRED}, least=0),
    "out_dir": Option(str, {"verify": "reports"}),
    "workers": Option(int, {"verify": None}, least=1,
                      help="worker processes (default: $PADIC_HUA_WORKERS "
                           "or 1)"),
    "scale": Option(float, {"verify": 1.0}, least=0,
                    help="multiplier on Monte Carlo draw counts"),
}


def option_text(args, name: str):
    """An option's value as given; an option not given is left unset by the
    parser, and reads as its default for the command."""
    value = getattr(args, name)
    return OPTIONS[name].defaults[args.command] if value is None else value


def read_option(args, name: str):
    return OPTIONS[name].read(option_text(args, name))


def refuse_unread(args, reads, what: str) -> None:
    """Refuse, in table order, every option given on the command line that
    is not in ``reads``: what the command named ``what`` reads."""
    unread = [name for name, option in OPTIONS.items()
              if args.command in option.defaults and name not in reads
              and getattr(args, name) is not None]
    _require(not unread, f"{what} does not read "
             + ", ".join("--" + name for name in unread))


def check_ranges(args) -> None:
    """Refuse the first value below its option's least (or, for a float,
    not finite), in table order."""
    for name, option in OPTIONS.items():
        value = getattr(args, name, None)
        if option.least is None or value is None:
            continue
        real = isinstance(value, float)
        _require((not real or math.isfinite(value)) and value >= option.least,
                 f"--{name} must be {'a finite number ' if real else ''}"
                 f">= {option.least}, got {value}")


def law_value_json(value, p: int) -> dict:
    if isinstance(value, Bracket):
        return {"lower": frac_str(value.lower), "upper": frac_str(value.upper),
                "decimal_lower": repr(float(value.lower)),
                "decimal_upper": repr(float(value.upper))}
    if isinstance(value, tuple):
        # hua_density's p^power * coefficient, kept split
        power, coeff = value
        return {"p_power": power, "coefficient": frac_str(coeff),
                "decimal": repr(float(coeff) * float(p) ** power)}
    value = Fraction(value)
    return {"exact": frac_str(value), "decimal": repr(float(value))}


def _hp(args) -> HuaParams:
    try:
        return HuaParams.of(read_option(args, "p"), read_option(args, "t"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _singular_tuple(args) -> tuple:
    k = read_option(args, "k")
    _require(args.N is None or args.N == len(k),
             f"--N {args.N} does not match the {len(k)} entries of --k")
    return k


# Law arguments that are not one option's value: the reader of each and
# the options it reads.  A singular tuple reads --N, when given, as its
# length.
_LAW_ARGS = {"hp": (_hp, ("p", "t")),
             "lam": (lambda args: Partition(read_option(args, "k")), ("k",)),
             "k": (_singular_tuple, ("k", "N"))}

# Each law: its callable and the arguments it takes, read in this order,
# so that of two bad values the same one is blamed every time.
LAWS = {
    "pochhammer": (pochhammer, ("a", "q", "n")),
    "pochhammer_inf": (pochhammer_inf, ("a", "q", "eps")),
    "kernel": (kernel_p, ("hp", "x1", "x2")),
    "pi_s": (pi_s_bracket, ("hp", "x", "eps")),
    "pi_N": (pi_n, ("hp", "N", "x")),
    "tilde_pi_N": (tilde_pi_n, ("hp", "N", "x")),
    "mN": (m_n_direct, ("hp", "k")),
    "vol": (lambda p, k: vol_singular_law(p, len(k), k), ("p", "k")),
    "haar_orbit": (lambda p, k: haar_orbit_mass(p, len(k), k), ("p", "k")),
    "nu": (nu_bracket, ("hp", "lam", "eps")),
    "nu_chain": (nu_chain_bracket, ("hp", "lam", "eps")),
    "rr_cdf": (rr_cdf, ("p", "s", "x", "eps")),
    "nu_k1_below": (nu_k1_below, ("hp", "x", "eps")),
    "hua_density": (hua_density, ("hp", "k")),
}


def _law_params(args, name: str, value) -> dict:
    """The printed params of one law argument; a tolerance as given."""
    if name == "hp":
        return {"p": value.p, "t": frac_str(value.t)}
    if name == "lam":
        return {"k": list(value.parts)}
    if name == "eps":
        return {"eps": option_text(args, "eps")}
    if isinstance(value, Fraction):
        return {name: frac_str(value)}
    return {name: list(value) if isinstance(value, tuple) else value}


def cmd_law(args) -> int:
    law, names = LAWS[args.name]
    readers = [_LAW_ARGS.get(name, (None, (name,))) for name in names]
    refuse_unread(args, [option for _, options in readers
                         for option in options], f"law {args.name}")
    params: dict = {}
    values = []
    try:
        for name, (reader, _) in zip(names, readers):
            values.append(reader(args) if reader else read_option(args, name))
            params.update(_law_params(args, name, values[-1]))
        value = law(*values)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from None
    doc = {"schema": LAW_SCHEMA, "law": args.name, "params": params}
    try:
        doc.update(law_value_json(value, read_option(args, "p")))
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
    namespace, reads = _SAMPLE_KINDS[args.kind]
    refuse_unread(args, reads, f"sample {args.kind}")
    hp = _hp(args)
    check_ranges(args)
    n, digits, guard, count = (read_option(args, name)
                               for name in ("N", "E", "guard", "count"))
    lam = None
    residues = 2 * n**2  # the residues of two Haar reads
    if args.kind == "hua":
        _require(0 <= guard < digits,
                 f"need 0 <= --guard < --E, got guard {guard} and E {digits}")
    if args.kind == "ergodic":
        try:
            lam = Partition(read_option(args, "k"))
        except ValueError as exc:
            raise ConfigError(f"bad --k: {exc}") from None
        residues = (2 * lam.num_parts + n) * n
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
        size = min(count, DRAW_CHUNK) * residues * width
        _require(size <= MAX_CHUNK_BYTES,
                 f"a chunk of {args.kind} draws at --N {n} and --E "
                 f"{digits} holds {size} bytes of residues, above the "
                 f"budget of {MAX_CHUNK_BYTES}")
    out = sys.stdout
    # Records are written a chunk at a time: the chunk's matrices are
    # assembled as one stack, and their singular numbers come from one
    # batched call.
    for start in range(0, count, DRAW_CHUNK):
        records, drawn, draws = [], [], []
        for index in range(start, min(start + DRAW_CHUNK, count)):
            rng = RngStream(args.seed, (namespace, index))
            record = {"schema": SAMPLE_SCHEMA, "kind": args.kind,
                      "seed": args.seed, "index": index}
            records.append(record)
            try:
                if args.kind == "nu":
                    record["k"] = list(sample_nu(hp, rng).parts)
                elif args.kind == "hua":
                    draws.append(sample_hua_matrix(hp, n, digits, rng))
                    drawn.append(record)
                else:
                    draws.append(
                        sample_ergodic_matrix(hp.p, lam, n, digits, rng))
                    drawn.append(record)
            except PrecisionExhausted as exc:
                record["error"] = str(exc)
        if drawn:
            assemble = hua_matrices if args.kind == "hua" else ergodic_matrices
            units, shifts = assemble(draws, hp.p, n, digits)
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
    check_ranges(args)
    digits, guard = read_option(args, "E"), read_option(args, "guard")
    _require(0 <= guard < digits,
             f"need 0 <= --guard < --E, got guard {guard} and E {digits}")
    try:
        units, shift = parse_matrix_text(text, args.p, digits)
        # A shift beyond int64 overflows here.
        values, floors = singular_numbers(units[None], [shift], args.p,
                                          digits, guard)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad matrix literal: {exc}") from None
    [vals], [floor] = values.tolist(), floors.tolist()
    doc = {"schema": "padic-hua/sing/1", "p": args.p, "n": len(units),
           "digits": digits, "shift": shift, "floor": floor,
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
    if args.workers is None:
        # Read here, not when the parser is built, so a bad value only
        # affects the one subcommand that uses it.
        env = os.environ.get("PADIC_HUA_WORKERS", "1")
        try:
            args.workers = int(env)
        except ValueError:
            raise ConfigError(
                f"PADIC_HUA_WORKERS must be an integer, got {env!r}") from None
        _require(args.workers >= 1,
                 f"PADIC_HUA_WORKERS must be >= 1, got {args.workers}")
    check_ranges(args)
    scale, out_dir = read_option(args, "scale"), read_option(args, "out_dir")
    try:
        suite_runs(args.suite, args.seed, scale)
    except OverflowError as exc:
        raise ConfigError(f"--scale {scale} is too large: {exc}") from None
    # Made before the run, so an unusable directory fails in a moment
    # instead of after the whole suite.
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {out_dir}: {exc}") from None
    t0 = time.perf_counter()
    reports = run_suite(args.suite, args.seed, workers=args.workers,
                        scale=scale)
    write_report_files(reports, out_dir)
    failed = [r.name for r in reports if not r.passed]
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.name} ({report.runtime_seconds:.1f}s)",
              file=sys.stderr)
    print(f"total {time.perf_counter() - t0:.1f}s; reports in {out_dir}",
          file=sys.stderr)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors end the run as every other bad input
    does: one error line and exit code 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padic-hua",
        description="Exact laws, samplers and verification experiments for "
                    "singular numbers of random p-adic matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, about, positional, choices in (
            ("law", cmd_law, "evaluate a mass or certified bracket", "name",
             sorted(LAWS)),
            ("sample", cmd_sample, "emit JSON-lines draws", "kind",
             sorted(_SAMPLE_KINDS)),
            ("sing", cmd_sing, "singular numbers of a matrix file", "file",
             None),
            ("verify", cmd_verify, "run a verification suite", "suite",
             SUITE_NAMES)):
        cmd = sub.add_parser(command, help=about)
        cmd.add_argument(positional, choices=choices)
        for name, option in OPTIONS.items():
            if command in option.defaults:
                # An option not given is left unset, to tell it from one
                # given on the command line (see option_text).
                cmd.add_argument(
                    "--" + name.replace("_", "-"), dest=name,
                    type=option.read if option.read in (int, float) else None,
                    required=option.defaults[command] is REQUIRED,
                    help=option.help)
        cmd.set_defaults(func=func)
    return parser


def attach_signed_values(argv) -> list:
    """argv with each word that starts with "-" and a digit joined to the
    option before it, as in "--k=-1,-2": every option takes exactly one
    value, so such a word is always that option's value."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] != "--" and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            attach_signed_values(sys.argv[1:] if argv is None else argv))
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
