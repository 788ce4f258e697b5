import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_hua import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err, blamed):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert blamed in err


class TestLaw:
    def test_m_n_worked_value(self, capsys):
        code, out, _ = run_cli(capsys, "law", "mN", "--p", "2", "--t", "1/1",
                               "--N", "1", "--k", "0")
        assert code == 0
        assert json.loads(out)["exact"] == "1/3"

    def test_pochhammer(self, capsys):
        code, out, _ = run_cli(capsys, "law", "pochhammer", "--a", "1/2",
                               "--q", "1/2", "--n", "2")
        assert code == 0
        assert json.loads(out)["exact"] == "3/8"

    def test_pi_s_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "law", "pi_s", "--p", "2", "--t", "1/1",
                               "--x", "0", "--eps", "1e-6")
        doc = json.loads(out)
        assert code == 0
        assert float(doc["decimal_lower"]) <= 0.2887881 <= float(doc["decimal_upper"])

    @pytest.mark.parametrize("argv, joined", [
        ("law mN --p 2 --N 2 --k -1,-2", "law mN --p 2 --N 2 --k=-1,-2"),
        ("law vol --p 3 --k -1,-1,-3", "law vol --p 3 --k=-1,-1,-3"),
        ("law pochhammer --a -1/2 --q 1/2 --n 3",
         "law pochhammer --a=-1/2 --q 1/2 --n 3"),
        ("law pochhammer --a 1/3 --q -1/2 --n 3",
         "law pochhammer --a 1/3 --q=-1/2 --n 3"),
    ])
    def test_values_starting_with_minus(self, capsys, argv, joined):
        # Read as the same value written with "=", which argparse never
        # takes for an option.
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert run_cli(capsys, *joined.split()) == (0, out, "")

    def test_decimal_t_refused(self, capsys):
        code, _, err = run_cli(capsys, "law", "mN", "--p", "2", "--t", "0.5",
                               "--N", "1", "--k", "0")
        assert code == 2
        assert "num/den" in err

    def test_t_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "law", "mN", "--p", "2", "--t", "5/2",
                               "--k", "0")
        assert code == 2

    def test_eps_accepts_every_exact_form(self, capsys):
        outs = set()
        for eps in ("1/100", "0.01", "1e-2"):
            code, out, _ = run_cli(capsys, "law", "pi_s", "--x", "1",
                                   "--eps", eps)
            assert code == 0
            doc = json.loads(out)
            outs.add((doc["lower"], doc["upper"]))
        assert len(outs) == 1

    def test_unparseable_eps_names_the_forms(self, capsys):
        code, out, err = run_cli(capsys, "law", "pi_s", "--eps", "tiny")
        assert code == 2 and out == ""
        assert "num/den" in err and "decimal" in err and "scientific" in err

    def test_unknown_law(self, capsys):
        code, _, err = run_cli(capsys, "law", "does-not-exist")
        assert code == 2

    def test_hua_density_split_form(self, capsys):
        code, out, _ = run_cli(capsys, "law", "hua_density", "--p", "2",
                               "--t", "1/1", "--k", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["p_power"] == -2
        assert doc["coefficient"] == "2/3"


class TestSample:
    def test_nu_records(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "nu", "--p", "2", "--t", "1/1",
                               "--count", "3", "--seed", "7")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert all(r["kind"] == "nu" and "k" in r and r["seed"] == 7
                   for r in records)
        assert [r["index"] for r in records] == [0, 1, 2]

    def test_hua_record_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "hua", "--p", "2", "--t", "1/1",
                               "--N", "2", "--E", "24", "--count", "1",
                               "--seed", "1")
        record = json.loads(out)
        assert code == 0
        assert set(record) >= {"kind", "matrix", "k", "seed", "index", "shift"}
        assert all("2^" in entry or entry == "0"
                   for row in record["matrix"] for entry in row)

    def test_byte_identical_reruns(self, capsys):
        args = ("sample", "hua", "--p", "2", "--t", "1/1", "--N", "2",
                "--count", "4", "--seed", "99")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_ergodic_kind(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "ergodic", "--p", "2",
                               "--N", "3", "--k", "2,1", "--count", "1",
                               "--seed", "5")
        record = json.loads(out)
        assert code == 0 and record["shift"] == 2

    def test_guard_only_changes_the_read(self, capsys):
        args = ("sample", "hua", "--N", "3", "--count", "64", "--seed", "5")
        _, out0, _ = run_cli(capsys, *args, "--guard", "0")
        _, out8, _ = run_cli(capsys, *args, "--guard", "8")
        pairs = [(json.loads(a), json.loads(b))
                 for a, b in zip(out0.splitlines(), out8.splitlines())]
        assert len(pairs) == 64
        for r0, r8 in pairs:
            k0, k8 = r0.pop("k"), r8.pop("k")
            assert r0 == r8  # the matrix, its shift and all else
            assert all(v8 in (v0, None) for v0, v8 in zip(k0, k8))
            assert len(k0) == len(k8) == 3

    def test_seed_required(self, capsys):
        assert_one_error_line(*run_cli(capsys, "sample", "nu", "--count", "1"),
                              "the following arguments are required: --seed")


BAD_INPUT = [
    ("sample", "hua", "--N", "0", "--seed", "1"),
    ("sample", "ergodic", "--k", "1,3", "--seed", "1"),
    ("sample", "hua", "--guard", "30", "--seed", "1"),
    ("sample", "hua", "--E", "0", "--seed", "1"),
    ("sample", "nu", "--seed", "-1"),
    ("verify", "corners", "--seed", "1", "--scale", "nan"),
    ("verify", "corners", "--seed", "1", "--scale", "inf"),
    ("verify", "corners", "--seed", "1", "--scale", "1e308"),
    ("verify", "corners", "--seed", "-1"),
    ("verify", "corners", "--seed", "1", "--workers", "0"),
    ("verify", "corners", "--seed", "1", "--workers", "-1"),
    ("PADIC_HUA_WORKERS=abc", "verify", "corners", "--seed", "1"),
    ("PADIC_HUA_WORKERS=0", "verify", "oracle", "--seed", "1"),
    ("PADIC_HUA_WORKERS=-3", "verify", "oracle", "--seed", "1"),
    ("sample", "hua", "--count", "-1", "--seed", "1"),
    ("law", "pi_N", "--p", "2", "--t", "1", "--N", "-3", "--x", "0"),
    ("law", "tilde_pi_N", "--N", "-1"),
    ("law", "pi_s", "--eps", "0"),
    ("law", "pi_s", "--eps=-1/100"),
    ("law", "pi_s", "--eps", "nan"),
    ("law", "pi_s", "--eps", "inf"),
    ("law", "nu", "--eps", "1/0"),
    ("law", "mN", "--p", "2", "--k", "-1,0"),
    ("verify", "oracle", "--seed", "1", "--out-dir", "{file}"),
    ("law", "kernel", "--t", "-1/2"),
    ("law", "pi_s", "--eps", "-1/100"),
    ("sample", "nu", "--t", "-1/2", "--seed", "1"),
    ("verify", "corners", "--seed", "1", "--scale", "-1e5"),
    ("law", "nu", "--eps", "0", "--k", "1,3"),
    ("law", "pochhammer", "--t", "5", "--p", "4"),
    ("law", "vol", "--eps", "nan"),
    ("law", "mN", "--N", "2", "--k", "0"),
    ("sample", "nu", "--N", "5", "--E", "100", "--k", "3,1", "--guard", "50",
     "--count", "1", "--seed", "1"),
    ("sample", "hua", "--k", "3,1", "--seed", "1"),
    ("sample", "nu", "--E", "5", "--guard", "9", "--seed", "1"),
    ("sample", "ergodic", "--t", "1/2", "--k", "2,1", "--N", "3", "--count",
     "1", "--seed", "1"),
]

# What the error line must say, where a later check could blame another
# option instead.
BLAMED = {("sample", "hua", "--E", "0", "--seed", "1"): "--E must be >= 1",
          ("law", "mN", "--p", "2", "--k", "-1,0"): "not weakly decreasing",
          ("law", "kernel", "--t", "-1/2"): "need 0 < t < p",
          ("law", "pi_s", "--eps", "-1/100"): "tolerance must be positive",
          ("sample", "nu", "--t", "-1/2", "--seed", "1"): "need 0 < t < p",
          ("verify", "corners", "--seed", "1", "--scale", "-1e5"):
              "--scale must be a finite number >= 0",
          ("verify", "corners", "--seed", "1", "--scale", "inf"):
              "--scale must be a finite number >= 0",
          # a law reads its arguments in its own order: nu its partition
          # before its tolerance
          ("law", "nu", "--eps", "0", "--k", "1,3"): "not weakly decreasing",
          # an option the law does not read is refused, whatever its value
          ("law", "pochhammer", "--t", "5", "--p", "4"):
              "law pochhammer does not read --p, --t",
          ("law", "vol", "--eps", "nan"): "law vol does not read --eps",
          ("law", "mN", "--N", "2", "--k", "0"):
              "--N 2 does not match the 1 entries of --k",
          # and so is an option the sample kind does not read, before the
          # window it would give is checked
          ("sample", "nu", "--N", "5", "--E", "100", "--k", "3,1", "--guard",
           "50", "--count", "1", "--seed", "1"):
              "sample nu does not read --N, --E, --guard, --k",
          ("sample", "hua", "--k", "3,1", "--seed", "1"):
              "sample hua does not read --k",
          ("sample", "nu", "--E", "5", "--guard", "9", "--seed", "1"):
              "sample nu does not read --E, --guard",
          # the environment variable, not the option it stands in for
          ("PADIC_HUA_WORKERS=0", "verify", "oracle", "--seed", "1"):
              "PADIC_HUA_WORKERS must be >= 1, got 0",
          ("PADIC_HUA_WORKERS=-3", "verify", "oracle", "--seed", "1"):
              "PADIC_HUA_WORKERS must be >= 1, got -3",
          # the ergodic matrix does not depend on t
          ("sample", "ergodic", "--t", "1/2", "--k", "2,1", "--N", "3",
           "--count", "1", "--seed", "1"): "sample ergodic does not read --t"}


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                              argv):
    blamed = BLAMED.get(argv, "error: ")
    # Leading NAME=value words set environment variables, as in a shell.
    while "=" in argv[0]:
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    # "{file}" names an existing regular file.
    if "{file}" in argv:
        path = tmp_path / "file"
        path.write_text("")
        argv = tuple(str(path) if a == "{file}" else a for a in argv)
    elif argv[0] == "verify":
        argv += ("--out-dir", str(tmp_path / "reports"))
    assert_one_error_line(*run_cli(capsys, *argv), blamed)
    assert not (tmp_path / "reports").exists()


# The grammar test's largest int per option, so that no drawn command
# allocates much or runs long; each range also reaches below its least.
# x1 and x2 reach past the size at which `law kernel` is priced and
# refused before it builds its row.  x stays small: `law nu_k1_below`
# sums every partition of its box, and its budget still admits x = 10,
# which sums 48,620 of them in about a second.
GRAMMAR_MAX = {"p": 7, "N": 8, "E": 40, "guard": 40, "x": 8, "x1": 300,
               "x2": 300, "s": 2, "n": 20, "count": 3, "seed": 99,
               "workers": 2}
NOT_A_NUMBER = ["x", "", "1.5", "1/2"]
# Text that each reader takes, and text that it refuses.
TEXT_VALUES = {
    cli.parse_fraction: (["1", "1/2", "3/2", "2/3", "-1/2", "0", "5"],
                         ["0.5", "1e-2", "1/0", "x"]),
    cli.parse_eps: (["1e-9", "0.01", "1/100", "1/3", "2"],
                    ["0", "-1/100", "nan", "inf", "x", "1/0"]),
    float: (["0", "0.01"], ["-1", "-1e5", "nan", "inf", "-inf", "1e308", "x"]),
}


def option_values(name, valid):
    """Text for the value of option `name`, as its entry in cli.OPTIONS
    reads it: text its reader takes, not below its least (valid True),
    text its reader refuses or below its least (False), or either
    (None)."""
    option = cli.OPTIONS[name]
    if option.read is int:
        least = -2 if option.least is None else option.least
        good = st.integers(least, GRAMMAR_MAX[name]).map(str)
        bad = st.sampled_from(NOT_A_NUMBER)
        if option.least is not None:
            bad |= st.integers(least - 3, least - 1).map(str)
    elif option.read is cli.parse_int_list:
        good = st.lists(st.integers(-4, 8), max_size=4).map(
            lambda k: ",".join(map(str, k)))
        bad = st.sampled_from(["a", "1.5"])
    else:
        good, bad = map(st.sampled_from, TEXT_VALUES[option.read])
    return good if valid else bad if valid is False else good | bad


@st.composite
def cli_argv(draw):
    """argv of law, sample or sing, with valid values only or with any, or
    of verify with exactly one bad value, so that no suite runs."""
    command = draw(st.sampled_from(["law", "sample", "sing", "verify"]))
    names = [name for name, option in cli.OPTIONS.items()
             if command in option.defaults and name != "out_dir"]
    valid = fault = None
    if command == "verify":
        fault = draw(st.sampled_from(
            ["suite", "missing seed"]
            + [name for name in names if cli.OPTIONS[name].least is not None]))
        argv = ["verify", "bogus" if fault == "suite" else "corners",
                "--out-dir", "{dir}/reports"]
    else:
        valid = draw(st.sampled_from([True, None]))
        positional = {"law": sorted(cli.LAWS),
                      "sample": ["nu", "hua", "ergodic"],
                      "sing": ["{dir}/m.txt", "{dir}/s.txt"]}[command]
        if not valid:
            positional += ["bogus", "{dir}/bad.txt", "{dir}/missing.txt"]
        argv = [command, draw(st.sampled_from(positional))]
    for name in names:
        required = cli.OPTIONS[name].defaults[command] is cli.REQUIRED
        if command == "verify":
            if name == fault:
                text = draw(option_values(name, valid=False))
            elif required and fault != "missing seed":
                text = draw(option_values(name, valid=True))
            else:
                continue
        elif required or draw(st.booleans()):
            text = draw(option_values(name, valid))
        else:
            continue
        flag = "--" + name
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return tuple(argv)


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar")
    (path / "m.txt").write_text("2 1\n0 4\n")
    (path / "s.txt").write_text("1 1\n1 1\n")
    (path / "bad.txt").write_text("1 x\n")
    return path


@settings(max_examples=150, deadline=None)
@example(argv=("law", "kernel", "--t", "-1/2"))
@example(argv=("law", "kernel", "--x1", "300", "--x2", "150"))
@given(argv=cli_argv())
def test_grammar_exit_codes(matrix_dir, argv):
    """Every drawn command exits 0, 1 or 2, with exactly one error line and
    nothing on stdout on 2, and raises nothing."""
    argv = [word.replace("{dir}", str(matrix_dir)) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BaseException as exc:  # SystemExit too
        raise AssertionError(f"{exc!r} escaped cli.main") from exc
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_error_line(code, out.getvalue(), err.getvalue(), "error: ")
    if argv[0] == "verify":
        assert code == 2 and not (matrix_dir / "reports").exists()


def test_bad_worker_variable_leaves_other_subcommands_alone(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_HUA_WORKERS", "abc")
    code, out, err = run_cli(capsys, "sample", "nu", "--seed", "1")
    assert code == 0 and json.loads(out)["kind"] == "nu" and err == ""


@pytest.fixture
def int_str_limit():
    """The interpreter's limit on the digits of a printed int, set to its
    least value, 640, for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("kind", ["hua", "ergodic"])
def test_sample_refuses_entries_longer_than_the_int_limit(capsys, int_str_limit,
                                                          kind):
    # a residue below 2^2126 has at most 640 digits; below 2^2127, 641;
    # only ergodic reads --k
    k = ("--k", "1") if kind == "ergodic" else ()
    argv = ("sample", kind, *k, "--N", "2", "--count", "2", "--seed", "1",
            "--E")
    code, out, _ = run_cli(capsys, *argv, "2126")
    assert code == 0 and len(out.splitlines()) == 2
    assert_one_error_line(*run_cli(capsys, *argv, "2127"), "--E 2127")


def test_law_too_long_to_print_exits_2(capsys, int_str_limit):
    # (1/3; 1/3)_n has denominator 3^(n(n+1)/2): 633 digits at n = 51 and
    # 658 at n = 52
    argv = ("law", "pochhammer", "--a", "1/3", "--q", "1/3", "--n")
    code, out, _ = run_cli(capsys, *argv, "51")
    assert code == 0 and len(json.loads(out)["exact"].split("/")[1]) == 633
    assert_one_error_line(*run_cli(capsys, *argv, "52"),
                          "law value has more than 640 digits, too long to print")


@pytest.mark.parametrize("x1", ["300", "3000"])
def test_law_kernel_priced_before_the_row(capsys, int_str_limit, x1):
    # P(x1, 0) at p = 2, t = 1 has denominator 2^(x1 (x1 + 1) / 2): its
    # row is not built, which takes seconds at x1 = 300
    start = time.perf_counter()
    assert_one_error_line(*run_cli(capsys, "law", "kernel", "--x1", x1),
                          "law value has more than 640 digits, too long to print")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("p, t", [("2", "1"), ("3", "3/2"), ("5", "1/2")])
def test_law_kernel_price_changes_no_output(capsys, monkeypatch, int_str_limit,
                                            p, t):
    # around x1 = 65 at p = 2, where P(x1, 0) first prints longer than 640
    # digits, the refusals are the same with the price and without it
    for x1 in range(25, 75, 3):
        for x2 in (0, 1, x1 // 2, x1):
            argv = ("law", "kernel", "--p", p, "--t", t, "--x1", str(x1),
                    "--x2", str(x2))
            priced = run_cli(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "PRICES", {})
                assert run_cli(capsys, *argv) == priced


@pytest.mark.parametrize("x", ["11", "40", "1000000000"])
def test_law_nu_k1_below_priced_before_it_sums(capsys, x):
    start = time.perf_counter()
    assert_one_error_line(*run_cli(capsys, "law", "nu_k1_below", "--x", x),
                          f"at --x {x} sums more partitions than the budget "
                          f"of {cli.MAX_LAW_PARTITIONS}")
    assert time.perf_counter() - start < 2


def test_law_nu_k1_below_budget_counts_partitions(capsys, monkeypatch):
    # at the default tolerance x = 3 sums 28 partitions and x = 4 sums 84
    monkeypatch.setattr(cli, "MAX_LAW_PARTITIONS", 28)
    code, out, _ = run_cli(capsys, "law", "nu_k1_below", "--x", "3")
    assert code == 0 and json.loads(out)["law"] == "nu_k1_below"
    assert_one_error_line(*run_cli(capsys, "law", "nu_k1_below", "--x", "4"),
                          "budget of 28")


@pytest.mark.parametrize("kind, k, flag, ok, over, budget", [
    ("hua", "", "--N", 2, 3, 256),
    ("ergodic", "3", "--N", 3, 4, 256),
    ("hua", "", "--E", 64, 65, 768),
    ("ergodic", "", "--E", 64, 65, 384),
])
def test_sample_refuses_chunks_above_the_size_budget(capsys, monkeypatch, kind,
                                                     k, flag, ok, over, budget):
    # Two draws per chunk.  A draw reads 2 N^2 residues for two Haar
    # factors, (2 r + N) N for an ergodic matrix whose parameter has r
    # parts.  At the default E = 24 a residue takes 8 bytes: 128 and 240
    # bytes fit, 288 and 384 do not.  At N = 2 (16 and 8 residues) a
    # residue of 64 bits is counted as 40 + 8 bytes and one of 65 bits as
    # 40 + 9, so those chunks are over the budget only because of E.  Only
    # ergodic reads --k.
    monkeypatch.setattr(cli, "MAX_CHUNK_BYTES", budget)
    k = ("--k", k) if kind == "ergodic" else ()
    argv = ("sample", kind, *k, "--count", "2", "--seed", "1", flag)
    code, out, _ = run_cli(capsys, *argv, str(ok))
    assert code == 0 and len(out.splitlines()) == 2
    assert_one_error_line(*run_cli(capsys, *argv, str(over)),
                          f"above the budget of {budget}")


class TestSing:
    def test_worked_example(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n0 4\n")
        code, out, _ = run_cli(capsys, "sing", str(path), "--p", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["k"] == [0, -3]

    @pytest.mark.parametrize("text, k, shift", [
        ("2^3000000 1\n1 1\n", [0, 0], 0),
        ("2^-3000000 1\n1 1\n", [3000000, "<=2999976"], 3000000),
        ("1 1\n1 1\n", [0, "<=-24"], 0)])
    def test_large_exponents_and_markers(self, tmp_path, capsys, text, k,
                                         shift):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "sing", str(path), "--p", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["k"] == k and doc["shift"] == shift

    def test_marked_values_serialized(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("0 0\n0 0\n")
        code, out, _ = run_cli(capsys, "sing", str(path), "--p", "3", "--E", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["k"] == ["<=-4", "<=-4"]

    def test_guard_outside_window(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n0 4\n")
        code, out, err = run_cli(capsys, "sing", str(path), "--p", "2",
                                 "--E", "4", "--guard", "4")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        # the literal is valid: the message blames the guard
        assert "--guard" in err and "literal" not in err

    @pytest.mark.parametrize("p", ["4", "1"])
    def test_p_not_prime(self, tmp_path, capsys, p):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n0 4\n")
        code, out, err = run_cli(capsys, "sing", str(path), "--p", p)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        # the literal is valid: the message blames --p
        assert "--p" in err and "literal" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sing", "/nonexistent/m.txt", "--p", "2")
        assert code == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe 1\n")
        code, out, err = run_cli(capsys, "sing", str(path), "--p", "2")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestVerify:
    def test_oracle_suite(self, tmp_path, capsys):
        out_dir = str(tmp_path / "reports")
        code, _, err = run_cli(capsys, "verify", "oracle", "--seed", "42",
                               "--out-dir", out_dir)
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert "summary.json" in files
        assert sum(1 for f in files if f.endswith(".json")) == 5
        summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
        assert summary["passed"]

    def test_csv_tables_written(self, tmp_path, capsys):
        out_dir = str(tmp_path / "r")
        run_cli(capsys, "verify", "oracle", "--seed", "1", "--out-dir", out_dir)
        csvs = [f for f in os.listdir(out_dir) if f.endswith(".csv")]
        assert csvs
        header = open(os.path.join(out_dir, csvs[0])).readline()
        assert "label" in header

    def test_gate_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from padic_hua.experiments import ExperimentReport, gate

        failing = ExperimentReport(name="synthetic", params={}, seed=1,
                                   gates=[gate("g", 2, 1, False)],
                                   runtime_seconds=0.0)
        monkeypatch.setattr(cli, "run_suite",
                            lambda *a, **k: [failing])
        code, _, err = run_cli(capsys, "verify", "oracle", "--seed", "1",
                               "--out-dir", str(tmp_path / "f"))
        assert code == 1
        assert "FAIL" in err

    def test_unknown_suite_usage_error(self, capsys):
        assert_one_error_line(*run_cli(capsys, "verify", "bogus", "--seed", "1"),
                              "argument suite: invalid choice: 'bogus'")

    def test_workers_do_not_change_bytes(self, tmp_path, capsys):
        dir1, dir2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        run_cli(capsys, "verify", "corners", "--seed", "3", "--scale", "0.01",
                "--out-dir", dir1, "--workers", "1")
        run_cli(capsys, "verify", "corners", "--seed", "3", "--scale", "0.01",
                "--out-dir", dir2, "--workers", "2")
        for name in sorted(os.listdir(dir1)):
            a = open(os.path.join(dir1, name), "rb").read()
            b = open(os.path.join(dir2, name), "rb").read()
            assert a == b, name


def test_closed_stdout_ends_quietly():
    # a reader that stops after 300 bytes of a long sample: no traceback,
    # nothing on stderr, and not the bad-input status
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "padic_hua.cli", "sample", "hua", "--N", "8",
         "--count", "2000", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert head.startswith(b'{"digits": 24, "index": 0,')
