import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
SEED_SWEEP = runpy.run_path(str(SCRIPT))


def test_sweep_lists_each_gate_with_the_seeds_that_missed():
    missed = SEED_SWEEP["sweep"](("nulimit",), range(2), 0)
    # two nulimit reports (t = 1 and t = 1/2), each with its own gates
    assert {(suite, stem) for suite, stem, _, _ in missed} == {
        ("nulimit", "00-nu-limit"), ("nulimit", "01-nu-limit")}
    assert {kind for _, _, _, kind in missed} == {"certified", "stat"}
    for (_, _, _, kind), seeds in missed.items():
        assert set(seeds) <= {0, 1} and seeds == sorted(seeds)
        if kind == "certified":
            assert seeds == []


def test_main_prints_one_line_per_gate_of_every_suite(capsys):
    code = SEED_SWEEP["main"](["--seeds", "1", "--scale", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("seed sweep: seeds 0..0, --scale 0.0")
    assert {line.split()[0] for line in lines[1:]} == set(
        SEED_SWEEP["MONTE_CARLO_SUITES"])
    for line in lines[1:]:
        assert line.split()[4] in ("0/1", "1/1")
