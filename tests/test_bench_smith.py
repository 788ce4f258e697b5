import json
import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_smith.py"
BENCH = runpy.run_path(str(SCRIPT))


def test_main_records_the_ergodic_smith_calls_under_its_label(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--reps", "1",
                                      "--label", "after", "--out", str(out)])
    assert BENCH["main"]() == 0
    results = json.loads(out.read_text())
    assert results["before"] == {"kept": True}
    record = results["after"]
    assert json.loads(capsys.readouterr().out) == {"after": record}
    assert record["command"] == ("padic-hua verify ergodic --seed 1 "
                                 "--scale 0.1 --workers 1")
    assert record["reps"] == 1
    # ergodic-convergence eliminates 16 x 16 corners and smaller ones
    sizes = record["smith_calls_by_size"]
    assert "n16" in sizes and sum(sizes.values()) == record["smith_calls"]
    assert record["matrices"] >= record["smith_calls"] > 0
    assert len(record["valuations_sha256"]) == 64
    for timing in ("smith_s", "verify_s"):
        assert 0 < record[timing]["min"] <= record[timing]["median"]


CORNERS = Path(__file__).resolve().parents[1] / "scripts" / "bench_corners.py"
BENCH_CORNERS = runpy.run_path(str(CORNERS))


def test_corner_bench_records_the_three_corner_runs_under_its_label(
        tmp_path, capsys, monkeypatch):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"kept": True}}))
    monkeypatch.setattr(sys, "argv", [str(CORNERS), "--reps", "2",
                                      "--label", "after", "--out", str(out)])
    assert BENCH_CORNERS["main"]() == 0
    results = json.loads(out.read_text())
    assert results["before"] == {"kept": True}
    record = results["after"]
    assert json.loads(capsys.readouterr().out) == {"after": record}
    assert record["command"] == ("padic-hua verify corners --seed 1 "
                                 "--scale 0.05 --workers 1")
    assert record["reps"] == 2
    # suite_runs("corners", 1, 0.05): 5,000 draws in each of three runs
    runs = record["runs"]
    assert [(run["draw"], run["draws"]) for run in runs] == [
        ("_corner_draw", 5000)] * 3
    assert len(record["tallies_sha256"]) == 64
    for timing in [run["monte_carlo_s"] for run in runs] + [
            record["monte_carlo_s"], record["verify_s"]]:
        assert 0 < timing["min"] <= timing["median"]
