import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
BENCH = runpy.run_path(str(SCRIPT))


def run_layer(layer, tmp_path, capsys, monkeypatch):
    """The record main writes for one repetition of the layer, under the
    label "after" of a file that already holds a "before" record."""
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({layer: {"before": {"kept": True}}}))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--layer", layer,
                                      "--reps", "1", "--label", "after",
                                      "--out", str(out)])
    assert BENCH["main"]() == 0
    results = json.loads(out.read_text())
    assert results[layer]["before"] == {"kept": True}
    record = results[layer]["after"]
    assert json.loads(capsys.readouterr().out) == {layer: {"after": record}}
    assert record["layer"] == layer and record["reps"] == 1
    assert len(record["sha256"]) == 64
    assert 0 < record["command_s"]["min"] <= record["command_s"]["median"]
    return record


def test_every_layer_is_tested():
    assert set(BENCH["LAYERS"]) == {"smith", "corners", "sample-n400"}


def test_smith_layer_records_the_ergodic_smith_calls(
        tmp_path, capsys, monkeypatch):
    record = run_layer("smith", tmp_path, capsys, monkeypatch)
    assert record["command"] == ("padic-hua verify ergodic --seed 1 "
                                 "--scale 0.1 --workers 1")
    assert record["function"] == "padic_hua.matrix.smith_valuations"
    # ergodic-convergence eliminates 16 x 16 corners and smaller ones
    kinds = record["calls_by_kind"]
    assert "n16" in kinds and sum(kinds.values()) == record["calls"] > 0
    assert 0 < record["layer_s"]["min"] <= record["layer_s"]["median"]


def test_corners_layer_records_the_three_corner_runs(
        tmp_path, capsys, monkeypatch):
    record = run_layer("corners", tmp_path, capsys, monkeypatch)
    assert record["command"] == ("padic-hua verify corners --seed 1 "
                                 "--scale 0.05 --workers 1")
    assert record["function"] == "padic_hua.experiments.monte_carlo"
    # suite_runs("corners", 1, 0.05): 5,000 draws in each of three runs
    assert record["calls_by_kind"] == {"_corner_draw:5000": 3}
    assert 0 < record["layer_s"]["min"] <= record["layer_s"]["median"]


def test_sample_layer_records_the_n400_command_stdout(
        tmp_path, capsys, monkeypatch):
    record = run_layer("sample-n400", tmp_path, capsys, monkeypatch)
    assert record["command"] == "padic-hua sample hua --N 400 --count 1 --seed 1"
    assert record["function"] is None and record["layer_s"] is None
    assert record["calls"] == 0
    assert record["sha256"] == ("e427be1d2bf9fafb07a7fcfd5daa4396"
                                "a14d3c86ec36b5cb3c08eeec2aea78f2")


def test_reps_below_one_are_refused(monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--layer", "smith",
                                      "--reps", "0"])
    with pytest.raises(SystemExit):
        BENCH["main"]()
