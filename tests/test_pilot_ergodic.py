import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pilot_ergodic.py"
PILOT = runpy.run_path(str(SCRIPT))


def test_main_prints_five_frequencies_for_each_parameter(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--draws", "20"])
    assert PILOT["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p=2 draws=20 digits=24 seed=7"
    assert lines[1].split() == ["k", "f_4", "f_6", "f_8", "f_12", "f_16"]
    rows = [line.rsplit(None, 5) for line in lines[2:]]
    assert [row[0].strip() for row in rows] == [
        "()", "(1,)", "(2, 1)", "(3, 1, 1)"]
    for row in rows:
        freqs = [float(f) for f in row[1:]]
        assert len(freqs) == 5 and all(0 <= f <= 1 for f in freqs)
        # a frequency over 20 draws is a multiple of 1/20
        assert all(round(f * 20, 6).is_integer() for f in freqs)


def test_composite_p_is_refused_before_any_draw(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--p", "4"])
    with pytest.raises(SystemExit) as exited:
        PILOT["main"]()
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "4 is not prime" in captured.err
