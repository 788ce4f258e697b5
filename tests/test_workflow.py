"""The CI workflow parses, runs its three legs and runs the Tier-1 command."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tier1.yml")


def test_tier1_workflow_parses_with_three_legs():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    # An unquoted `on:` key would load as True and drop every trigger.
    assert set(doc["on"]) == {"push", "pull_request"}
    job = doc["jobs"]["tests"]
    matrix = job["strategy"]["matrix"]
    legs = [(version, pin) for version in matrix["python-version"]
            for pin in matrix["numpy-pin"]]
    legs += [(leg["python-version"], leg["numpy-pin"])
             for leg in matrix["include"]]
    assert legs == [("3.10", ""), ("3.11", ""), ("3.10", "numpy==1.24.*")]
    runs = {step.get("name"): step.get("run", "") for step in job["steps"]}
    assert ("python -m pytest -q --continue-on-collection-errors"
            in runs["Tier-1 tests"])
