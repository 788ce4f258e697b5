"""The CI workflow parses, runs its three legs, runs the Tier-1 command and
checks the digest of one N = 400 sample."""

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


def test_console_step_checks_the_n400_sample_digest():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = {step.get("name"): step.get("run", "")
            for step in doc["jobs"]["tests"]["steps"]}
    script = runs["Console script"].replace("\\\n", "")
    assert ("timeout 60 padic-hua sample hua --N 400 --count 1 --seed 1 "
            "| sha256sum" in script)
    assert ("e427be1d2bf9fafb07a7fcfd5daa4396a14d3c86ec36b5cb3c08eeec2aea78f2"
            in script)


def test_exit_2_loop_checks_the_guard_rule_in_sample_and_sing():
    # matrix.singular_numbers takes 0 <= guard < digits on trust, so the
    # CLI's check is the only one.
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = {step.get("name"): step.get("run", "")
            for step in doc["jobs"]["tests"]["steps"]}
    script = runs["Console script"].replace("\\\n", "")
    loop = script[script.index("for cmd in"):script.index("; do")]
    for cmd in ("padic-hua sample hua --guard 24 --seed 1",
                "padic-hua sing $RUNNER_TEMP/m.txt --p 2 --E 4 --guard 4"):
        assert f'"{cmd}"' in loop
