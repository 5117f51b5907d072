"""The CI workflow must parse: a YAML error in it makes CI run nothing at all."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def load_workflow() -> dict:
    with open(WORKFLOW) as handle:
        return yaml.safe_load(handle)


def test_workflow_parses_with_its_triggers():
    workflow = load_workflow()
    # YAML 1.1 reads the bare key ``on`` as the boolean True
    assert set(workflow[True]) == {"push", "pull_request"}
    assert "tier1" in workflow["jobs"]


def test_every_tier1_step_runs_something_under_a_string_name():
    steps = load_workflow()["jobs"]["tier1"]["steps"]
    assert steps
    for step in steps:
        assert "uses" in step or "run" in step, step
        for key in ("name", "run"):
            if key in step:
                assert isinstance(step[key], str), (key, step[key])
