"""The experiment scripts, run in-process on small batches so that an API
change that breaks them fails here."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from minktrig import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verify_laws = load("verify_laws")


@pytest.mark.parametrize("family", verify_laws.LAW_FAMILIES)
def test_verify_laws_summarizes_each_law_family(family, capsys):
    stats = verify_laws.summarize(family, 50, 3)
    # the figures are the ones the CLI reports
    assert cli.main(["verify", "--sample", family, "--count", "50", "--seed", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert stats["max_residual"] == summary["max_residual"]
    assert 0.0 <= stats["mean_residual"] <= stats["max_residual"] < 1e-9
    if family.endswith("hyperbolic"):
        assert stats["max_angle_sum_minus_pi"] < 0.0
    if family.startswith("spatiolateral"):
        low, high = stats["side_sum_range"]
        contractible = family == "spatiolateral_contractible"
        assert (high < 2 * math.pi) if contractible else (low > 2 * math.pi)


def test_verify_laws_main_prints_every_family(capsys):
    assert verify_laws.main(["--count", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for family in verify_laws.LAW_FAMILIES:
        assert f"{family} (n=5)" in out


def test_polar_survey_main_prints_its_table(capsys):
    assert load("polar_survey").main(["--count", "100", "--seed", "1"]) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == "type-mapping violations: 0"
    sources = [line for line in lines if not line.startswith("  -> ")]
    counts = [int(line.rsplit(": ", 1)[1]) for line in lines if line.startswith("  -> ")]
    assert "hyperbolic" in sources and "tempolateral" in sources
    assert sum(counts) == 100
    assert any("nonexistent:" in line for line in lines)


def test_polar_survey_counts_violations_and_exits_1(capsys, monkeypatch):
    # a prediction that no polar satisfies: every row whose polar exists
    # and is not the zero triangle is a violation
    polar_survey = load("polar_survey")
    monkeypatch.setattr(polar_survey, "prediction_satisfied", lambda pred, cls: False)
    assert polar_survey.main(["--count", "100", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    built = sum(int(line.rsplit(": ", 1)[1]) for line in lines
                if line.startswith("  -> ") and "nonexistent:" not in line
                and "zero_triangle" not in line)
    assert lines[-1] == f"type-mapping violations: {built}"
    assert built > 0
