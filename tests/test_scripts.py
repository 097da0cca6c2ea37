"""The scripts under scripts/ still run against the package."""

import importlib.util
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_fixtures_succeeds(capsys):
    assert load_script("compile_fixtures").main() == 0
    out = capsys.readouterr().out
    assert "broken     supplied correcting sets invalid:" in out
    assert "example2   gflow" in out


def test_flow_survey_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["flow_survey.py", "--max-vertices", "4"])
    assert load_script("flow_survey").main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["|V|", "flow", "gflow", "only", "neither", "total"]
    assert [int(row.split()[0]) for row in rows] == [2, 3, 4]
    for row in rows:
        flow, gflow_only, neither, total = map(int, row.split()[1:])
        assert flow + gflow_only + neither == total > 0
