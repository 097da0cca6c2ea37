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


def test_gflow_only_digest_checks_its_expectation(monkeypatch, capsys):
    script = load_script("gflow_only_digest")
    cheap = script.graphsets.gflow_only(range(2, 6))[:5]  # the ones whose plan search is short
    monkeypatch.setattr(script.graphsets, "gflow_only", lambda sizes: cheap)
    assert script.main([]) == 0
    counts, line = capsys.readouterr().out.splitlines()
    assert sum(int(n) for n in counts.split()[2::3]) == 5
    assert script.main(["--expect", line.split()[1]]) == 0
    assert script.main(["--expect", "0" * 64]) == 1
    assert "expected sha256 " + "0" * 64 in capsys.readouterr().err
