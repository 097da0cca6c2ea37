"""The scripts under scripts/ still run against the package."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


# The lines of a traced `perfbench/run.py --seconds 0 --trace 1` report that
# bench_check.sh reads, with the per-layer lines around them cut short.
TRACED_REPORT = """\
# workload strip-scaling: 4 graphs, seed 1 (selects the compile order, the spot-check seed)
# output sha256 %s  (over every emitted circuit and trace text)
# passes: 1 untraced, 1 traced
# untraced pass 0.019920 s wall, traced 0.020292 s; span self-times sum to 0.020174 s
rewrite.s                        0.0193 s
rewrite.rule_calls               0 count
{"correct": true, "attempted": 4, "failed": 0}
"""


def test_bench_check_shows_a_traced_pass_and_refuses_a_changed_digest(tmp_path):
    # A stand-in `python` that prints a canned report, so the test exercises
    # the script's checks and not the benchmark.
    sha = "1" * 64
    (tmp_path / "report").write_text(TRACED_REPORT % sha)
    stub = tmp_path / "python"
    stub.write_text(f'#!/bin/sh\ncat "{tmp_path / "report"}"\n')
    stub.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path), os.environ["PATH"]]))

    def check(expected_sha):
        return subprocess.run(
            ["bash", str(SCRIPTS / "bench_check.sh"), "strip-scaling", expected_sha, "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )

    shown = [
        "# passes: 1 untraced, 1 traced",
        "# untraced pass 0.019920 s wall, traced 0.020292 s; span self-times sum to 0.020174 s",
        "rewrite.rule_calls               0 count",
    ]
    run = check(sha)
    assert run.returncode == 0 and run.stdout.splitlines() == shown
    run = check("0" * 64)
    assert run.returncode == 1
    assert run.stdout.splitlines() == shown + ["strip-scaling: output sha256 changed"]
