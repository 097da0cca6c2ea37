"""The scripts under scripts/ still run against the package."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

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
rewrite.rule_yield               0 ratio
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
        "rewrite.rule_yield               0 ratio",
    ]
    run = check(sha)
    assert run.returncode == 0 and run.stdout.splitlines() == shown
    run = check("0" * 64)
    assert run.returncode == 1
    assert run.stdout.splitlines() == shown + ["strip-scaling: output sha256 changed"]


# The lines of an untraced `perfbench/run.py --trace 0` report that
# bench_pairs.py reads, the human-readable metric lines cut.
UNTRACED_REPORT = """\
# env {"nproc": 2, "python": "3.11.7", "seed": %(seed)d}
# output sha256 %(sha)s  (over every emitted circuit and trace text)
{"correct": true, "attempted": 4, "failed": 0, "metrics": {"compile_s": {"value": %(compile_s)s, "unit": "s"}, \
"peak_rss_mb": {"value": 52.0, "unit": "MiB"}, "ok_frac": {"value": 1.0, "unit": "ratio"}}}
"""


def stand_in_tree(root, compile_s, sha="1" * 64):
    """A tree whose perfbench/run.py prints a canned report; it checks its arguments."""
    (root / "perfbench").mkdir(parents=True)
    report = UNTRACED_REPORT % {"seed": 3, "sha": sha, "compile_s": compile_s}
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "assert sys.argv[1:] == ['--workload', 'strip-scaling', '--seed', '3', '--trace', '0'], sys.argv\n"
        f"print({report!r}, end='')\n"
    )
    better = [{"name": "compile_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": better}))
    return root


def test_bench_pairs_alternates_the_trees_and_writes_their_runs(tmp_path, capsys):
    script = load_script("bench_pairs")
    parent = stand_in_tree(tmp_path / "parent", 0.021)
    change = stand_in_tree(tmp_path / "change", 0.019)
    out = tmp_path / "BENCH.json"
    args = [str(parent), str(change), "--workload", "strip-scaling", "--pairs", "2", "--seed", "3", "--out", str(out)]
    assert script.main(args) == 0
    (series,) = json.loads(out.read_text())["series"]
    assert [(r["pair"], r["side"]) for r in series["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
    ]
    assert all(r["output_sha256"] == "1" * 64 and r["env"]["seed"] == 3 for r in series["runs"])
    assert series["runs"][1]["result"]["metrics"]["compile_s"]["value"] == 0.019
    assert (series["workload"], series["seed"], series["failed_runs"], series["same_output"]) == (
        "strip-scaling", 3, 0, True,
    )
    compile_s = series["summary"]["compile_s"]
    assert compile_s["parent"] == {"median": 0.021, "q1": 0.021, "q3": 0.021}
    assert compile_s["change"]["median"] == 0.019
    assert compile_s["pairs_won"] == {"parent": 0, "change": 2, "tie": 0}
    assert series["summary"]["ok_frac"]["pairs_won"] == {"parent": 0, "change": 0, "tie": 2}
    assert compile_s["gain_shown"] is True and series["summary"]["ok_frac"]["gain_shown"] is False
    assert set(series["summary"]) == {"compile_s", "ok_frac"}

    # a second series is appended; outputs that differ fail the run
    stand_in_tree(tmp_path / "other", 0.019, sha="2" * 64)
    args[1] = str(tmp_path / "other")
    args[5] = "1"
    assert script.main(args) == 1
    first, second = json.loads(out.read_text())["series"]
    assert first == series and second["same_output"] is False and len(second["runs"]) == 2


def canned_runs(parent: list[float], change: list[float], name: str = "compile_s") -> list[dict]:
    """Successful runs whose one metric reads ``parent[k]`` and ``change[k]`` in pair k."""
    return [
        {"pair": k, "side": side, "returncode": 0,
         "result": {"correct": True, "metrics": {name: {"value": value}}}}
        for k, pair in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), pair)
    ]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.00, IQR 0.035


@pytest.mark.parametrize("change, won, shown", [
    # 10 of 10 pairs, the median 0.90 below 1.00 by more than the IQR 0.04
    ([0.90] * 10, {"parent": 0, "change": 10, "tie": 0}, True),
    # 9 of 10 is enough
    ([0.90] * 9 + [1.10], {"parent": 1, "change": 9, "tie": 0}, True),
    # a tie is won by neither side, so 9 wins and a tie in 10 pairs still show it ...
    ([0.90] * 9 + [0.98], {"parent": 0, "change": 9, "tie": 1}, True),
    # ... but 8 wins and 2 ties do not
    ([0.90] * 8 + [1.02, 0.98], {"parent": 0, "change": 8, "tie": 2}, False),
    # 10 of 10 pairs, but the medians differ by less than the parent's IQR
    ([p - 0.01 for p in PARENT], {"parent": 0, "change": 10, "tie": 0}, False),
    # every pair a tie
    (PARENT, {"parent": 0, "change": 0, "tie": 10}, False),
])
def test_bench_pairs_shows_a_gain_only_past_nine_in_ten_and_the_parent_iqr(change, won, shown):
    summarise = load_script("bench_pairs").summarise
    (s,) = summarise(canned_runs(PARENT, change), {"compile_s": "lower"}).values()
    assert (s["pairs_won"], s["gain_shown"]) == (won, shown)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx((0.9825, 1.0175))
    # the same runs of a metric where higher is better show no gain for the change
    (s,) = summarise(canned_runs(PARENT, change), {"compile_s": "higher"}).values()
    assert s["gain_shown"] is False
    # mirrored about 1, where higher is better, the verdict is the same
    mirrored = canned_runs([2 - p for p in PARENT], [2 - c for c in change])
    (s,) = summarise(mirrored, {"compile_s": "higher"}).values()
    assert s["gain_shown"] is shown
