"""Two runs of one workload must print identical counts and output digests."""

import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "run.py"


def _run(*args: str) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "wide-verify", "--seconds", "1", *args],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout.splitlines()
    counts = json.loads(next(line for line in out if line.startswith("# counts "))[9:])
    return counts, json.loads(out[-1])


def test_counts_and_digests_repeat_exactly():
    first, result = _run("--seed", "4", "--trace", "0")
    again, _ = _run("--seed", "4", "--trace", "0")
    traced, layers = _run("--seed", "4", "--trace", "1")
    assert result["correct"] and layers["correct"]
    assert first == again == traced
    assert layers["metrics"]["rewrite.steps"]["value"] == first["rewrite.steps"]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "wide-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
