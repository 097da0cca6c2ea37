"""The staged compile must behave exactly like `oneway compile`."""

import random

import pytest

import graphsets
import staged
from oneway.cli import main as cli_main

FIXTURES = sorted(p.stem for p in graphsets.FIXTURES.glob("*.graph"))


def _sample(workload: str, k: int) -> list:
    specs = graphsets.generate(workload, seed=5)
    return random.Random(7).sample(specs, min(k, len(specs)))


CASES = (
    [(graphsets.fixture(name), True) for name in FIXTURES]
    + [(spec, True) for spec in _sample("flow-atlas", 24)]
    + [(spec, False) for spec in _sample("strip-scaling", 2)]
    + [(spec, True) for spec in _sample("gflow-search", 4)]
    + [(spec, True) for spec in _sample("wide-verify", 2)]
)


@pytest.mark.parametrize("spec,verify", CASES, ids=[c[0].gid for c in CASES])
def test_staged_compile_matches_cli(spec, verify, tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(spec.text)
    trace_path = tmp_path / "g.trace"
    argv = ["compile", str(graph_path), "--trace", str(trace_path), "--seed", "3"]
    code = cli_main(argv + ([] if verify else ["--no-verify"]))
    stdout, _ = capsys.readouterr()

    out = staged.compile_text(spec.text, verify=verify, seed=3)
    assert out.code == code
    assert out.stdout == stdout
    assert out.trace == (trace_path.read_text() if trace_path.exists() else None)


def test_tracing_changes_no_output():
    specs = _sample("gflow-core", 5)
    plain = [staged.compile_text(s.text, verify=True, seed=0) for s in specs]
    tracer = staged.Tracer()
    with tracer.patched():
        traced = [staged.compile_text(s.text, verify=True, seed=0, t=tracer) for s in specs]
    assert [(o.code, o.stdout, o.trace) for o in plain] == [(o.code, o.stdout, o.trace) for o in traced]
    assert tracer.rule_calls >= tracer.rule_applied > 0
    names = {span[0] for span in tracer.spans}
    assert {"rewrite.simplify_gflow", "rewrite.digest", "simulate.circuit_isometry"} <= names
