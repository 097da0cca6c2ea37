"""verify.py: every check on the dense oracle, in one module."""

import pathlib
import re
from collections import Counter

import numpy as np
import pytest

import oneway.simulate
from oneway import (
    basis_column_order, build_extended, circuit_isometry, compile_pattern, max_deviation, run_pattern,
    simplify_gflow, validate_gflow,
)
from oneway.cli import main
from conftest import load_fixture
from test_pipeline import CROSSED

ORACLE = ("circuit_isometry", "run_pattern", "max_deviation", "basis_column_order", "follow_jgates")


def test_only_simulate_and_verify_name_the_oracle():
    source = pathlib.Path(oneway.__file__).parent
    pattern = re.compile(rf"\b({'|'.join(ORACLE)})\b")
    naming = {path.name for path in source.glob("*.py") if pattern.search(path.read_text(encoding="utf-8"))}
    assert naming == {"simulate.py", "verify.py"}


def test_every_check_looks_the_oracle_up_at_call_time(monkeypatch, tmp_path, capsys):
    # a module that imported these names itself would bypass the counters,
    # and the benchmark's wrappers with them
    calls = Counter()
    for name in ("circuit_isometry", "run_pattern"):
        def counted(*args, _real=getattr(oneway.simulate, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oneway.simulate, name, counted)

    # compile_pattern's proof: both isometries, then two outcome strings
    graph, _ = load_fixture("path3")
    compile_pattern(graph)
    assert calls == {"circuit_isometry": 2, "run_pattern": 2}

    calls.clear()
    circuit = tmp_path / "a.circuit"
    circuit.write_text("wire 1 input output\nJ(1/4pi) 1\n")
    assert main(["verify", str(circuit), str(circuit)]) == 0
    assert capsys.readouterr().out == "max deviation: 0.000e+00\n"
    assert calls == {"circuit_isometry": 2}

    # the engine's step checks: the input circuit's isometry, then one per step
    calls.clear()
    graph, sets = load_fixture("example1")
    structure = validate_gflow(graph, sets)
    assert structure.kind == "gflow"
    ext = build_extended(graph, structure)
    assert len(ext.wires) <= 12
    _, trace = simplify_gflow(ext, structure.order, structure)
    assert calls == {"circuit_isometry": len(trace.steps) + 1}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["path3", "example1", "example2", "budget", "strip2x3", "CROSSED"])
def test_the_deviation_is_the_proofs_bit_for_bit(name, seed):
    graph, sets = (CROSSED, None) if name == "CROSSED" else load_fixture(name)
    done = compile_pattern(graph, sets, seed=seed)

    a, b = circuit_isometry(done.extended), circuit_isometry(done.compact)
    chained = list(a.input_wires)
    for step in done.trace.steps:  # a jgate moves wire i's column onto wire j
        if step.rule == "jgate":
            chained = [step.produced[0].wires[0] if w == step.wire_removed else w for w in chained]
    aligned = b.matrix[:, basis_column_order(b.input_wires, chained)]
    worst = max_deviation(a.matrix, aligned)

    rng = np.random.default_rng(seed)
    dim = 2 ** len(graph.inputs)
    for _ in range(2):
        outcomes = {i: int(rng.integers(2)) for i in sorted(graph.measured)}
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        got = run_pattern(graph, done.structure, state, outcomes).amplitudes
        worst = max(worst, max_deviation(got, aligned @ state))
    assert done.deviation == worst
