"""The independent reference agrees with the package's own oracle where that
fits, and rejects circuits with one gate changed."""

import numpy as np
import pytest

import graphsets
import measure
import pace
import refcheck
import staged
from oneway import (
    build_extended,
    circuit_isometry,
    find_flow,
    find_gflow,
    parse_graph_with_sets,
    parse_text,
    run_pattern,
    validate_gflow,
)

SMALL = (
    [graphsets.fixture(n) for n in graphsets.GFLOW_FIXTURES + ("path3", "strip2x3")]
    + [graphsets.cluster_strip(3), graphsets.lattice(3, 3), graphsets.lattice(4, 2)]
    + graphsets.flow_atlas()[::61]
)


def _structure(spec):
    graph, sets = parse_graph_with_sets(spec.text)
    return graph, validate_gflow(graph, sets) if sets else find_flow(graph) or find_gflow(graph)


@pytest.mark.parametrize("spec", SMALL, ids=[s.gid for s in SMALL])
def test_branch_matches_dense_oracle(spec):
    graph, structure = _structure(spec)
    branch = refcheck.pattern_branch(spec)
    assert refcheck.deviation(circuit_isometry(build_extended(graph, structure)).matrix, branch) < 1e-10

    outcomes = {v: 0 for v in graph.measured}
    dim = 2 ** len(graph.inputs)
    columns = [run_pattern(graph, structure, np.eye(dim)[:, j], outcomes).amplitudes for j in range(dim)]
    assert refcheck.deviation(np.stack(columns, axis=1), branch) < 1e-10


@pytest.mark.parametrize("spec", SMALL, ids=[s.gid for s in SMALL])
def test_circuit_matrix_matches_circuit_isometry(spec):
    out = staged.compile_text(spec.text, verify=True, seed=0)
    assert out.code == 0
    iso = circuit_isometry(parse_text(out.stdout))
    ours = refcheck.circuit_matrix(out.stdout, list(iso.input_wires))
    assert np.max(np.abs(ours - iso.matrix)) < 1e-12
    refcheck.check(spec, out.stdout, out.trace)


def test_wide_strip_is_checked_beyond_the_dense_cap():
    spec = graphsets.cluster_strip(16)
    out = staged.compile_text(spec.text, verify=False, seed=0)
    assert out.code == 0 and len(spec.vertices) > staged.MAX_WIRES
    assert refcheck.check(spec, out.stdout, out.trace) < refcheck.TOL


def _mutations(text: str):
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line.startswith("J("):
            angle = line[2:line.index(")")]
            bumped = "1/16pi" if angle != "1/16pi" else "1/8pi"
            yield "angle", "".join(lines[:k] + [line.replace(angle, bumped, 1)] + lines[k + 1:])
        elif line.startswith("CZ "):
            yield "drop-cz", "".join(lines[:k] + lines[k + 1:])


@pytest.mark.parametrize(
    "spec",
    [graphsets.cluster_strip(3), graphsets.cluster_strip(16), graphsets.lattice(3, 3),
     graphsets.fixture("example2")],
    ids=lambda s: s.gid,
)
def test_mutated_circuits_are_rejected(spec):
    out = staged.compile_text(spec.text, verify=False, seed=0)
    kinds = set()
    for kind, mutated in _mutations(out.stdout):
        kinds.add(kind)
        with pytest.raises(refcheck.Mismatch):
            refcheck.check(spec, mutated, out.trace)
    assert "angle" in kinds


def test_mutated_output_fails_the_run(monkeypatch, tmp_path, capsys):
    original = staged.emit_text
    monkeypatch.setattr(staged, "emit_text", lambda c: next(_mutations(original(c)))[1])
    with pace.Pacer(sampling=True) as pacer:
        code = measure.run("wide-verify", seed=1, seconds=0.1, traced=False, pacer=pacer,
                           started=pacer.mark(), import_s=0.0, root=tmp_path)
    result = capsys.readouterr().out.strip().splitlines()[-1]
    assert code != 0
    assert '"correct": false' in result
