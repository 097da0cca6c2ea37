"""CLI behavior: output text and the exit-code contract."""

import pathlib

import pytest

from oneway import parse_text
from oneway.cli import main

TRIANGLE = """\
vertices: 1 2 3
edges: 1-2 1-3 2-3
inputs:
outputs: 1
angles: 2=1/4pi 3=1/4pi
"""


@pytest.fixture()
def triangle_path(tmp_path: pathlib.Path) -> str:
    p = tmp_path / "triangle.graph"
    p.write_text(TRIANGLE)
    return str(p)


def fx(fixtures_dir: pathlib.Path, name: str) -> str:
    return str(fixtures_dir / f"{name}.graph")


def test_flow_reports_both_structures(fixtures_dir, capsys):
    assert main(["flow", fx(fixtures_dir, "path3")]) == 0
    out = capsys.readouterr().out
    assert "flow: yes" in out
    assert "  f(1) = 2" in out
    assert "  f(2) = 3" in out
    assert "  layers: {1} {2}" in out
    assert "gflow: yes" in out
    assert "  g(1) = {2}" in out


def test_flow_reports_supplied_sets(fixtures_dir, capsys):
    assert main(["flow", fx(fixtures_dir, "example1")]) == 0
    assert "supplied correcting sets: valid" in capsys.readouterr().out

    assert main(["flow", fx(fixtures_dir, "broken")]) == 0
    out = capsys.readouterr().out
    assert "supplied correcting sets: invalid (" in out


def test_flow_without_structure_exits_3(triangle_path, capsys):
    assert main(["flow", triangle_path]) == 3
    out = capsys.readouterr().out
    assert "flow: no" in out
    assert "gflow: no" in out


def test_unreadable_or_malformed_input_exits_2(tmp_path, capsys):
    assert main(["flow", str(tmp_path / "absent.graph")]) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: 1 2\nedges: 1-2\n")
    assert main(["compile", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text("vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\nangles: 1=nan\n")
    assert main(["compile", str(bad)]) == 2
    assert "line 5: angles: angle must be finite, got nan radians" in capsys.readouterr().err


def test_compile_path3(fixtures_dir, tmp_path, capsys):
    trace = tmp_path / "steps.txt"
    ext = tmp_path / "extended.circuit"
    code = main(
        ["compile", fx(fixtures_dir, "path3"), "--trace", str(trace), "--emit-extended", str(ext)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == "wire 3 input output\nJ(1/4pi) 3\nJ(1/2pi) 3\n"
    assert len(trace.read_text().splitlines()) == 3
    extended = parse_text(ext.read_text())
    assert len(extended.wires) == 3


def test_compile_fixture_wire_counts(fixtures_dir, capsys):
    for name, wires in (("example1", 3), ("example2", 3), ("strip2x3", 2)):
        assert main(["compile", fx(fixtures_dir, name)]) == 0, name
        compact = parse_text(capsys.readouterr().out)
        assert len(compact.wires) == wires, name


def test_compile_without_structure_exits_3(triangle_path, fixtures_dir, capsys):
    assert main(["compile", triangle_path]) == 3
    assert "neither flow nor gflow" in capsys.readouterr().err

    assert main(["compile", fx(fixtures_dir, "broken")]) == 3
    assert "supplied correcting sets invalid:" in capsys.readouterr().err


def test_compile_budget_exhaustion_exits_5(fixtures_dir, tmp_path, capsys):
    trace = tmp_path / "partial.txt"
    code = main(
        ["compile", fx(fixtures_dir, "budget"), "--search-budget", "1", "--trace", str(trace)]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "exhausted after 1 attempts" in err
    assert trace.read_text().strip()

    # without --trace the partial trace goes to stderr instead
    assert main(["compile", fx(fixtures_dir, "budget"), "--search-budget", "1"]) == 5
    err = capsys.readouterr().err
    assert "consumed=" in err


def test_compile_budget_default_succeeds(fixtures_dir, capsys):
    assert main(["compile", fx(fixtures_dir, "budget")]) == 0
    assert parse_text(capsys.readouterr().out)


def test_compile_wire_cap_exits_4(fixtures_dir, capsys):
    assert main(["compile", fx(fixtures_dir, "path3"), "--max-wires", "2"]) == 4
    assert "cannot verify: circuit exceeds --max-wires 2" in capsys.readouterr().err


def test_failed_compile_still_writes_extended_and_trace(fixtures_dir, tmp_path, capsys):
    ext, trace = tmp_path / "extended.circuit", tmp_path / "steps.txt"
    outputs = ["--emit-extended", str(ext), "--trace", str(trace)]
    assert main(["compile", fx(fixtures_dir, "budget"), "--search-budget", "1", *outputs]) == 5
    assert len(parse_text(ext.read_text()).wires) == 5
    assert trace.read_text().strip()

    assert main(["compile", fx(fixtures_dir, "path3"), "--max-wires", "2", *outputs]) == 4
    assert len(parse_text(ext.read_text()).wires) == 3
    assert len(trace.read_text().splitlines()) == 3
    assert capsys.readouterr().out == ""


def test_compile_verifies_past_the_default_wire_cap(tmp_path, capsys):
    # a 15-vertex path: 15 wires and one input, so 2^16 dense amplitudes
    path = tmp_path / "path15.graph"
    path.write_text(
        "vertices: " + " ".join(map(str, range(1, 16))) + "\n"
        + "edges: " + " ".join(f"{v}-{v + 1}" for v in range(1, 15)) + "\n"
        + "inputs: 1\noutputs: 15\n"
        + "angles: " + " ".join(f"{v}=1/4pi" for v in range(1, 15)) + "\n"
    )
    assert main(["compile", str(path), "--max-wires", "15"]) == 0
    assert len(parse_text(capsys.readouterr().out).wires) == 1


def test_compile_without_an_injective_designation_exits_5(tmp_path, capsys):
    graph = tmp_path / "cycle_chord.graph"
    graph.write_text(
        "vertices: 1 2 3 4 5\nedges: 1-2 1-4 1-5 2-3 3-4 4-5\ninputs:\noutputs: 1 3\n"
        "angles: 2=1/8pi 4=3/8pi 5=5/8pi\n"
    )
    assert main(["compile", str(graph)]) == 5
    assert "exhausted after 0 attempts: no injective designation" in capsys.readouterr().err


def test_verify_compiled_against_extended(fixtures_dir, tmp_path, capsys):
    ext = tmp_path / "extended.circuit"
    assert main(["compile", fx(fixtures_dir, "path3"), "--emit-extended", str(ext)]) == 0
    compact = tmp_path / "compact.circuit"
    compact.write_text(capsys.readouterr().out)

    assert main(["verify", str(ext), str(compact)]) == 0
    assert "max deviation:" in capsys.readouterr().out


def test_verify_detects_a_changed_angle(tmp_path, capsys):
    a = tmp_path / "a.circuit"
    b = tmp_path / "b.circuit"
    a.write_text("wire 1 input output\nJ(1/4pi) 1\n")
    b.write_text("wire 1 input output\nJ(1/2pi) 1\n")
    assert main(["verify", str(a), str(b)]) == 4
    assert "max deviation:" in capsys.readouterr().out


def test_verify_shape_and_cap_failures(tmp_path, capsys):
    a = tmp_path / "a.circuit"
    b = tmp_path / "b.circuit"
    a.write_text("wire 1 input output\n")
    b.write_text("wire 1 input output\nwire 2 input output\n")
    assert main(["verify", str(a), str(b)]) == 4
    assert "shape mismatch" in capsys.readouterr().err

    wide = tmp_path / "wide.circuit"
    wide.write_text("".join(f"wire {i} input output\n" for i in range(1, 5)))
    assert main(["verify", str(wide), str(wide), "--max-wires", "3"]) == 4
    assert "exceeds the simulation cap" in capsys.readouterr().err


def test_verify_non_deterministic_circuit_exits_4(tmp_path, capsys):
    # |1> on wire 1 flips wire 2 to |->, which the <+| readout annihilates
    odd = tmp_path / "odd.circuit"
    odd.write_text("wire 1 input output\nwire 2 plus measured\nCZ 1 2\n")
    plain = tmp_path / "plain.circuit"
    plain.write_text("wire 1 input output\n")
    assert main(["verify", str(odd), str(plain)]) == 4
    assert "projection collapsed a column" in capsys.readouterr().err


def test_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.circuit"
    bad.write_text("wire 1 input output\nRZ 1\n")
    ok = tmp_path / "ok.circuit"
    ok.write_text("wire 1 input output\n")
    assert main(["verify", str(bad), str(ok)]) == 2
    assert "error:" in capsys.readouterr().err
    bad.write_text("wire 1 input output\nJ(nan) 1\n")
    assert main(["verify", str(bad), str(ok)]) == 2
    assert "line 2: angle must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, reason",
    [
        ("--search-budget", "0", "must be at least 1, got 0"),
        ("--max-wires", "0", "must be at least 1, got 0"),
        ("--tol", "-1", "must be non-negative, got -1"),
        ("--seed", "-1", "must be non-negative, got -1"),
    ],
)
def test_compile_refuses_out_of_range_options_at_parse_time(fixtures_dir, option, value, reason, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compile", fx(fixtures_dir, "budget"), option, value])
    assert info.value.code == 2
    assert f"argument {option}: {reason}" in capsys.readouterr().err
