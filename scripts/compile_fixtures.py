#!/usr/bin/env python3
"""Compile every bundled fixture and tabulate what the rewriter did.

Run from the repository root:

    python3 scripts/compile_fixtures.py
"""

import pathlib
import sys
from collections import Counter

from oneway import (
    build_extended,
    circuit_isometry,
    max_deviation,
    parse_graph_with_sets,
    simplify_flow,
    simplify_gflow,
    slice_circuit,
)
from oneway.determinism import pick_structure

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def compile_one(path: pathlib.Path):
    graph, sets = parse_graph_with_sets(path.read_text())
    structure = pick_structure(graph, sets)
    if isinstance(structure, str):
        return {"name": path.stem, "error": structure}

    ext = build_extended(graph, structure)
    view = slice_circuit(ext, structure)
    if structure.kind == "flow":
        compact, trace = simplify_flow(ext, view)
    else:
        compact, trace = simplify_gflow(ext, view, structure)

    dev = max_deviation(circuit_isometry(ext).matrix, circuit_isometry(compact).matrix)
    rules = Counter(step.rule for step in trace.steps)
    return {
        "name": path.stem,
        "kind": structure.kind,
        "vertices": len(graph.vertices),
        "wires": len(compact.wires),
        "gates": len(compact.gates),
        "steps": len(trace.steps),
        "jgate": rules["jgate"],
        "dev": dev,
    }


def main() -> int:
    rows = [compile_one(p) for p in sorted(FIXTURES.glob("*.graph"))]
    header = f"{'fixture':<10} {'kind':<6} {'|V|':>3} {'wires':>5} {'gates':>5} {'steps':>5} {'jgate':>5} {'deviation':>10}"
    print(header)
    print("-" * len(header))
    failed = False
    for row in rows:
        if "error" in row:
            print(f"{row['name']:<10} {row['error']}")
            if row["name"] != "broken":  # the negative control is expected to fail
                failed = True
            continue
        print(
            f"{row['name']:<10} {row['kind']:<6} {row['vertices']:>3} {row['wires']:>5}"
            f" {row['gates']:>5} {row['steps']:>5} {row['jgate']:>5} {row['dev']:>10.2e}"
        )
        if row["dev"] > 1e-9:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
