#!/usr/bin/env python3
"""Compile every bundled fixture and tabulate what the rewriter did.

Run from the repository root, with the package installed or on the path:

    PYTHONPATH=src python3 scripts/compile_fixtures.py
"""

import pathlib
import sys
from collections import Counter

from oneway import CompileError, compile_pattern, parse_graph_with_sets

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def compile_one(path: pathlib.Path):
    graph, sets = parse_graph_with_sets(path.read_text())
    try:
        done = compile_pattern(graph, sets)
    except CompileError as exc:
        return {"name": path.stem, "error": str(exc)}

    rules = Counter(step.rule for step in done.trace.steps)
    return {
        "name": path.stem,
        "kind": done.structure.kind,
        "vertices": len(graph.vertices),
        "wires": len(done.compact.wires),
        "gates": len(done.compact.gates),
        "steps": len(done.trace.steps),
        "jgate": rules["jgate"],
        "dev": done.deviation,
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
