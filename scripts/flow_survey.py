#!/usr/bin/env python3
"""Survey flow and gflow existence over small connected open graphs.

For every connected graph up to --max-vertices (from the networkx atlas,
so one representative per isomorphism class) and every proper output
subset, report how many open graphs admit a flow, admit only a gflow, or
admit neither.  Inputs are left empty: input vertices only shrink the set
of usable correctors, and the survey is about the correction structure.

    python3 scripts/flow_survey.py --max-vertices 6
"""

import argparse
import itertools
import sys
from collections import Counter

import networkx as nx

from oneway import Angle, OpenGraph, find_flow, find_gflow


def open_graphs(max_vertices: int):
    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if n < 2 or n > max_vertices or not nx.is_connected(atlas):
            continue
        rel = nx.relabel_nodes(atlas, {v: v + 1 for v in atlas.nodes})
        vertices = tuple(sorted(rel.nodes))
        edges = frozenset(tuple(sorted(e)) for e in rel.edges)
        for r in range(1, n):
            for outs in itertools.combinations(vertices, r):
                angles = {
                    v: Angle.exact(1, 4) for v in vertices if v not in outs
                }
                yield OpenGraph(vertices, edges, frozenset(), frozenset(outs), angles)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, default=5, metavar="N")
    args = parser.parse_args()
    if args.max_vertices > 7:
        parser.error("the graph atlas stops at 7 vertices")
    if args.max_vertices < 2:
        parser.error("the smallest connected open graph has 2 vertices")

    tally: Counter[tuple[int, str]] = Counter()
    for graph in open_graphs(args.max_vertices):
        n = len(graph.vertices)
        if find_flow(graph) is not None:
            tally[n, "flow"] += 1
        elif find_gflow(graph) is not None:
            tally[n, "gflow only"] += 1
        else:
            tally[n, "neither"] += 1

    print(f"{'|V|':>3} {'flow':>8} {'gflow only':>11} {'neither':>8} {'total':>8}")
    for n in range(2, args.max_vertices + 1):
        row = [tally[n, k] for k in ("flow", "gflow only", "neither")]
        print(f"{n:>3} {row[0]:>8} {row[1]:>11} {row[2]:>8} {sum(row):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
