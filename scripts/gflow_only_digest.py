#!/usr/bin/env python3
"""Hash what `oneway compile` leaves behind on every gflow-only atlas graph.

The graphs are the benchmark's ``gflow_only(range(2, 7))``: the 256
connected open graphs of 2 to 6 vertices, no inputs, over all output
subsets, that admit a gflow but no flow, in the benchmark's order.  Each is
compiled by ``compile_pattern(graph, sets, seed=1)``, the pipeline behind
``oneway compile GRAPH --trace PATH --seed 1``, and one sha256 covers each
graph's id and what that command leaves behind: its exit code, stdout,
trace text (None when it writes no trace) and error.  The benchmark's
files are read, not changed.

    PYTHONPATH=src python3 scripts/gflow_only_digest.py [--expect SHA256]

Prints the count per exit code and the digest; with ``--expect`` it exits 1
when the digest differs.
"""

import argparse
import hashlib
import json
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import graphsets  # noqa: E402

from oneway import CompileError, compile_pattern, emit_text, parse_graph_with_sets, trace_text  # noqa: E402


def compile_outcome(text: str) -> tuple[int, str, str | None, str]:
    """The exit code, stdout, trace text and error of `oneway compile` on ``text``."""
    try:
        done = compile_pattern(*parse_graph_with_sets(text), seed=1)
    except CompileError as exc:
        return exc.code, "", None if exc.trace is None else trace_text(exc.trace), str(exc)
    return 0, emit_text(done.compact), trace_text(done.trace), ""


def outcomes_digest(specs) -> tuple[Counter, str]:
    """The exit codes and the sha256 over (gid, code, stdout, trace, error) of each compile."""
    codes: Counter = Counter()
    h = hashlib.sha256()
    for spec in specs:
        code, stdout, trace, error = compile_outcome(spec.text)
        codes[code] += 1
        h.update(json.dumps([spec.gid, code, stdout, trace, error]).encode() + b"\n")
    return codes, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args(argv)
    codes, hexdigest = outcomes_digest(graphsets.gflow_only(range(2, 7)))
    print(" ".join(f"exit {code}: {n}" for code, n in sorted(codes.items())))
    print(f"sha256 {hexdigest}")
    if args.expect is not None and args.expect != hexdigest:
        print(f"expected sha256 {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
