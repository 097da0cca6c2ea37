#!/usr/bin/env python3
"""Hash what `oneway compile` leaves behind on every gflow-only atlas graph.

The graphs are the benchmark's ``gflow_only(range(2, 7))``: the 256
connected open graphs of 2 to 6 vertices, no inputs, over all output
subsets, that admit a gflow but no flow, in the benchmark's order.  Each is
compiled as ``oneway compile GRAPH --trace PATH --seed 1`` would compile it
(the benchmark's ``staged.compile_text``), and one sha256 covers each
graph's id, exit code, stdout, trace text and error.  The benchmark's
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
import staged  # noqa: E402


def outcomes_digest(specs) -> tuple[Counter, str]:
    """The exit codes and the sha256 over (gid, code, stdout, trace, error) of each compile."""
    codes: Counter = Counter()
    h = hashlib.sha256()
    for spec in specs:
        out = staged.compile_text(spec.text, verify=True, seed=1)
        codes[out.code] += 1
        h.update(json.dumps([spec.gid, out.code, out.stdout, out.trace, out.error]).encode() + b"\n")
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
