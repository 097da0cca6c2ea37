#!/usr/bin/env python3
"""Benchmark of `oneway compile`, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py                     # every workload, both modes
    python3 perfbench/run.py --workload flow-atlas --seed 1 --seconds 36 --trace 0

For one workload the program sets up its inputs (three times; set-up time is
the median plus the one-off import time), then compiles every graph of the
workload once per pass, passes repeating until ``--seconds`` is spent.  Each
compile makes the calls `oneway compile --trace PATH --seed SEED` makes
(see staged.py).  Every emitted circuit of the first pass is checked against
the raw pattern by refcheck.py, and every later pass must reproduce the
first byte for byte.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference machine speed that the run samples as it goes (pace.py); the wall
times are printed beside them.  ``--trace 1`` alternates
untraced passes with traced ones, which record a span around every public
call, and reports per-layer metrics; counts of the two kinds of pass must
agree.  The last line of standard output is one JSON object.  Human-readable
lines, including the output digest and the exact counts, come before it.

Without ``--workload`` (or with ``--workload all``) each workload runs in its
own process, once per mode.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALL = ("flow-atlas", "strip-scaling", "gflow-core", "gflow-search", "wide-verify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=ALL + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """One process per workload and mode, so no run inherits another's heap."""
    status = 0
    for name in ALL:
        for trace in (0, 1):
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            code = subprocess.run(cmd, cwd=ROOT, check=False).returncode
            status = status or code
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "oneway" / "__init__.py").is_file():
        print(f"error: no oneway sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread: numpy's OpenBLAS would otherwise start up to 64.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(pathlib.Path(__file__).resolve().parent)]
    import pace

    # End-to-end runs sample the machine's speed from here on (pace.py);
    # traced runs report plain wall seconds.
    with pace.Pacer(sampling=not args.trace) as pacer:
        started = pacer.mark()
        import numpy as np

        import measure

        import_s = pacer.seconds(started)
        env = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
            "seed": args.seed,
        }
        print("# env " + json.dumps(env, sort_keys=True))
        return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), pacer,
                           started, import_s, ROOT)


if __name__ == "__main__":
    sys.exit(main())
