#!/usr/bin/env python3
"""Alternating benchmark runs of two source trees, written to a BENCH file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \\
        --seed S --out BENCH_<n>.json

Each pair runs each tree's own, unchanged ``perfbench/run.py --workload W
--seed S --trace 0`` once, from that tree's root.  The parent goes first in
even pairs and the change in odd ones, so neither side always meets a cooler
or a warmer machine.  Every run's result line (the JSON last line of its
output), ``# output sha256`` and ``# env`` are kept.

Per side, each end-to-end metric of the change tree's BENCHMARK.json gets
its median and quartiles over the runs; each pair counts as won by the side
that is better on that metric, as the file's ``better`` says, and as a tie
when the two are equal.  A gain is shown when the change wins at least 9 in
10 pairs (a tie is won by neither side) and its median is better than the
parent's by more than the parent's interquartile range; each metric records
whether it is.  The series goes into ``--out``; when that file
exists already, the series is appended to the ones it holds.  Exits 1 if a
run failed or the two trees' outputs differ.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run from ``tree``'s root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    run: dict = {"returncode": proc.returncode, "result": None, "output_sha256": None, "env": None}
    for line in lines:
        if line.startswith("# output sha256 "):
            run["output_sha256"] = line.split()[3]
        elif line.startswith("# env "):
            run["env"] = json.loads(line[len("# env "):])
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return run


def ok(run: dict) -> bool:
    return run["returncode"] == 0 and bool(run["result"]) and run["result"].get("correct") is True


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def gain_shown(parent: dict, change: dict, won: dict, direction: str) -> bool:
    """The change wins at least 9 in 10 pairs, and its median is better than
    the parent's by more than the parent's interquartile range."""
    gain = (parent["median"] - change["median"]) * (1 if direction == "lower" else -1)
    pairs = sum(won.values())
    return pairs > 0 and 10 * won["change"] >= 9 * pairs and gain > parent["q3"] - parent["q1"]


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Median and quartiles per side, pairs won and whether a gain is shown,
    of each end-to-end metric."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        if ok(run):
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    summary = {}
    for name, direction in better.items():
        values: dict[str, list[float]] = {side: [] for side in SIDES}
        won = {"parent": 0, "change": 0, "tie": 0}
        for metrics in pairs.values():
            pair = {side: m[name]["value"] for side, m in metrics.items() if name in m}
            for side, value in pair.items():
                values[side].append(value)
            if len(pair) == 2:
                a, b = pair["parent"], pair["change"]
                won["tie" if a == b else "change" if (b < a) == (direction == "lower") else "parent"] += 1
        if all(values.values()):
            sides = {side: quartiles(values[side]) for side in SIDES}
            summary[name] = {"better": direction, **sides, "pairs_won": won,
                             "gain_shown": gain_shown(sides["parent"], sides["change"], won, direction)}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=pathlib.Path, metavar="PARENT_DIR")
    p.add_argument("change", type=pathlib.Path, metavar="CHANGE_DIR")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=pathlib.Path, required=True)
    args = p.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run = {"pair": pair, "side": side, **run_once(trees[side], args.workload, args.seed)}
            runs.append(run)
            value = run["result"]["metrics"].get("compile_s", {}).get("value") if ok(run) else None
            print(f"pair {pair} {side:<6} compile_s {value}", flush=True)

    digests = {run["output_sha256"] for run in runs}
    series = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "failed_runs": sum(not ok(run) for run in runs),
        "same_output": len(digests) == 1 and None not in digests,
        "summary": summarise(runs, better),
        "runs": runs,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"series": []}
    doc["series"].append(series)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in series["summary"].items():
        print(f"{name:<14} parent {s['parent']['median']:.6g}  change {s['change']['median']:.6g}"
              f"  won {s['pairs_won']}  gain shown: {'yes' if s['gain_shown'] else 'no'}")
    return 0 if series["same_output"] and not series["failed_runs"] else 1


if __name__ == "__main__":
    sys.exit(main())
