"""Passes over one workload, their checks, and the metrics taken from them."""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time
from collections import Counter

import graphsets
import refcheck
import staged

SETUP_REPEATS = 3
NESTED_SIZES = (8, 16, 32, 64)  # strip widths reported one by one

# name -> unit, in the order the reports list them
END_TO_END = {
    "compile_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "compact_gates": "count",
}
# Printed with the end-to-end metrics but left out of the result line: on
# workloads with a dozen graphs or fewer the median graph is one graph, and
# which one it is changes with machine noise.
LATENCY = {"compile_ms_p50": "ms", "compile_ms_tail": "ms", "fail_frac": "ratio"}
PER_LAYER = {
    "graphs.parse_s": "s",
    "determinism.s": "s",
    "extend.s": "s",
    "extend.gates": "count",
    "circuits.slice_s": "s",
    "circuits.emit_s": "s",
    "rewrite.s": "s",
    **{f"rewrite.s.n{n}": "s" for n in NESTED_SIZES},
    "rewrite.steps": "count",
    **{f"rewrite.rule.{r}": "count" for r in staged.RULES},
    "rewrite.exhausted_attempts": "count",
    "rewrite.rule_calls": "count",
    "rewrite.rule_yield": "ratio",
    "rewrite.digest_calls": "count",
    "rewrite.digest_s": "s",
    "rewrite.oracle_s": "s",
    "simulate.isometry_s": "s",
    "simulate.spot_s": "s",
    "simulate.dense_mib_max": "MiB",
    "simulate.dev_max": "ratio",
    **{f"{layer}.self_s": "s" for layer in ("graphs", "determinism", "extend", "circuits", "rewrite", "simulate", "bench")},
    "trace.overhead_s": "s",
}


class Pass:
    """One compile of every graph: its time, per-graph latency, counts, and
    with ``keep`` the outcomes themselves (only the first pass keeps them, so
    memory does not grow with the number of passes).  ``wall`` and the
    latencies are wall seconds less the pacer's sampling; ``seconds`` is
    ``wall`` scaled to the reference speed by the samples taken during the
    pass (pace.py)."""

    def __init__(self, specs, verify: bool, seed: int, pacer, tracer=None, keep=False):
        t = tracer or staged.NO_TRACE
        self.latencies: list[float] = []
        self.records: dict[str, staged.Outcome] = {}
        gc.collect()
        start = pacer.mark()
        for spec in specs:
            t0 = pacer.mark()
            with t.graph(spec.gid):
                out = staged.compile_text(spec.text, verify=verify, seed=seed, t=t)
            self.latencies.append(pacer.seconds(t0))
            self.records[spec.gid] = out
        self.wall = pacer.seconds(start)
        self.scale = pacer.scale(start)
        self.seconds = self.wall * self.scale
        self.layers = _span_metrics(tracer) if tracer is not None else None
        self.counts = self._counts(specs)
        if not keep:
            self.records = None

    def _counts(self, specs) -> dict:
        """Exact counts and the output digest; must repeat on every pass."""
        codes, rules = Counter(), Counter()
        c = {"compiles": len(specs), "compact_gates": 0, "compiled_gates": 0, "extend.gates": 0,
             "rewrite.steps": 0, "rewrite.exhausted_attempts": 0, "simulate.dense_bytes_max": 0}
        for spec in specs:
            r = self.records[spec.gid]
            codes[str(r.code)] += 1
            c["extend.gates"] += r.extend_gates
            c["compiled_gates"] += r.compact_gates
            if spec.must_compile:
                c["compact_gates"] += r.compact_gates
            c["rewrite.steps"] += len(r.rules)
            rules.update(r.rules)
            c["rewrite.exhausted_attempts"] += r.attempts
            c["simulate.dense_bytes_max"] = max(c["simulate.dense_bytes_max"], r.dense_bytes)
        digest = hashlib.sha256()
        for gid in sorted(self.records):
            r = self.records[gid]
            digest.update(f"{gid}\0{r.code}\0{r.stdout}\0{r.trace}\0".encode())
        c["exit_codes"] = dict(sorted(codes.items()))
        c["rules"] = {r: rules[r] for r in staged.RULES}
        c["sha256"] = digest.hexdigest()
        return c


def _expectations(specs, first: Pass) -> list[str]:
    """Problems with the first pass: refusals where a compile is required,
    exits outside the compile contract, and circuits the reference rejects."""
    problems = []
    for spec in specs:
        out = first.records[spec.gid]
        if out.code == 0:
            try:
                refcheck.check(spec, out.stdout, out.trace)
            except refcheck.Mismatch as exc:
                problems.append(str(exc))
        elif spec.must_compile or out.code not in (3, 4, 5):
            problems.append(f"{spec.gid}: exit {out.code} ({out.error})")
    return problems


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the median when
    that percentile would be below it), and the percentile itself."""
    xs = sorted(samples)
    n = len(xs)
    if n - 10 > n / 2:
        return xs[n - 11], 100.0 * (n - 10) / n
    return statistics.median(xs), 50.0


def _span_metrics(tracer) -> dict[str, float]:
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, gid in spans:
        if parent >= 0:
            child[parent] += end - start
    m = Counter()
    for k, (name, start, end, parent, gid) in enumerate(spans):
        dur = end - start
        layer, _, fn = name.partition(".")
        m[f"{layer}.self_s"] += dur - child[k]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "graphs.parse_graph_with_sets":
            m["graphs.parse_s"] += dur
        elif layer in ("determinism", "extend"):
            m[f"{layer}.s"] += dur
        elif name == "circuits.slice_circuit":
            m["circuits.slice_s"] += dur
        elif name == "circuits.emit_text":
            m["circuits.emit_s"] += dur
        elif fn.startswith("simplify_"):
            m["rewrite.s"] += dur
            if gid.startswith("strip-"):
                m[f"rewrite.s.n{gid[6:]}"] += dur
        elif name == "rewrite.digest":
            m["rewrite.digest_calls"] += 1
            m["rewrite.digest_s"] += dur
        elif layer == "simulate" and parent_name.startswith("rewrite.simplify_"):
            m["rewrite.oracle_s"] += dur
        elif layer == "simulate" and parent_name == "bench.compile":
            m["simulate.isometry_s"] += dur
        elif layer == "simulate" and parent_name == "bench.spot":
            m["simulate.spot_s"] += dur
    m["rewrite.rule_calls"] = tracer.rule_calls
    m["rewrite.rule_yield"] = tracer.rule_applied / max(tracer.rule_calls, 1)
    return m


def _write_spans(path: pathlib.Path, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tgraph\n")
        for k, (name, start, end, parent, gid) in enumerate(tracer.spans):
            fh.write(f"{k}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{gid}\n")


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run(name: str, seed: int, seconds: float, traced: bool, pacer, started, import_s: float,
        root: pathlib.Path) -> int:
    verify = name not in graphsets.UNVERIFIED

    # Set-up: generate the inputs and warm up on one graph: the one with the
    # largest dense simulation (2^(vertices+inputs)) where the workload
    # verifies, so the allocator has served the biggest arrays before timing
    # starts, and otherwise the smallest.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = pacer.mark()
        specs = graphsets.generate(name, seed)
        if verify:
            warm = max(specs, key=lambda s: (len(s.vertices) + len(s.inputs), s.gid))
        else:
            warm = min(specs, key=lambda s: (len(s.vertices), s.gid))
        staged.compile_text(warm.text, verify=verify, seed=seed)
        setups.append(pacer.seconds(t0))
    setup_wall = import_s + statistics.median(setups)
    setup_s = setup_wall * pacer.scale(started)
    if not traced:
        print(f"# setup_s {setup_wall:.6f} s wall, scaled by {pacer.scale(started):.6f}")
    # Inputs live for the whole run; keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    try:
        return _measure(name, specs, verify, seed, seconds, traced, pacer, setup_s, root)
    finally:
        gc.unfreeze()


def _measure(name, specs, verify, seed, seconds, traced, pacer, setup_s, root) -> int:
    print(f"# workload {name}: {len(specs)} graphs, seed {seed} (selects the compile order,"
          f" the spot-check seed{' and the six-vertex draw' if name == 'gflow-search' else ''})")

    # Passes until the time is spent: another one starts while it would end
    # less than half a pass past the deadline.  In trace mode untraced and
    # traced passes alternate.
    plain = [Pass(specs, verify, seed, pacer, keep=True)]
    problems = _expectations(specs, plain[0])
    if problems:  # a wrong output ends the run
        return _fail(problems, len(specs))
    spanned: list[Pass] = []
    tracer = None
    begin = time.perf_counter() - plain[0].wall
    while True:
        if traced:
            tracer = staged.Tracer()
            with tracer.patched():
                spanned.append(Pass(specs, verify, seed, pacer, tracer))
        cycle = plain[-1].wall + (spanned[-1].wall if traced else 0.0)
        if time.perf_counter() - begin + cycle / 2 > seconds:
            break
        plain.append(Pass(specs, verify, seed, pacer))

    attempted = len(specs) * (len(plain) + len(spanned))
    counts = plain[0].counts
    if any(p.counts != counts for p in plain[1:] + spanned):
        return _fail(["a pass did not reproduce the first pass's outputs and counts"], attempted)

    print(f"# counts {json.dumps(counts, sort_keys=True)}")
    print(f"# output sha256 {counts['sha256']}  (over every emitted circuit and trace text)")
    print(f"# passes: {len(plain)} untraced, {len(spanned)} traced")
    if traced:
        metrics, units = _per_layer(plain, spanned, counts), PER_LAYER
        _write_spans(root / ".perfbench" / f"spans-{name}.tsv", tracer)
    else:
        metrics, units = _end_to_end(plain, counts, setup_s), END_TO_END
        print(f"# compile_s {statistics.median(p.wall for p in plain):.6f} s wall, scaled by"
              f" {statistics.median(p.scale for p in plain):.6f} (pass medians)")
        for key, value in _latency(plain, counts).items():
            print(f"{key:<32} {value:.6g} {LATENCY[key]}")
    for key, unit in units.items():
        print(f"{key:<32} {metrics[key]:.6g} {unit}")
    print(_result(True, attempted, 0, metrics, units))
    return 0


def _fail(problems: list[str], attempted: int) -> int:
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(_result(False, attempted, len(problems), {}, {}))
    return 1


def _end_to_end(plain: list[Pass], counts: dict, setup_s: float) -> dict:
    return {
        "compile_s": statistics.median(p.seconds for p in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": counts["exit_codes"].get("0", 0) / counts["compiles"],
        "compact_gates": counts["compact_gates"],
    }


def _latency(plain: list[Pass], counts: dict) -> dict:
    # A graph's latency is its median over passes: pooling raw samples made
    # the tail the machine's scheduling hiccups rather than the compiler.
    latencies = [statistics.median(x) for x in zip(*([t * p.scale for t in p.latencies] for p in plain))]
    tail, pct = _tail(latencies)
    print(f"# compile_ms_tail is p{pct:.2f} over {len(latencies)} graphs ({len(plain)} passes each)")
    return {
        "compile_ms_p50": 1000 * statistics.median(latencies),
        "compile_ms_tail": 1000 * tail,
        "fail_frac": 1 - counts["exit_codes"].get("0", 0) / counts["compiles"],
    }


def _per_layer(plain: list[Pass], spanned: list[Pass], counts: dict) -> dict:
    metrics = {k: statistics.median(p.layers[k] for p in spanned) for k in PER_LAYER}
    untraced_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in spanned)
    metrics.update({
        "extend.gates": counts["extend.gates"],
        "rewrite.steps": counts["rewrite.steps"],
        **{f"rewrite.rule.{r}": counts["rules"][r] for r in staged.RULES},
        "rewrite.exhausted_attempts": counts["rewrite.exhausted_attempts"],
        "simulate.dense_mib_max": counts["simulate.dense_bytes_max"] / 2**20,
        "simulate.dev_max": max(r.deviation for r in plain[0].records.values()) / staged.TOL,
        "trace.overhead_s": traced_s - untraced_s,
    })
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"# untraced pass {untraced_s:.6f} s wall, traced {traced_s:.6f} s;"
          f" span self-times sum to {layers:.6f} s")
    return metrics
