"""Every check that a circuit does what it should, on the dense oracle.

``simulate`` computes states and isometries; this module decides what to
compare, how the columns line up and how close is close enough.  Each of
its callers calls one function:

- ``check_compile``, `compile_pattern`'s proof: the extended and the
  compact circuit agree once the compact circuit's input columns are lined
  up through the trace's jgate chains, and so do two seeded random outcome
  strings of the pattern itself;
- ``compare_circuits``, `oneway verify`: two circuit files, each one's
  columns in its own input-wire order;
- ``check_steps``, the rewrite engine's per-step checks: each step of an
  accepted search path taken on at most ``_CHECKED_WIDTH`` wires, within
  ``_STEP_TOL`` whatever the compile's tolerance.

The oracle is called through its module, ``simulate.circuit_isometry`` and
so on, looked up at call time, so a wrapper set on ``oneway.simulate`` sees
every call.  This module imports no other part of the compiler that calls
it: the rewrite engine imports it.
"""

from __future__ import annotations

import numpy as np

from . import simulate
from .circuits import Circuit
from .determinism import CorrectionStructure

__all__ = ["check_compile", "check_steps", "compare_circuits"]

_CHECKED_WIDTH = 12  # the widest circuit the per-step checks compare
_STEP_TOL = 1e-9  # the per-step checks' deviation bound


def follow_jgates(steps, wires: list[int]) -> list[int]:
    """Where ``wires`` end up after ``steps``: a jgate moves wire i onto j."""
    for st in steps:
        if st.rule == "jgate":
            j = st.produced[0].wires[0]
            wires = [j if w == st.wire_removed else w for w in wires]
    return wires


def _isometries(a: Circuit, b: Circuit, cap: int) -> tuple[simulate.Isometry, simulate.Isometry]:
    """The isometries of ``a`` and ``b``.  A circuit wider than ``cap``, a
    collapsed column or two shapes that differ raise ValueError."""
    ia, ib = simulate.circuit_isometry(a, cap=cap), simulate.circuit_isometry(b, cap=cap)
    if ia.matrix.shape != ib.matrix.shape:
        raise ValueError(f"shape mismatch: {ia.matrix.shape} vs {ib.matrix.shape}"
                         f" (inputs {len(ia.input_wires)} vs {len(ib.input_wires)},"
                         f" outputs {len(ia.output_wires)} vs {len(ib.output_wires)})")
    return ia, ib


def compare_circuits(a: Circuit, b: Circuit, cap: int) -> float:
    """How far ``b`` is from ``a`` up to global phase, each one's columns in
    its own input-wire order; ValueError, worded for `oneway verify`, when
    the two cannot be compared."""
    ia, ib = _isometries(a, b, cap)
    return simulate.max_deviation(ia.matrix, ib.matrix)


def _spot_check(structure: CorrectionStructure, aligned: np.ndarray, seed: int, cap: int) -> float:
    """Random outcome strings against the measurement-pattern semantics of
    ``structure`` on its graph."""
    graph = structure.graph
    rng = np.random.default_rng(seed)
    order = sorted(graph.measured)
    dim = 2 ** len(graph.inputs)
    worst = 0.0
    for _ in range(2):
        outcomes = {i: int(rng.integers(2)) for i in order}
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        got = simulate.run_pattern(graph, structure, state, outcomes, cap=cap).amplitudes
        worst = max(worst, simulate.max_deviation(got, aligned @ state))
    return worst


def check_compile(structure: CorrectionStructure, extended: Circuit, compact: Circuit, steps,
                  tol: float, max_wires: int, seed: int) -> tuple[float | None, str | None]:
    """Prove that ``compact``, which ``steps`` made from ``extended``, does
    what the pattern of ``structure`` on its graph does: first against
    ``extended``, then on two outcome strings drawn with ``seed``.  Returns
    the worst deviation and None, or None and why the proof fails."""
    if max(len(extended.wires), len(compact.wires)) > max_wires:
        return None, f"cannot verify: circuit exceeds --max-wires {max_wires}"
    a, b = _isometries(extended, compact, max_wires)
    chained = follow_jgates(steps, list(a.input_wires))
    aligned = b.matrix[:, simulate.basis_column_order(b.input_wires, chained)]
    dev = simulate.max_deviation(a.matrix, aligned)
    if dev > tol:
        return None, f"verification failed: deviation {dev:.3e} > {tol:.1e}"
    spot = _spot_check(structure, aligned, seed, max_wires)
    if spot > tol:
        return None, f"outcome spot check failed: deviation {spot:.3e}"
    return max(dev, spot), None


def check_steps(path) -> tuple[int, str | None]:
    """Oracle-check each step along ``path`` taken on a circuit of at most
    ``_CHECKED_WIDTH`` wires.

    ``path`` holds the nodes of an accepted search path, each with its
    ``wires``, ``gates`` and the ``step`` that made it from the node before.
    A checked step compares the isometries of the nodes on either side of
    it, with input columns lined up through the jgate relabelings; no rule
    runs again.  Returns how many steps hold before the first that drifts,
    and why it drifts; every step and None when none does.
    """
    order = [w.id for w in path[0].wires if w.init == "input"]
    before = None
    for k, (node, following) in enumerate(zip(path, path[1:])):
        step = following.step
        order_after = follow_jgates([step], order)
        if len(node.wires) <= _CHECKED_WIDTH:
            if before is None:
                before = simulate.circuit_isometry(node)
            after = simulate.circuit_isometry(following)
            mb = before.matrix[:, simulate.basis_column_order(before.input_wires, order)]
            ma = after.matrix[:, simulate.basis_column_order(after.input_wires, order_after)]
            dev = simulate.max_deviation(mb, ma)
            if dev > _STEP_TOL:
                return k, f"step {step.text()} drifted by {dev:.3g}"
            before = after
        order = order_after
    return len(path) - 1, None
