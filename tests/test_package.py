"""The package's public names: each module lists its own, and the package
re-exports those lists and nothing else."""

import importlib
import inspect
import re

import oneway

MODULES = ["angles", "graphs", "determinism", "circuits", "extend", "simulate", "rewrite", "pipeline"]

PUBLIC = {
    "Angle", "Circuit", "CompileError", "Compiled", "CorrectionStructure", "FlowSimplifyError", "Gate",
    "GflowSearchExhausted", "Isometry", "OpenGraph", "ProjectionError", "RewriteError", "RewriteStep",
    "SimplificationTrace", "StateVector", "Wire", "WireCapError", "apply_cx_commute",
    "apply_cz_commute", "apply_cz_to_cx", "apply_jgate", "apply_peephole", "basis_column_order",
    "build_extended", "circuit_isometry", "compile_pattern", "correction_block", "digest", "emit_graph",
    "emit_text", "find_flow", "find_gflow", "j_matrix", "max_deviation",
    "odd_neighborhood", "parse_graph", "parse_graph_with_sets", "parse_text", "replay", "run_pattern",
    "simplify_flow", "simplify_gflow", "slice_circuit", "trace_text", "validate_gflow",
}


def test_the_package_exports_its_modules_lists_and_nothing_else():
    modules = [importlib.import_module(f"oneway.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)) == 45  # no two modules export one name
    assert oneway.__all__ == names
    assert set(names) == PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(oneway, name) is getattr(module, name)
    # each name is written once, in its module: the package names none
    source = inspect.getsource(oneway)
    assert [name for name in sorted(PUBLIC) if re.search(rf"\b{name}\b", source)] == []
