"""The benchmark's tracer reaches into the program by name: it wraps the
`DiagramManager` methods of `perfbench/tracing.py`'s `DIAGRAM_OPS` through
`getattr` and reads `_terminals`, `_cache` and `node_count()` from each
manager. A rename in the program must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import xormpe
import xormpe.cli  # the tracer wraps cli.main too
from xormpe.benchgen import ChainSpec, gen_chain
from xormpe.diagram import DiagramManager
from xormpe.planner import plan

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_diagram_operation_resolves():
    for method in load_tracing().DIAGRAM_OPS:
        assert callable(getattr(DiagramManager, method)), method


def test_a_traced_solve_reads_the_manager_counts():
    tracing = load_tracing()
    tracer = tracing.Tracer(xormpe)
    formula, weights = gen_chain(ChainSpec(12, 3, 1))
    tree = plan(formula, list(formula.variables))
    tracer.install()
    try:
        result = xormpe.executor.solve(formula, weights, tree, mode="log10")
    finally:
        tracer.uninstall()
    assert xormpe.executor.DiagramManager is DiagramManager
    counts = tracer.counts
    assert counts["diagram.allocated_nodes"] == result.stats.peak_nodes > 1
    assert counts["diagram.terminals"] == 1
    assert counts["diagram.op_cache_entries"] >= 0
    assert tracer.calls["diagram.max_project"] == formula.var_count
