"""Exact maximum-weight assignment (Boolean MPE) and weighted model counting
for XOR-CNF formulas.

The pipeline has two phases: plan a project-join tree over the clauses, then
valuate it with algebraic decision diagrams, recording derivative signs so a
maximizing assignment can be reconstructed afterwards.
"""

from .benchgen import ChainSpec, gen_chain, gen_random
from .diagram import DerivativeSign, DiagramManager, Function
from .errors import GuardError, InternalError
from .executor import Observer, SolveResult, SolveStats, count, solve, valuate
from .formula import (
    Assignment,
    Clause,
    ClauseKind,
    Formula,
    Literal,
    ParseError,
    WeightFunction,
    evaluate_clause,
    evaluate_formula,
    evaluate_weight,
    format_formula,
    parse_formula,
)
from .planner import (
    Heuristic,
    PjtNode,
    ProjectJoinTree,
    Violation,
    heuristic_order,
    plan,
    validate,
)
from .wcnf import ExportError, WcnfExport, export_wcnf, format_wcnf

__version__ = "0.1.0"


def __getattr__(name: str):
    """The enumeration oracle loads numpy, so its names load on first use."""
    if name not in ("CheckpointFailure", "OracleResult", "brute_solve", "verify_checkpoints"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


__all__ = [
    "Assignment",
    "ChainSpec",
    "CheckpointFailure",
    "Clause",
    "ClauseKind",
    "DerivativeSign",
    "DiagramManager",
    "ExportError",
    "Formula",
    "Function",
    "GuardError",
    "Heuristic",
    "InternalError",
    "Literal",
    "Observer",
    "OracleResult",
    "ParseError",
    "PjtNode",
    "ProjectJoinTree",
    "SolveResult",
    "SolveStats",
    "Violation",
    "WcnfExport",
    "WeightFunction",
    "brute_solve",
    "count",
    "evaluate_clause",
    "evaluate_formula",
    "evaluate_weight",
    "export_wcnf",
    "format_formula",
    "format_wcnf",
    "gen_chain",
    "gen_random",
    "heuristic_order",
    "parse_formula",
    "plan",
    "solve",
    "validate",
    "valuate",
    "verify_checkpoints",
]
