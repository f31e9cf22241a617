"""Tree-guided solving: valuation, maximizer reconstruction, and counting.

A solve walks a project-join tree bottom-up. Each leaf turns into the clause's
indicator diagram; each internal node joins its children's results and then,
variable by variable (ascending index), projects the variable out under its
literal weights in one pass, so the weighted product is never built. A node
that projects anything joins all its children but the last, which is fused
into its first projection: that pass walks both operands, so the product with
the last child is never built either. Each projection records the variable's
derivative sign from the factors it eliminates from. The root's valuation is a
constant holding the maximum; the recorded signs are popped in reverse to
rebuild a maximizing assignment, which `solve` certifies against the formula
and the weights before returning it. The sign carries the weights and the fused
factor: it has to cover every remaining factor that depends on the variable,
or unconstrained variables would tie and lose their weight preference.

An `Observer` gets one event per change of state: a join, a projection (with
its fused child and recorded sign, if any) or a node's valuation.
`oracle.verify_checkpoints` checks each event through one, at its tree node.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .diagram import DerivativeSign, DiagramManager, Function
from .errors import GuardError, InternalError
from .formula import Assignment, Formula, WeightFunction, evaluate_formula
from .planner import PjtNode, ProjectJoinTree, Violation, _checked_order

_RTOL = 1e-9  # relative tolerance of the certificate, and of the checkpoints in oracle.py


@dataclass
class SolveStats:
    """`width` is the tree's. `peak_nodes` is the number of diagram nodes the
    solve allocated, the terminal included; the manager frees no node during
    a solve, so that final count is also its peak."""

    width: int = 0
    peak_nodes: int = 0
    exec_seconds: float = 0.0


@dataclass
class SolveResult:
    maximum: float
    maximizer: dict[int, bool]
    no_model: bool
    mode: str
    stats: SolveStats

    def maximizer_literals(self) -> list[int]:
        return [var if self.maximizer[var] else -var for var in sorted(self.maximizer)]


class Observer:
    """Hook into a valuation: the executor calls these methods in execution
    order, one event per change of its state, so a node's own work runs from
    the previous event to its `exit`. Pass an instance as `observer=` to
    `solve` or `valuate`, one instance per solve. Every event is a no-op here,
    and the base class keeps nothing but the manager; subclasses override the
    events they need."""

    manager: DiagramManager  # from setup on

    def setup(self, manager: DiagramManager) -> None:
        """Before the first node, with the manager the valuation uses."""
        self.manager = manager

    def child_joined(self, node: int, h: Function, previous: Function,
                     joined: Function) -> None:
        """The child's valuation h was joined into previous."""

    def projected(self, node: int, var: int, h: Function | None, previous: Function,
                  result: Function, sign: DerivativeSign | None) -> None:
        """var was projected out of previous, times the child's valuation h
        when one was fused in (the product is never built), under var's
        literal weights. sign is the derivative sign the projection recorded,
        or None when no signs are kept (`count`, or `valuate` without `stack=`)."""

    def exit(self, node: int, f: Function) -> None:
        """f is the node's valuation."""

    def after_valuate(self, maximum: float) -> None:
        """`solve` only: the root's value, before the signs are popped."""

    def popped(self, var: int, assignment: Assignment) -> None:
        """`solve` only: var was assigned from its sign."""


def _too_deep(node_id: int, node: PjtNode) -> GuardError:
    """The diagram kernels recurse about one frame per variable of a tree node,
    and a solve leaves the recursion limit as its caller set it."""
    return GuardError(f"tree node {node_id} over {len(node.vars) + len(node.pi)} variables "
                      f"outruns the recursion limit {sys.getrecursionlimit()}; "
                      "raise it with sys.setrecursionlimit")


def valuate(
    manager: DiagramManager,
    formula: Formula,
    tree: ProjectJoinTree,
    weights: WeightFunction,
    stack: list[DerivativeSign] | None = None,
    project: Callable[[Function, int, float, float, Function | None,
                       list[DerivativeSign] | None], Function] | None = None,
    observer: Observer | None = None,
) -> Function:
    """Valuation of the tree's root, children before parents in one pass
    over the tree. Derivative signs are pushed onto `stack`, one per
    projected variable, by the projections. `project(f, var, w_neg, w_pos,
    h, signs)` eliminates one variable from f, or from f h, under its
    linear-domain weights: `manager.exists_project` by default,
    `manager.add_project` to count. `observer` receives every step.

    Leaf i is clause i. Before any work, a tree `validate` refuses raises
    ValueError with its message: a `MalformedTree` for a bad shape. A join
    or projection that outruns the recursion limit raises GuardError."""
    order = _checked_order(tree, formula)
    if isinstance(order, Violation):
        raise ValueError(order.message)
    if project is None:
        project = manager.exists_project
    if observer is None:
        observer = Observer()
    observer.setup(manager)
    values: dict[int, Function] = {}
    for node_id in order:
        if node_id < tree.clause_count:
            f = manager.from_clause(formula.clauses[node_id])
        else:
            pjt_node = tree.nodes[node_id]
            # only the root may be childless (post_order), and only with no clauses (validate)
            children = pjt_node.children
            f = values.pop(children[0]) if children else manager.one()
            # the last child is fused into the first projection, if any
            fused = values.pop(children[-1]) if len(children) > 1 and pjt_node.pi else None
            for child in children[1:-1] if fused is not None else children[1:]:
                h = values.pop(child)
                try:
                    previous, f = f, manager.join(f, h)
                except RecursionError:
                    raise _too_deep(node_id, pjt_node) from None
                observer.child_joined(node_id, h, previous, f)
            for x in sorted(pjt_node.pi):
                # the sign covers every remaining factor depending on x: f, h and x's weights
                h, fused = fused, None
                try:
                    previous, f = f, project(f, x, *weights.pair(x), h, stack)
                except RecursionError:
                    raise _too_deep(node_id, pjt_node) from None
                observer.projected(node_id, x, h, previous, f, stack[-1] if stack else None)
        observer.exit(node_id, f)
        values[node_id] = f
    return f


def solve(
    formula: Formula,
    weights: WeightFunction,
    tree: ProjectJoinTree,
    mode: str = "linear",
    observer: Observer | None = None,
) -> SolveResult:
    """Maximum of the weighted formula plus one maximizing assignment.

    mode "linear" works on raw weights; mode "log10" stores log10 values in
    the edge offsets (the maximum comes back as a log10 value), which keeps
    huge weight products representable; a linear offset out of double range
    raises GuardError. A nonzero maximum is certified before it is returned
    (see `_certify`). `observer` receives every step.
    """
    started = time.perf_counter()
    manager = _manager(mode)
    if observer is None:
        observer = Observer()
    stack: list[DerivativeSign] = []
    root = valuate(manager, formula, tree, weights, stack=stack, observer=observer)
    maximum = _root_value(root)
    observer.after_valuate(maximum)

    # valuate validated the tree, so it projects each variable once: one sign each
    maximizer: dict[int, bool] = {}
    while stack:
        sign = stack.pop()
        try:
            maximizer[sign.var] = sign.choose(maximizer)
        except KeyError as exc:
            raise InternalError(f"sign not ready: {exc}") from exc
        observer.popped(sign.var, maximizer)

    # only the zero function carries the zero offset
    no_model = root == manager.zero()
    if not no_model:
        _certify(formula, weights, mode, maximum, maximizer)
    stats = SolveStats(
        width=tree.width(),
        peak_nodes=manager.node_count(),
        exec_seconds=time.perf_counter() - started,
    )
    return SolveResult(maximum, maximizer, no_model, mode, stats)


def _certify(formula: Formula, weights: WeightFunction, mode: str, maximum: float,
             maximizer: dict[int, bool]) -> None:
    """A nonzero maximum's certificate, else InternalError (the solve is
    wrong): the maximizer satisfies every clause, and its weight, an fsum of
    log10 weights in both modes, is the maximum to `_RTOL`, compared on
    logarithms (a log10 maximum near 0.0 gets an absolute floor of `_RTOL`)."""
    if not evaluate_formula(formula, maximizer):
        raise InternalError("the maximizer falsifies a clause of a satisfiable formula")
    chosen = [weights.weight(var, maximizer[var]) for var in formula.variables]
    weight = -math.inf if 0.0 in chosen else math.fsum(map(math.log10, chosen))
    if mode == "log10":
        certified = math.isclose(weight, maximum, rel_tol=_RTOL, abs_tol=_RTOL)
    else:  # relative _RTOL on logarithms; log1p, as 1 + _RTOL rounds up
        certified = abs(weight - math.log10(maximum)) <= math.log1p(_RTOL) / math.log(10)
    if not certified:
        raise InternalError(f"the maximizer weighs 10^{weight!r}, not the maximum {maximum!r}")


def count(formula: Formula, weights: WeightFunction, tree: ProjectJoinTree) -> float:
    """Weighted model count via the same tree, with additive projection in
    place of existential. Linear domain only; a count out of double range
    raises GuardError."""
    manager = _manager("linear")
    return _root_value(valuate(manager, formula, tree, weights,
                               project=manager.add_project))


def _manager(mode: str) -> DiagramManager:
    """A manager in the value domain of mode."""
    if mode not in ("linear", "log10"):
        raise ValueError(f"unknown mode {mode!r}")
    return DiagramManager(log_mode=(mode == "log10"))


def _root_value(root: Function) -> float:
    """The constant at the root. A linear-domain value that left double range
    (inf, or NaN from inf times 0) is no answer, so it raises GuardError."""
    if not root.is_constant():
        raise InternalError("root valuation is not constant")
    value = root.evaluate({})
    if not root.manager.log_mode and not math.isfinite(value):
        raise GuardError(
            f"linear-mode value {value} is out of double range; "
            "use --mode log10, which keeps weight products finite")
    return value
