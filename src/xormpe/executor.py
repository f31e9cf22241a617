"""Tree-guided solving: valuation, maximizer reconstruction, and counting.

A solve walks a project-join tree bottom-up. Each leaf turns into the clause's
indicator diagram; each internal node joins its children's results and then,
variable by variable (ascending index), joins the variable's weight function,
records the derivative sign of the weighted partial product, and projects the
variable out. The root's valuation is a constant holding the maximum; the
recorded signs are popped in reverse to rebuild a maximizing assignment. The
sign must be taken after the weight joins in: it has to cover every remaining
factor that depends on the variable, or unconstrained variables would tie and
lose their weight preference.

`verify_checkpoints` reruns a solve with an observer that maintains the
set of eliminated variables and the multiset of active functions, checking at
every step - by exhaustive enumeration, so only small instances - that the
active product equals the projected master function and that each recorded
sign extends maximizers correctly.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagram import DerivativeSign, DiagramManager, Function
from .errors import GuardError, InternalError
from .formula import Assignment, Formula, WeightFunction
from .oracle import brute_solve
from .planner import ProjectJoinTree

MONOLITHIC_LIMIT = 20
VERIFY_LIMIT = 16


@dataclass
class SolveStats:
    width: int = 0
    peak_nodes: int = 0
    exec_seconds: float = 0.0
    largest_dot: str | None = None


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
    order. Pass an instance as `observer=` to `solve` or `valuate`, one
    instance per solve.

    The base class tracks, in `built`, the largest intermediate diagram,
    which `solve` reports as `SolveStats.peak_nodes` (and renders for
    `want_dot`); every other event is a no-op. Subclasses override the events
    they need; one that overrides `built` calls `super().built` to keep the
    statistics.
    """

    def __init__(self) -> None:
        self.manager: DiagramManager | None = None
        self.peak = 0
        self.largest: Function | None = None

    def setup(self, manager: DiagramManager) -> None:
        """Before the first node, with the manager the valuation uses."""
        self.manager = manager

    def built(self, node: int, f: Function) -> None:
        """Every intermediate diagram: a leaf, a child join, a projection."""
        size = self.manager.size(f)
        if size > self.peak:
            self.peak = size
            self.largest = f

    def enter(self, node: int) -> None:
        """Before a node is valuated; its children already are."""

    def child_joined(self, node: int, h: Function, previous: Function,
                     joined: Function) -> None:
        """The child's valuation h was joined into previous."""

    def joins_done(self, node: int, f: Function) -> None:
        """Every child is joined in; f is their product."""

    def sign_pushed(self, node: int, var: int, sign: DerivativeSign) -> None:
        """The sign of var was recorded, before var is projected out."""

    def projected(self, node: int, var: int, previous: Function,
                  weight_func: Function, result: Function) -> None:
        """var's weight was joined into previous and var projected out."""

    def exit(self, node: int, f: Function) -> None:
        """f is the node's valuation."""

    def after_valuate(self, maximum: float) -> None:
        """`solve` only: the root's value, before the signs are popped."""

    def popped(self, var: int, assignment: Assignment) -> None:
        """`solve` only: var was assigned from its sign."""


_recursion_lock = threading.Lock()


def _allow_recursion(width: int) -> None:
    """The tree is walked in a loop, but the diagram kernels recurse one frame
    per variable level, so a valuation needs about `width` frames above its
    caller's. Raise the interpreter's limit when that may not fit, and never
    lower it: a solve in another thread may rely on the higher value."""
    needed = 2 * width + 200
    with _recursion_lock:
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)


def valuate(
    manager: DiagramManager,
    formula: Formula,
    tree: ProjectJoinTree,
    weights: WeightFunction,
    node: int | None = None,
    stack: list[DerivativeSign] | None = None,
    project: Callable[[Function, int], Function] | None = None,
    observer: Observer | None = None,
) -> Function:
    """Valuation of one tree node (the root by default), children before
    parents in one pass over its subtree. Derivative signs are pushed onto
    `stack`, one per projected variable, before each projection. `project`
    eliminates one variable: `manager.exists_project` by default,
    `manager.add_project` to count. `observer` receives every step."""
    _allow_recursion(tree.width())
    return _valuate(manager, formula, tree, weights, node, stack,
                    project or manager.exists_project, observer)


def _valuate(
    manager: DiagramManager,
    formula: Formula,
    tree: ProjectJoinTree,
    weights: WeightFunction,
    node: int | None,
    stack: list[DerivativeSign] | None,
    project: Callable[[Function, int], Function],
    observer: Observer | None,
) -> Function:
    """`valuate` for a caller that has already sized the recursion limit."""
    if observer:
        observer.setup(manager)
    values: dict[int, Function] = {}
    for node_id in tree.post_order(node):
        if observer:
            observer.enter(node_id)
        pjt_node = tree.nodes[node_id]
        if pjt_node.is_leaf:
            f = manager.from_clause(formula.clauses[pjt_node.clause_index])
            if observer:
                observer.built(node_id, f)
        else:
            # only a clause-free formula has a childless node: its root
            f = values.pop(pjt_node.children[0]) if pjt_node.children else manager.one()
            for child in pjt_node.children[1:]:
                h = values.pop(child)
                previous, f = f, manager.join(f, h)
                if observer:
                    observer.built(node_id, f)
                    observer.child_joined(node_id, h, previous, f)
            if observer:
                observer.joins_done(node_id, f)
            for x in sorted(pjt_node.pi):
                weight_func = manager.literal_weight(x, *weights.pair(x))
                # the weight joins in before the sign is recorded: the sign must
                # cover every remaining factor that depends on x, and at this
                # point that is exactly the partial product times the weight
                weighted = manager.join(f, weight_func)
                if stack is not None:
                    sign = manager.derivative_sign(weighted, x)
                    stack.append(sign)
                    if observer:
                        observer.sign_pushed(node_id, x, sign)
                previous, f = f, project(weighted, x)
                if observer:
                    observer.built(node_id, f)
                    observer.projected(node_id, x, previous, weight_func, f)
        if observer:
            observer.exit(node_id, f)
        values[node_id] = f
    return f


def solve(
    formula: Formula,
    weights: WeightFunction,
    tree: ProjectJoinTree,
    mode: str = "linear",
    want_dot: bool = False,
    observer: Observer | None = None,
) -> SolveResult:
    """Maximum of the weighted formula plus one maximizing assignment.

    mode "linear" works on raw weights; mode "log10" stores log10 weights in
    the terminals (the maximum comes back as a log10 value), which keeps huge
    weight products representable; a linear maximum out of double range
    raises GuardError. `observer` receives every step.
    """
    started = time.perf_counter()
    manager = _manager(formula, mode)
    if observer is None:
        observer = Observer()
    stack: list[DerivativeSign] = []
    width = tree.width()
    _allow_recursion(width)
    root = _valuate(manager, formula, tree, weights, None, stack,
                    manager.exists_project, observer)
    maximum = _root_value(root)

    if len(stack) != formula.var_count:
        raise InternalError(
            f"sign stack holds {len(stack)} entries for {formula.var_count} variables")
    if len({sign.var for sign in stack}) != len(stack):
        raise InternalError("sign stack repeats a variable")
    observer.after_valuate(maximum)

    maximizer: dict[int, bool] = {}
    while stack:
        sign = stack.pop()
        if sign.var in maximizer:
            raise InternalError(f"variable {sign.var} assigned twice")
        try:
            maximizer[sign.var] = sign.choose(maximizer)
        except KeyError as exc:
            raise InternalError(f"sign not ready: {exc}") from exc
        observer.popped(sign.var, maximizer)

    # terminals are unique per value, so only a zero maximum is the zero node
    no_model = root == manager.zero()
    stats = SolveStats(
        width=width,
        peak_nodes=observer.peak,
        exec_seconds=time.perf_counter() - started,
    )
    if want_dot and observer.largest is not None:
        stats.largest_dot = manager.to_dot(observer.largest)
    return SolveResult(maximum, maximizer, no_model, mode, stats)


def count(formula: Formula, weights: WeightFunction, tree: ProjectJoinTree) -> float:
    """Weighted model count via the same tree, with additive projection in
    place of existential. Linear domain only; a count out of double range
    raises GuardError."""
    manager = _manager(formula, "linear")
    return _root_value(valuate(manager, formula, tree, weights,
                               project=manager.add_project))


def _manager(formula: Formula, mode: str) -> DiagramManager:
    """A manager over the formula's variables in the value domain of mode."""
    if mode not in ("linear", "log10"):
        raise ValueError(f"unknown mode {mode!r}")
    return DiagramManager(list(formula.variables), log_mode=(mode == "log10"))


def _root_value(root: Function) -> float:
    """The constant at the root. A linear-domain value that left double range
    (inf, or NaN from inf times 0) is no answer, so it raises GuardError."""
    if not root.is_constant():
        raise InternalError("root valuation is not constant")
    value = root.constant_value()
    if not root.manager.log_mode and not math.isfinite(value):
        raise GuardError(
            f"linear-mode value {value} is out of double range; "
            "use --mode log10, which keeps weight products finite")
    return value


def solve_monolithic(
    formula: Formula,
    weights: WeightFunction,
    mode: str = "linear",
) -> SolveResult:
    """Reference path: join every clause and weight into one diagram, then
    eliminate variables highest index first, keeping each intermediate so the
    maximizer can be rebuilt lowest index first."""
    started = time.perf_counter()
    manager = _manager(formula, mode)
    n = formula.var_count
    if n > MONOLITHIC_LIMIT:
        raise GuardError(f"monolithic limit exceeded: {n} > {MONOLITHIC_LIMIT} variables")

    factors = itertools.chain(
        map(manager.from_clause, formula.clauses),
        (manager.literal_weight(var, *weights.pair(var)) for var in formula.variables))
    f = next(factors, None)
    peak = 0 if f is None else manager.size(f)
    for g in factors:
        f = manager.join(f, g)
        peak = max(peak, manager.size(f))

    chain: dict[int, Function] = {n: manager.one() if f is None else f}
    for var in range(n, 0, -1):
        f = manager.exists_project(f, var)
        peak = max(peak, manager.size(f))
        chain[var - 1] = f
    maximum = _root_value(chain[0])

    maximizer: dict[int, bool] = {}
    for var in range(1, n + 1):
        sign = manager.derivative_sign(chain[var], var)
        maximizer[var] = sign.choose(maximizer)

    no_model = chain[0] == manager.zero()
    stats = SolveStats(width=n, peak_nodes=peak,
                       exec_seconds=time.perf_counter() - started)
    return SolveResult(maximum, maximizer, no_model, mode, stats)


# --------------------------------------------------------------- verification


@dataclass
class CheckpointFailure:
    checkpoint: str
    message: str
    node: int | None = None
    variable: int | None = None


class _CheckFailed(Exception):
    def __init__(self, failure: CheckpointFailure):
        super().__init__(failure.message)
        self.failure = failure


class _Verifier(Observer):
    """Instrumentation mirroring the annotated execution: E is the eliminated
    set, A the multiset of active functions (by node id). All checks compare
    against the oracle's dense enumeration of the weighted formula."""

    def __init__(self, formula: Formula, weights: WeightFunction, rtol: float = 1e-9):
        super().__init__()
        self.formula = formula
        self.weights = weights
        self.rtol = rtol
        self.n = formula.var_count
        self.size = 1 << self.n
        indices = np.arange(self.size, dtype=np.int64)
        self.bits = {
            var: ((indices >> (var - 1)) & 1) == 1
            for var in formula.variables
        }
        self.master = brute_solve(formula, weights, limit=self.n).values
        self.eliminated: set[int] = set()
        self.active: dict[int, int] = {}  # node id -> multiplicity
        self._grids: dict[int, np.ndarray] = {}

    # -- bookkeeping ------------------------------------------------------

    def setup(self, manager: DiagramManager) -> None:
        if manager.log_mode:
            raise ValueError("verification runs in the linear domain only")
        super().setup(manager)
        for clause in self.formula.clauses:
            self._insert(manager.from_clause(clause))
        for var in self.formula.variables:
            self._insert(manager.literal_weight(var, *self.weights.pair(var)))

    def _insert(self, f: Function) -> None:
        if f.node != self.manager._one:  # the unit is no factor of the product
            self.active[f.node] = self.active.get(f.node, 0) + 1

    def _remove(self, f: Function) -> None:
        if f.node == self.manager._one:
            return
        count = self.active.get(f.node, 0)
        if count <= 0:
            raise InternalError(f"active multiset misses node {f.node}")
        if count == 1:
            del self.active[f.node]
        else:
            self.active[f.node] = count - 1

    def _grid(self, node: int) -> np.ndarray:
        cached = self._grids.get(node)
        if cached is not None:
            return cached
        manager = self.manager
        if manager.is_terminal(node):
            grid = np.full(self.size, manager._value[node], dtype=np.float64)
        else:
            var = manager._order[manager._level[node]]
            grid = np.where(self.bits[var],
                            self._grid(manager._high[node]),
                            self._grid(manager._low[node]))
        self._grids[node] = grid
        return grid

    def _active_product(self) -> np.ndarray:
        product = np.ones(self.size, dtype=np.float64)
        for node, multiplicity in self.active.items():
            grid = self._grid(node)
            for _ in range(multiplicity):
                product = product * grid
        return product

    def _reduce_max(self, grid: np.ndarray, variables) -> np.ndarray:
        shaped = grid.reshape((2,) * self.n) if self.n else grid
        for var in variables:
            axis = self.n - var
            shaped = np.broadcast_to(
                shaped.max(axis=axis, keepdims=True), (2,) * self.n)
        return np.asarray(shaped).reshape(-1)

    def _close(self, a: np.ndarray, b: np.ndarray) -> bool:
        return np.allclose(a, b, rtol=self.rtol, atol=0.0)

    def _check_active(self, checkpoint: str, node: int | None, variable: int | None = None):
        expected = self._reduce_max(self.master, self.eliminated)
        got = self._active_product()
        if not self._close(got, expected):
            raise _CheckFailed(CheckpointFailure(
                checkpoint,
                f"active product deviates from the projected master at node {node}",
                node=node, variable=variable))

    # -- events from the executor ------------------------------------------

    def enter(self, node: int) -> None:
        self._check_active("pre-condition", node)

    def child_joined(self, node: int, h: Function, previous: Function, joined: Function) -> None:
        self._remove(h)
        self._remove(previous)
        self._insert(joined)

    def joins_done(self, node: int, f: Function) -> None:
        self._check_active("join-condition", node)

    def sign_pushed(self, node: int, var: int, sign: DerivativeSign) -> None:
        # if t maximizes the (var + eliminated)-projection, t extended by the
        # recorded sign must maximize the eliminated-projection
        c_after = self._reduce_max(self.master, self.eliminated | {var})
        c_before = self._reduce_max(self.master, self.eliminated)
        overall = c_after.max()
        maximizers = c_after == overall
        # hi and lo: every point with var (bit var-1 of the index) set to 1, 0
        f = self._grid(sign.function.node)
        index = np.arange(self.size)
        hi, lo = index | (1 << (var - 1)), index & ~(1 << (var - 1))
        chosen = np.where(f[hi] >= f[lo], c_before[hi], c_before[lo])
        if not np.allclose(chosen[maximizers], overall, rtol=self.rtol, atol=0.0):
            raise _CheckFailed(CheckpointFailure(
                "maximizer-push",
                f"sign for variable {var} fails to extend maximizers at node {node}",
                node=node, variable=var))

    def projected(self, node: int, var: int, previous: Function,
                  weight_func: Function, result: Function) -> None:
        self._remove(previous)
        self._remove(weight_func)
        self._insert(result)
        self.eliminated.add(var)
        self._check_active("project-condition", node, variable=var)

    def exit(self, node: int, f: Function) -> None:
        self._check_active("post-condition", node)

    def after_valuate(self, maximum: float) -> None:
        if self.eliminated != set(self.formula.variables):
            raise _CheckFailed(CheckpointFailure(
                "maximizer-const", "not all variables were eliminated"))
        overall = self.master.max() if self.size else self.master
        if not math.isclose(maximum, float(overall), rel_tol=self.rtol, abs_tol=0.0):
            raise _CheckFailed(CheckpointFailure(
                "maximizer-const",
                f"root value {maximum} deviates from enumerated maximum {overall}"))

    def popped(self, var: int, assignment: Assignment) -> None:
        self.eliminated.discard(var)
        mask = np.ones(self.size, dtype=bool)
        for v, value in assignment.items():
            mask &= self.bits[v] == value
        reachable = self.master[mask].max()
        overall = self.master.max()
        if not math.isclose(float(reachable), float(overall),
                            rel_tol=self.rtol, abs_tol=0.0):
            raise _CheckFailed(CheckpointFailure(
                "maximizer-pop",
                f"after assigning variable {var}, best completion {reachable} "
                f"deviates from maximum {overall}",
                variable=var))


def verify_checkpoints(
    formula: Formula,
    weights: WeightFunction,
    tree: ProjectJoinTree,
) -> CheckpointFailure | None:
    """Run a linear-mode solve under full instrumentation.

    Returns None when every checkpoint holds, else the first failure. Only
    feasible for small variable counts (exhaustive enumeration inside)."""
    if formula.var_count > VERIFY_LIMIT:
        raise GuardError(
            f"verification limit exceeded: {formula.var_count} > {VERIFY_LIMIT} variables")
    verifier = _Verifier(formula, weights)
    try:
        solve(formula, weights, tree, mode="linear", observer=verifier)
    except _CheckFailed as failed:
        return failed.failure
    return None
