"""Exhaustive-enumeration reference for maximum-weight assignments and WMC,
and the checkpoint verifier built on it: the one module that loads numpy.

Deliberately plain: every one of the 2^n total assignments is materialized
and evaluated (point i of a dense array sets variable var exactly when bit
var - 1 of i is set). This is the ground truth the solver is tested against.

`verify_checkpoints` reruns a solve with an observer that maintains the
multiset of active functions, checking after every state change - by
exhaustive enumeration, so only small instances - that the active product
equals the projected master function and that each recorded sign extends
maximizers correctly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagram import DerivativeSign, DiagramManager, Function
from .errors import GuardError, InternalError
from .executor import _RTOL, Observer, solve
from .formula import Assignment, ClauseKind, Formula, WeightFunction
from .planner import ProjectJoinTree

ORACLE_LIMIT = 20
VERIFY_LIMIT = 16


@dataclass
class OracleResult:
    maximum: float
    wmc: float
    var_count: int
    values: np.ndarray = field(repr=False)  # weight of each assignment, 0 if unsat

    def _index(self, assignment: Assignment) -> int:
        if len(assignment) != self.var_count:
            raise ValueError("assignment is not total")
        index = 0
        for var, value in assignment.items():
            if value:
                index |= 1 << (var - 1)
        return index

    def is_maximizer(self, assignment: Assignment) -> bool:
        return bool(self.values[self._index(assignment)] == self.maximum)

    @property
    def maximizers(self) -> set[tuple[int, ...]]:
        """All maximizing assignments, as sorted tuples of DIMACS literals."""
        return {tuple(var if (int(index) >> (var - 1)) & 1 else -var
                      for var in range(1, self.var_count + 1))
                for index in np.nonzero(self.values == self.maximum)[0]}

    def witness(self) -> tuple[int, ...]:
        """min(maximizers), found without listing them: each variable in turn
        takes 0 when some maximizer agrees with every choice made so far."""
        agree = self.values == self.maximum
        lits = []
        for var in range(1, self.var_count + 1):
            # the lowest index bit left is var's: even positions have it 0
            bit = 0 if agree[0::2].any() else 1
            agree = agree[bit::2]
            lits.append(var if bit else -var)
        return tuple(lits)


def _bits(n: int) -> list[np.ndarray]:
    """bits[var - 1] holds, at each of the 2^n points, whether var is set."""
    indices = np.arange(1 << n, dtype=np.int64)
    return [(indices >> (var - 1)) & 1 == 1 for var in range(1, n + 1)]


def _check_range(weights: WeightFunction, n: int) -> None:
    """Raise GuardError unless every partial weight product the enumeration
    takes, and their sum, is 0 or normal. Rounding is monotone, so products of
    each variable's larger weight, and of its smaller nonzero one, bound them."""
    high = low = 1.0
    for var in range(1, n + 1):
        nonzero = [w for w in weights.pair(var) if w]
        if not nonzero:
            return  # every product is exactly 0 from here on
        high *= max(nonzero)
        low *= min(nonzero)
        if high == math.inf or low < sys.float_info.min:
            break
    if high * 2.0 ** n == math.inf or low < sys.float_info.min:
        raise GuardError("linear weight products leave double range; "
                         "the oracle cannot enumerate them")


def brute_solve(formula: Formula, weights: WeightFunction) -> OracleResult:
    """Enumerate all assignments; return the maximum, its witnesses, and the
    weighted model count. Raises GuardError beyond ORACLE_LIMIT variables and
    when linear weight products leave double range."""
    n = formula.var_count
    if n > ORACLE_LIMIT:
        raise GuardError(f"oracle limit exceeded: {n} > {ORACLE_LIMIT} variables")
    _check_range(weights, n)
    size = 1 << n
    bits = _bits(n)

    products = np.ones(size, dtype=np.float64)
    for var in range(1, n + 1):
        w_neg, w_pos = weights.pair(var)
        products *= np.where(bits[var - 1], w_pos, w_neg)

    satisfied = np.ones(size, dtype=bool)
    for clause in formula.clauses:
        combine = np.logical_or if clause.kind is ClauseKind.DISJUNCTION else np.logical_xor
        value = np.zeros(size, dtype=bool)
        for lit in clause.literals:
            combine(value, bits[lit.var - 1] == lit.positive, out=value)
        satisfied &= value

    values = products * satisfied
    return OracleResult(
        maximum=float(values.max()),
        wmc=float(values.sum()),
        var_count=n,
        values=values,
    )


# --------------------------------------------------------------- verification


class CheckpointFailure(Exception):
    """The first checkpoint that failed: its name, what went wrong, and the
    tree node and variable it concerns, where it has them."""

    def __init__(self, checkpoint: str, message: str, node: int | None = None,
                 variable: int | None = None):
        super().__init__(message)
        self.checkpoint, self.message = checkpoint, message
        self.node, self.variable = node, variable


class _Verifier(Observer):
    """Instrumentation mirroring the annotated execution: A is the multiset of
    active functions (by edge), `expected` the oracle's dense enumeration
    of the weighted formula maximized over the variables projected so far,
    one axis per projection (a max is exact, so the order is free). The state
    is checked once after setup, each join and each projection; a fused join
    and projection is one change of state, so it is checked once."""

    def __init__(self, formula: Formula, weights: WeightFunction):
        super().__init__()
        self.formula = formula
        self.weights = weights
        self.n = formula.var_count
        self.size = 1 << self.n
        self.bits = _bits(self.n)
        reference = brute_solve(formula, weights)
        self.master, self.maximum = reference.values, reference.maximum
        self.expected = self.master
        self.active: dict[Function, int] = {}  # function (edge) -> multiplicity
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
        self._check_active("pre-condition", None)

    def _insert(self, f: Function) -> None:
        if f != self.manager.one():  # the unit is no factor of the product
            self.active[f] = self.active.get(f, 0) + 1

    def _remove(self, f: Function) -> None:
        if f == self.manager.one():
            return
        count = self.active.get(f, 0)
        if count <= 0:
            raise InternalError(f"active multiset misses {f!r}")
        if count == 1:
            del self.active[f]
        else:
            self.active[f] = count - 1

    def _grid(self, node: int) -> np.ndarray:
        """The node's function at every point (its edges' offsets taken in)."""
        cached = self._grids.get(node)
        if cached is not None:
            return cached
        manager = self.manager
        if manager.is_terminal(node):
            grid = np.ones(self.size, dtype=np.float64)
        else:
            var, low, low_off, high, high_off = manager._nodes[node]
            grid = np.where(self.bits[var - 1], high_off * self._grid(high),
                            low_off * self._grid(low))
        self._grids[node] = grid
        return grid

    def _values(self, f: Function) -> np.ndarray:
        return f.offset * self._grid(f.node)

    def _active_product(self) -> np.ndarray:
        product = np.ones(self.size, dtype=np.float64)
        for f, multiplicity in self.active.items():
            grid = self._values(f)
            for _ in range(multiplicity):
                product = product * grid
        return product

    def _reduce_max(self, grid: np.ndarray, var: int) -> np.ndarray:
        shaped = grid.reshape((2,) * self.n)
        return np.broadcast_to(shaped.max(axis=self.n - var, keepdims=True),
                               shaped.shape).reshape(-1)

    def _check_active(self, checkpoint: str, node: int | None, variable: int | None = None):
        if not np.allclose(self._active_product(), self.expected, rtol=_RTOL, atol=0.0):
            raise CheckpointFailure(
                checkpoint,
                f"active product deviates from the projected master at node {node}",
                node=node, variable=variable)

    # -- events from the executor ------------------------------------------

    def child_joined(self, node: int, h: Function, previous: Function, joined: Function) -> None:
        self._remove(h)
        self._remove(previous)
        self._insert(joined)
        self._check_active("join-condition", node)

    def _check_sign(self, node: int, var: int, sign: DerivativeSign) -> None:
        # if t maximizes the (var + projected)-projection, t extended by the
        # recorded sign must maximize the projected-variables projection;
        # runs before self.expected loses var
        c_before, c_after = self.expected, self._reduce_max(self.expected, var)
        overall = c_after.max()
        maximizers = c_after == overall
        # hi and lo: every point with var (bit var-1 of the index) set to 1, 0
        f = self._values(sign.function)
        if sign.factor is not None:
            f = f * self._values(sign.factor)
        f = f * np.where(self.bits[var - 1], sign.w_pos, sign.w_neg)
        index = np.arange(self.size)
        hi, lo = index | (1 << (var - 1)), index & ~(1 << (var - 1))
        chosen = np.where(f[hi] >= f[lo], c_before[hi], c_before[lo])
        if not np.allclose(chosen[maximizers], overall, rtol=_RTOL, atol=0.0):
            raise CheckpointFailure(
                "maximizer-push",
                f"sign for variable {var} fails to extend maximizers at node {node}",
                node=node, variable=var)

    def projected(self, node: int, var: int, h: Function | None, previous: Function,
                  result: Function, sign: DerivativeSign | None) -> None:
        if sign is not None:
            self._check_sign(node, var, sign)
        if h is not None:
            self._remove(h)
        self._remove(previous)
        self._remove(self.manager.literal_weight(var, *self.weights.pair(var)))
        self._insert(result)
        self.expected = self._reduce_max(self.expected, var)
        self._check_active("project-condition", node, variable=var)

    def after_valuate(self, maximum: float) -> None:
        if not math.isclose(maximum, self.maximum, rel_tol=_RTOL, abs_tol=0.0):
            raise CheckpointFailure(
                "maximizer-const",
                f"root value {maximum} deviates from enumerated maximum {self.maximum}")
        self._mask = np.ones(self.size, dtype=bool)  # points that agree with the pops so far

    def popped(self, var: int, assignment: Assignment) -> None:
        self._mask &= self.bits[var - 1] == assignment[var]
        reachable = float(self.master[self._mask].max())
        if not math.isclose(reachable, self.maximum, rel_tol=_RTOL, abs_tol=0.0):
            raise CheckpointFailure(
                "maximizer-pop",
                f"after assigning variable {var}, best completion {reachable} "
                f"deviates from maximum {self.maximum}",
                variable=var)


def verify_checkpoints(formula: Formula, weights: WeightFunction,
                       tree: ProjectJoinTree) -> CheckpointFailure | None:
    """Run a linear-mode solve under full instrumentation.

    Returns None when every checkpoint holds, else the first failure. Only
    feasible for small variable counts (exhaustive enumeration inside)."""
    if formula.var_count > VERIFY_LIMIT:
        raise GuardError(
            f"verification limit exceeded: {formula.var_count} > {VERIFY_LIMIT} variables")
    try:
        solve(formula, weights, tree, mode="linear", observer=_Verifier(formula, weights))
    except CheckpointFailure as failure:
        return failure
    return None
