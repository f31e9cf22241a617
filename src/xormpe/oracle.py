"""Exhaustive-enumeration reference for maximum-weight assignments and WMC,
and the checkpoint verifier: the one module that loads numpy.

Deliberately plain: every one of the 2^n total assignments is materialized
and evaluated (point i of a dense array sets variable var exactly when bit
var - 1 of i is set). This is the ground truth the solver is tested against.

`verify_checkpoints` reruns a solve with an observer that checks each step
on its own tree node, on dense tables over the node's variables: bucket
elimination is correct by induction over the tree (Dechter, AI 1999), so
local checks cover any variable count, for trees up to DENSE_LIMIT wide.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .diagram import _TERMINAL, DerivativeSign, Function
from .errors import GuardError
from .executor import _RTOL, Observer, solve
from .formula import Assignment, Clause, ClauseKind, Formula, WeightFunction
from .planner import ProjectJoinTree

DENSE_LIMIT = 20  # variables of the oracle's enumeration, and of a verified tree node


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


def _axis(scope: Collection[int], var: int, values: list) -> np.ndarray:
    """values[0] where var is 0 and values[1] where it is 1, on the axes of
    scope, one per variable in its order."""
    return np.reshape(values, [2 if v == var else 1 for v in scope])


def _indicator(clause: Clause, scope: Collection[int]) -> np.ndarray:
    """The clause's 0/1 table on the axes of scope."""
    combine = np.logical_or if clause.kind is ClauseKind.DISJUNCTION else np.logical_xor
    satisfied = np.zeros([1] * len(scope), dtype=bool)
    for lit in clause.literals:
        satisfied = combine(satisfied, _axis(scope, lit.var, [not lit.positive, lit.positive]))
    return satisfied


def brute_solve(formula: Formula, weights: WeightFunction) -> OracleResult:
    """Enumerate all assignments; return the maximum, its witnesses, and the
    weighted model count. Raises GuardError beyond DENSE_LIMIT variables and
    when a weight product it takes, or the sum, leaves double range (by the
    numpy rule of a linear `verify_checkpoints`)."""
    n = formula.var_count
    if n > DENSE_LIMIT:
        raise GuardError(f"oracle limit exceeded: {n} > {DENSE_LIMIT} variables")
    scope = range(n, 0, -1)  # var 1 is the last axis: point i sets var at bit var - 1
    try:
        with np.errstate(over="raise", under="raise"):
            values = np.array(1.0)
            for var in range(1, n + 1):
                values = values * _axis(scope, var, weights.pair(var))
            for clause in formula.clauses:
                values *= _indicator(clause, scope)
            maximum, wmc = float(values.max()), float(values.sum())
    except FloatingPointError as exc:
        raise GuardError("linear weight products leave double range; "
                         "the oracle cannot enumerate them") from exc
    return OracleResult(maximum=maximum, wmc=wmc, var_count=n, values=values.reshape(-1))


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
    """Checks each executor event at its tree node, in the value domain of
    the manager it observes, on tables with one axis per variable of the
    node (vars | pi), ascending. `valuations` holds each exited node's
    valuation until its parent takes it; of the node in progress, `so_far`
    is its function so far and `untaken` its children not taken yet."""

    def __init__(self, formula: Formula, weights: WeightFunction, tree: ProjectJoinTree):
        super().__init__()
        self.formula, self.weights, self.tree = formula, weights, tree
        self.valuations: dict[int, Function] = {}
        self.signs: dict[int, DerivativeSign] = {}  # by variable, each checked as pushed
        self.node: int | None = None

    def setup(self, manager) -> None:
        super().setup(manager)
        # atol: the certificate's floor for a log10 value near 0
        self.unit, self.zero, self.times, self.atol = (
            (0.0, -math.inf, np.add, _RTOL) if manager.log_mode else (1.0, 0.0, np.multiply, 0.0))

    def _fail(self, checkpoint: str, message: str, variable: int | None = None):
        raise CheckpointFailure(checkpoint, message, node=self.node, variable=variable)

    def _at(self, node: int, previous: Function | None = None) -> None:
        """Enter node at its first event, from its first child's valuation
        (the unit if it has none), as the executor does; previous, when
        given, must be the node's function so far."""
        if node != self.node:
            pjt_node, self.node = self.tree.nodes[node], node
            self.scope = {var: i for i, var in enumerate(sorted(pjt_node.vars | pjt_node.pi))}
            self.untaken, self.so_far = list(pjt_node.children), self.manager.one()
            if self.untaken:
                self.so_far = self._take(self.valuations.get(self.untaken[0]))
        if previous is not None and previous != self.so_far:
            self._fail("join-condition", f"node {node} works on {previous!r}, not {self.so_far!r}")

    def _take(self, h: Function | None) -> Function:
        """h, the valuation of a child not taken yet, which now is taken."""
        for child in self.untaken:
            if h is not None and self.valuations.get(child) == h:
                self.untaken.remove(child)
                return self.valuations.pop(child)
        self._fail("join-condition", f"node {self.node} takes {h!r}, no untaken child's valuation")

    def _table(self, f: Function, checkpoint: str) -> np.ndarray:
        """f at every point of the node, tabulated by ascending node id, so
        children first. A diagram node's table spans the trailing axes, from
        its own variable on, so numpy tiles it across the levels its parents
        skip; a variable off the node fails."""
        nodes, scope, times = self.manager._nodes, self.scope, self.times
        tables = {_TERMINAL: np.array(self.unit)}
        for node in sorted(self.manager._reachable(f.node))[1:]:  # the terminal is id 0
            var, low, low_off, high, high_off = nodes[node]
            if var not in scope:
                self._fail(checkpoint, f"a function of node {self.node} depends on x{var}")
            table = tables[node] = np.empty((2,) * (len(scope) - scope[var]))
            times(low_off, tables[low], out=table[0, ...])
            times(high_off, tables[high], out=table[1, ...])
        return np.broadcast_to(times(f.offset, tables[f.node]), (2,) * len(scope))

    def _check(self, checkpoint: str, f: Function, expected: np.ndarray, message: str,
               variable: int | None = None) -> None:
        table = self._table(f, checkpoint)
        with np.errstate(under="ignore"):  # the tolerance of a tiny value underflows
            if not np.allclose(table, expected, rtol=_RTOL, atol=self.atol):
                self._fail(checkpoint, message, variable)

    # -- events from the executor ------------------------------------------

    def child_joined(self, node: int, h: Function, previous: Function, joined: Function) -> None:
        self._at(node, previous)
        self._take(h)
        product = self.times(self._table(previous, "join-condition"),
                             self._table(h, "join-condition"))
        self._check("join-condition", joined, product,
                    f"join at node {node} is not its operands' product")
        self.so_far = joined

    def projected(self, node: int, var: int, h: Function | None, previous: Function,
                  result: Function, sign: DerivativeSign | None) -> None:
        self._at(node, previous)
        product = self._table(previous, "project-condition")
        if h is not None:  # the operands first, then the weights, as the kernel takes them
            self._take(h)
            product = self.times(product, self._table(h, "project-condition"))
        w_neg, w_pos = self.manager._weights(var, *self.weights.pair(var))
        if sign != DerivativeSign(var, previous, w_neg, w_pos, h):  # solve records every sign
            self._fail("maximizer-push", f"sign {sign!r} is not x{var}'s at node {node}", var)
        self.signs[var] = sign
        product = self.times(product, _axis(self.scope, var, [w_neg, w_pos]))
        self._check("project-condition", result, product.max(self.scope[var], keepdims=True),
                    f"x{var}'s projection at node {node} is not its operands' max", var)
        self.so_far = result

    def exit(self, node: int, f: Function) -> None:
        if node < self.tree.clause_count:
            self._at(node)
            satisfied = _indicator(self.formula.clauses[node], self.scope)
            self._check("pre-condition", f, np.where(satisfied, self.unit, self.zero),
                        f"leaf {node} is not its clause's indicator")
        else:
            self._at(node, f)
            if self.untaken:
                self._fail("join-condition", f"node {node} leaves children {self.untaken}")
        self.valuations[node] = f

    def after_valuate(self, maximum: float) -> None:
        root = self.valuations[self.tree.root]
        if not root.is_constant() or maximum != root.offset:
            raise CheckpointFailure("maximizer-const", f"maximum {maximum!r} is not the "
                                    f"root's constant {root!r}", node=self.tree.root)

    def popped(self, var: int, assignment: Assignment) -> None:
        # both sides of var's sign, from its operands
        sign, chosen, manager = self.signs[var], assignment[var], self.manager
        low, high = manager.evaluate_cofactors(sign.function, var, assignment, sign.factor)
        sides = manager._times(low, sign.w_neg), manager._times(high, sign.w_pos)
        if sides[chosen] < sides[not chosen]:
            raise CheckpointFailure("maximizer-pop", f"x{var} = {int(chosen)} weighs "
                                    f"{sides[chosen]!r} < {sides[not chosen]!r}", variable=var)


def verify_checkpoints(formula: Formula, weights: WeightFunction, tree: ProjectJoinTree,
                       mode: str = "linear") -> CheckpointFailure | None:
    """Run a solve in `mode` under full instrumentation: None when every
    checkpoint holds, else the first failure. GuardError for a tree wider
    than DENSE_LIMIT, or linear products out of double range in the solve
    or in a table."""
    if tree.width() > DENSE_LIMIT:
        raise GuardError(f"verification limit exceeded: width {tree.width()} > {DENSE_LIMIT}")
    try:
        with np.errstate(over="raise", under="raise"):
            solve(formula, weights, tree, mode=mode, observer=_Verifier(formula, weights, tree))
    except CheckpointFailure as failure:
        return failure
    except FloatingPointError as exc:
        raise GuardError("linear weight products leave double range; "
                         "the verifier cannot tabulate them") from exc
    return None
