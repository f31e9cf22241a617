"""Exhaustive-enumeration reference for maximum-weight assignments and WMC,
and the checkpoint verifier: the one module that loads numpy.

Deliberately plain: every one of the 2^n total assignments is materialized
and evaluated (point i of a dense array sets variable var exactly when bit
var - 1 of i is set). This is the ground truth the solver is tested against.

`verify_checkpoints` reruns a solve with an observer that checks each step
on its own tree node, on dense log10 tables over the node's variables: bucket
elimination is correct by induction over the tree (Dechter, AI 1999), so
local checks cover any variable count, for trees up to DENSE_LIMIT wide.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .diagram import _TERMINAL, DerivativeSign, Function, _log10
from .errors import GuardError
from .executor import _LOG_RTOL, _RTOL, Observer, solve
from .formula import Assignment, Clause, ClauseKind, Formula, WeightFunction, evaluate_clause
from .planner import ProjectJoinTree

DENSE_LIMIT = 20  # variables of the oracle's enumeration, and of a verified tree node


@contextmanager
def _in_double_range():
    """GuardError where a linear product or sum of the enumeration leaves double range."""
    try:
        with np.errstate(over="raise", under="raise"):
            yield
    except FloatingPointError as exc:
        raise GuardError("linear weight products or their sum leave double range; "
                         "the oracle cannot enumerate them") from exc


@dataclass
class OracleResult:
    maximum: float
    var_count: int
    values: np.ndarray = field(repr=False)  # weight of each assignment, 0 if unsat

    @property
    def wmc(self) -> float:
        """The weighted model count, summed on each read under the oracle's
        guard, so only a read refuses a sum out of double range."""
        with _in_double_range():
            return float(self.values.sum())

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
    weighted model count (summed when read). GuardError beyond DENSE_LIMIT
    variables, or where a weight product it takes leaves double range."""
    n = formula.var_count
    if n > DENSE_LIMIT:
        raise GuardError(f"oracle limit exceeded: {n} > {DENSE_LIMIT} variables")
    scope = range(n, 0, -1)  # var 1 is the last axis: point i sets var at bit var - 1
    with _in_double_range():
        values = np.array(1.0)
        for var in range(1, n + 1):
            values = values * _axis(scope, var, weights.pair(var))
        for clause in formula.clauses:
            values *= _indicator(clause, scope)
    return OracleResult(maximum=float(values.max()), var_count=n, values=values.reshape(-1))


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
    """Checks each executor event at its tree node, on tables of log10 values
    (a linear manager's offsets and weights enter through `_log10`) with one
    axis per variable of the node (vars | pi), ascending, compared as the
    certificate compares a maximum of the mode. `valuations` holds each exited
    node's valuation until its parent takes it; of the node in progress,
    `so_far` is its function so far and `untaken` its children not taken yet.
    Each forced literal must follow from its reason and those forced before;
    a reason's leaf is checked everywhere, any other where all forced hold."""

    def __init__(self, formula: Formula, weights: WeightFunction, tree: ProjectJoinTree):
        super().__init__()
        self.formula, self.weights, self.tree = formula, weights, tree
        self.valuations: dict[int, Function] = {}
        self.signs: dict[int, DerivativeSign] = {}  # by variable, each checked as pushed
        self.forced: dict[int, tuple[bool, int]] = {}  # none until the executor's
        self.node: int | None = None

    def setup(self, manager) -> None:
        super().setup(manager)
        self.log10, self.rtol, self.atol = (
            (lambda value: value, _RTOL, _RTOL) if manager.log_mode else (_log10, 0.0, _LOG_RTOL))
        self.values: dict[int, bool] = {}  # the forced literals, each checked as derived
        self.reasons = {reason for _, reason in self.forced.values()}
        for var, (value, reason) in self.forced.items():
            clause = self.formula.clauses[reason]
            rest = {lit.var: self.values.get(lit.var) for lit in clause.literals if lit.var != var}
            if not (var in clause.variables and None not in rest.values()
                    and evaluate_clause(clause, {**rest, var: value})
                    and not evaluate_clause(clause, {**rest, var: not value})):
                raise CheckpointFailure("pre-condition", f"clause {reason} does not force "
                                        f"x{var} = {int(value)}", reason, var)
            self.values[var] = value

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
        nodes, scope, log10 = self.manager._nodes, self.scope, self.log10
        tables = {_TERMINAL: np.array(0.0)}
        for node in sorted(self.manager._reachable(f.node))[1:]:  # the terminal is id 0
            var, low, low_off, high, high_off = nodes[node]
            if var not in scope:
                self._fail(checkpoint, f"a function of node {self.node} depends on x{var}")
            table = tables[node] = np.empty((2,) * (len(scope) - scope[var]))
            np.add(log10(low_off), tables[low], out=table[0, ...])
            np.add(log10(high_off), tables[high], out=table[1, ...])
        return np.broadcast_to(log10(f.offset) + tables[f.node], (2,) * len(scope))

    def _check(self, checkpoint: str, f: Function, expected: np.ndarray, message: str,
               variable: int | None = None, at: tuple = ()) -> None:
        table = self._table(f, checkpoint)
        if not np.allclose(table[at], np.broadcast_to(expected, table.shape)[at],
                           rtol=self.rtol, atol=self.atol):
            self._fail(checkpoint, message, variable)

    # -- events from the executor ------------------------------------------

    def child_joined(self, node: int, h: Function, previous: Function, joined: Function) -> None:
        self._at(node, previous)
        self._take(h)
        product = self._table(previous, "join-condition") + self._table(h, "join-condition")
        self._check("join-condition", joined, product,
                    f"join at node {node} is not its operands' product")
        self.so_far = joined

    def projected(self, node: int, var: int, h: Function | None, previous: Function,
                  result: Function, sign: DerivativeSign | None) -> None:
        self._at(node, previous)
        product = self._table(previous, "project-condition")
        if h is not None:  # the operands first, then the weights, as the kernel takes them
            self._take(h)
            product = product + self._table(h, "project-condition")
        w_neg, w_pos = self.manager._weights(var, *self.weights.pair(var))
        if sign != DerivativeSign(var, previous, w_neg, w_pos, h):  # solve records every sign
            self._fail("maximizer-push", f"sign {sign!r} is not x{var}'s at node {node}", var)
        self.signs[var] = sign
        product = product + _axis(self.scope, var, [self.log10(w_neg), self.log10(w_pos)])
        self._check("project-condition", result, product.max(self.scope[var], keepdims=True),
                    f"x{var}'s projection at node {node} is not its operands' max", var)
        self.so_far = result

    def exit(self, node: int, f: Function) -> None:
        if node < self.tree.clause_count:
            self._at(node)
            satisfied = _indicator(self.formula.clauses[node], self.scope)
            values = self.values
            agree = () if node in self.reasons else tuple(
                slice(values[v], values[v] + 1) if v in values else slice(None) for v in self.scope)
            self._check("pre-condition", f, np.where(satisfied, 0.0, -math.inf),
                        f"leaf {node} is not its clause's indicator", at=agree)
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
    than DENSE_LIMIT, or linear products out of double range in the solve."""
    if tree.width() > DENSE_LIMIT:
        raise GuardError(f"verification limit exceeded: width {tree.width()} > {DENSE_LIMIT}")
    try:
        solve(formula, weights, tree, mode=mode, observer=_Verifier(formula, weights, tree))
    except CheckpointFailure as failure:
        return failure
    return None
