import operator
import sys
from contextlib import contextmanager
from functools import cache, partial

import pytest

from xormpe import executor
from xormpe.diagram import _TERMINAL, DerivativeSign, DiagramManager, Function
from xormpe.formula import Clause, ClauseKind, Formula, Literal, WeightFunction
from xormpe.planner import Heuristic, ProjectJoinTree, Violation, primal_graph

MIXED6_TEXT = """p cnf 6 5
x 2 -4 0
1 6 0
1 0
x 3 5 0
-3 -5 0
"""


def lit(value: int) -> Literal:
    return Literal.from_int(value)


def disj(*lits: int) -> Clause:
    return Clause(ClauseKind.DISJUNCTION, tuple(lit(v) for v in lits))


def xor(*lits: int) -> Clause:
    return Clause(ClauseKind.XOR, tuple(lit(v) for v in lits))


def constant(mgr, value):
    """The constant function of a linear-domain value, in either value domain:
    a weight function whose two equal edges reduce to the terminal."""
    return mgr.literal_weight(1, value, value)


def project_all(project, f, variables):
    """Eliminate each of variables from f with project (a manager's
    exists_project or add_project), the deepest variable (highest index) first."""
    for var in sorted(variables, reverse=True):
        f = project(f, var)
    return f


def support(f):
    """Variables appearing on some root-to-terminal path of f."""
    mgr = f.manager
    return {mgr._nodes[node][0] for node in mgr._reachable(f.node)
            if node != _TERMINAL}


def add(f, g):
    """Pointwise sum of two functions of one linear-domain manager, walking
    both edges together and adding their offsets at the terminal."""
    mgr = f.manager
    nodes = mgr._nodes

    def cofactors(c, node, top):
        var, low, low_off, high, high_off = nodes[node]
        if var != top:
            return (c, node), (c, node)
        return (c * low_off, low), (c * high_off, high)

    @cache
    def rec(cu, u, cv, v):
        if u == v == _TERMINAL:
            return cu + cv, u
        top = min(nodes[u][0], nodes[v][0])
        (u0, u1), (v0, v1) = cofactors(cu, u, top), cofactors(cv, v, top)
        return mgr._mk(top, *rec(*u0, *v0), *rec(*u1, *v1))

    return Function(mgr, *rec(f.offset, f.node, g.offset, g.node))


def join_then_project(project, f, var, w_neg, w_pos):
    """What a weighted projection computed before it was one pass: join var's
    weight function into f, then project var out with unit weights."""
    mgr = f.manager
    return project(mgr.join(f, mgr.literal_weight(var, w_neg, w_pos)), var)


def solve_monolithic(formula, weights, mode="linear"):
    """Reference path: `solve` on the one-node plan, whose root joins every
    clause and then projects every variable, so nothing is projected early."""
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal(range(len(formula.clauses)), formula.variables)
    return executor.solve(formula, weights, tree, mode)


def reference_order(formula, heuristic):
    """The elimination order heuristic_order must match, computed the plain
    way: rescan every remaining vertex at every step, min-fill counting the
    missing neighbour pairs one pair at a time."""
    if heuristic is Heuristic.LEXICOGRAPHIC:
        return list(formula.variables)
    adjacency = primal_graph(formula)
    order = []
    while adjacency:
        if heuristic is Heuristic.MIN_DEGREE:
            chosen = min(adjacency, key=lambda v: (len(adjacency[v]), v))
        else:
            chosen = min(adjacency, key=lambda v: (_fill_cost(adjacency, v), v))
        neighbors = adjacency.pop(chosen)
        for u in neighbors:
            adjacency[u].discard(chosen)
        for u in neighbors:
            for v in neighbors:
                if u < v:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        order.append(chosen)
    return order


def reference_plan(formula, order):
    """The tree plan must match, built the way plan used to build it: keep
    every active subtree's variables and an index from each variable to the
    subtrees holding it; eliminating x joins its holders, in id order."""
    order = [operator.index(x) for x in order]
    tree = ProjectJoinTree(formula)
    active = {i: tree.nodes[i].vars for i in range(tree.clause_count)}
    by_var = {v: set() for v in formula.variables}
    for subtree, variables in active.items():
        for v in variables:
            by_var[v].add(subtree)
    unused = []
    for x in order:
        holders = sorted(by_var[x])
        if not holders:
            unused.append(x)
            continue
        node = tree.add_internal(holders, {x})
        for subtree in holders:
            for v in active.pop(subtree):
                by_var[v].discard(subtree)
        active[node] = tree.nodes[node].vars
        for v in active[node]:
            by_var[v].add(node)
    tree.root = tree.add_internal(sorted(active), unused)
    return tree


def _fill_cost(adjacency, var):
    neighbors = sorted(adjacency[var])
    cost = 0
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1:]:
            if v not in adjacency[u]:
                cost += 1
    return cost


def reference_descendant_violation(tree, formula):
    """The first descendant violation, found independently of validate and
    in quadratic memory: gather the set of every clause below each node,
    then walk the nodes in pre-order, children right to left as validate
    does, each node's projected variables ascending, each variable's clauses
    by index, and return the first clause missing from its node's set. Only
    for trees that pass validate's structure, gamma and partition checks."""
    reached = []
    stack = [tree.root]
    while stack:
        index = stack.pop()
        reached.append(index)
        stack.extend(tree.nodes[index].children)
    clauses_of_var = {v: [] for v in formula.variables}
    for c, clause in enumerate(formula.clauses):
        for v in clause.variables:
            clauses_of_var[v].append(c)
    descendant_clauses = {}
    for index in tree.post_order():
        node = tree.nodes[index]
        if index < tree.clause_count:
            descendant_clauses[index] = {index}
        else:
            bag = set()
            for child in node.children:
                bag |= descendant_clauses[child]
            descendant_clauses[index] = bag
    for index in reached:
        node = tree.nodes[index]
        if index < tree.clause_count:
            continue
        for x in sorted(node.pi):
            for c in clauses_of_var[x]:
                if c not in descendant_clauses[index]:
                    return Violation(
                        "descendant",
                        f"clause {c} uses variable {x} but is not below node {index}",
                        node=index, variable=x, clause=c)
    return None


class _TieToLowSign(DerivativeSign):
    """A derivative sign that prefers 0 on ties (> in place of >=)."""

    def choose(self, assignment):
        low, high = self.weighed(assignment)
        return high > low


class FaultyManager(DiagramManager):
    """Diagram manager that seeds one executor fault, so tests can check that
    the checkpoints and the oracle comparisons catch it:

    * skip_weight_join: the first weighted projection runs with unit
      weights, as if that variable's weight were never joined in;
    * push_after_project: every derivative sign is the constant 1, which is
      what a sign taken after the projection would be;
    * tie_break_low: signs prefer 0 on ties (> in place of >=);
    * second_join_left: the second join returns its left operand, as if that
      child were never joined in;
    * drop_fused_operand: every fused projection runs without its second
      operand, as if that child were never joined in.

    Only the projection's own work is faulted: the sign a projection appends
    comes from `derivative_sign` with the true weights and operands, so only
    the sign faults reach it.
    """

    KINDS = ("skip_weight_join", "push_after_project", "tie_break_low", "second_join_left",
             "drop_fused_operand")

    def __init__(self, log_mode=False, *, fault):
        if fault not in self.KINDS:
            raise ValueError(f"unknown fault {fault!r}")
        super().__init__(log_mode)
        self.fault = fault
        self._skip_armed = fault == "skip_weight_join"
        self._joins = 0

    def _faulty(self, project, f, var, w_neg, w_pos, h, signs):
        if signs is not None:
            signs.append(self.derivative_sign(f, var, w_neg, w_pos, h))
        if self._skip_armed:
            self._skip_armed = False
            w_neg, w_pos = 1.0, 1.0
        if self.fault == "drop_fused_operand":
            h = None
        return project(f, var, w_neg, w_pos, h)

    def join(self, f, g):
        self._joins += 1
        if self.fault == "second_join_left" and self._joins == 2:
            return f
        return super().join(f, g)

    def exists_project(self, f, var, w_neg=1.0, w_pos=1.0, h=None, signs=None):
        return self._faulty(super().exists_project, f, var, w_neg, w_pos, h, signs)

    def add_project(self, f, var, w_neg=1.0, w_pos=1.0, h=None, signs=None):
        return self._faulty(super().add_project, f, var, w_neg, w_pos, h, signs)

    def derivative_sign(self, f, var, w_neg=1.0, w_pos=1.0, h=None):
        if self.fault == "push_after_project":
            return super().derivative_sign(self.one(), var)
        sign = super().derivative_sign(f, var, w_neg, w_pos, h)
        if self.fault == "tie_break_low":
            return _TieToLowSign(*sign)
        return sign


@contextmanager
def recursion_limit(limit):
    """Run the block at the interpreter's recursion limit `limit`, then put
    back the limit it found: an in-process `main` may have raised it."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


@contextmanager
def injected_fault(kind):
    """Every solve, count and verification inside builds a FaultyManager."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "DiagramManager", partial(FaultyManager, fault=kind))
        yield


@pytest.fixture
def mixed6() -> Formula:
    """Six variables, five clauses (two of them xor); satisfiable with eight
    models under unit weights."""
    return Formula(6, [xor(2, -4), disj(1, 6), disj(1), xor(3, 5), disj(-3, -5)])


@pytest.fixture
def mixed6_tree(mixed6) -> ProjectJoinTree:
    """Hand-built tree for the mixed6 instance, width 2.

    Leaves 0..4 map to the clauses in order; the first xor is handled alone,
    the two clauses over x3/x5 share a node, and x1 is projected above the
    three clauses that mention it.
    """
    tree = ProjectJoinTree(mixed6)
    n6 = tree.add_internal([0], {2, 4})
    n7 = tree.add_internal([1], {6})
    n8 = tree.add_internal([n6, n7, 2], {1})
    n9 = tree.add_internal([3, 4], {3, 5})
    tree.root = tree.add_internal([n8, n9], set())
    return tree


@pytest.fixture
def unit_weights() -> WeightFunction:
    return WeightFunction()
