from collections import ChainMap
from contextlib import contextmanager
from functools import partial

import pytest

from xormpe import executor
from xormpe.diagram import DerivativeSign, DiagramManager, Function
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


def project_all(project, f, variables):
    """Eliminate each of variables from f with project (a manager's
    exists_project or add_project), the deepest variable in the order first."""
    order = f.manager.var_order
    for var in sorted(variables, key=order.index, reverse=True):
        f = project(f, var)
    return f


def support(f):
    """Variables appearing on some root-to-terminal path of f."""
    mgr = f.manager
    return {mgr._order[mgr._level[node]] for node in mgr._reachable(f.node)
            if not mgr.is_terminal(node)}


def add(f, g):
    """Pointwise sum of two functions of one linear-domain manager."""
    return Function(f.manager, f.manager._sum(f.node, g.node))


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


def _fill_cost(adjacency, var):
    neighbors = sorted(adjacency[var])
    cost = 0
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1:]:
            if v not in adjacency[u]:
                cost += 1
    return cost


def reference_descendant_violation(tree, formula):
    """The first descendant violation, found the quadratic way validate
    used to take: gather the set of every clause below each node, then walk
    the nodes in validate's reached order, each node's projected variables
    ascending, each variable's clauses by index. Only for trees that pass
    validate's structure, gamma and partition checks."""
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
        if node.is_leaf:
            descendant_clauses[index] = {node.clause_index}
        else:
            bag = set()
            for child in node.children:
                bag |= descendant_clauses[child]
            descendant_clauses[index] = bag
    for index in reached:
        node = tree.nodes[index]
        if node.is_leaf:
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
        high = self.function.evaluate(ChainMap({self.var: True}, assignment))
        low = self.function.evaluate(ChainMap({self.var: False}, assignment))
        return high > low


class FaultyManager(DiagramManager):
    """Diagram manager that seeds one executor fault, so tests can check that
    the checkpoints and the oracle comparisons catch it:

    * skip_weight_join: the first join right after a literal_weight returns
      its left operand, as if that weight were never joined in;
    * push_after_project: every derivative sign is the constant 1, which is
      what a sign taken after the projection would be;
    * tie_break_low: signs prefer 0 on ties (> in place of >=).
    """

    KINDS = ("skip_weight_join", "push_after_project", "tie_break_low")

    def __init__(self, var_order, log_mode=False, *, fault):
        if fault not in self.KINDS:
            raise ValueError(f"unknown fault {fault!r}")
        super().__init__(var_order, log_mode)
        self.fault = fault
        self._skip_armed = fault == "skip_weight_join"
        self._last_weight = None

    def literal_weight(self, var, w_neg, w_pos):
        self._last_weight = super().literal_weight(var, w_neg, w_pos)
        return self._last_weight

    def join(self, f, g):
        if self._skip_armed and g is self._last_weight:
            self._skip_armed = False
            return f
        return super().join(f, g)

    def derivative_sign(self, f, var):
        if self.fault == "push_after_project":
            return DerivativeSign(var, self.constant(1.0))
        if self.fault == "tie_break_low":
            return _TieToLowSign(var, f)
        return super().derivative_sign(f, var)


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
