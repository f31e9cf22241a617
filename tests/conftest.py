from contextlib import contextmanager
from functools import partial

import pytest

from xormpe import executor
from xormpe.diagram import DerivativeSign, DiagramManager
from xormpe.formula import Clause, ClauseKind, Formula, Literal, WeightFunction
from xormpe.planner import ProjectJoinTree

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
            hi = self.restrict(f, var, True).node
            lo = self.restrict(f, var, False).node
            node = self._apply("gt", lambda x, y: 1.0 if x > y else 0.0, hi, lo, False)
            return DerivativeSign(var, self._wrap(node))
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
