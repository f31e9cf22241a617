"""Exhaustive-enumeration reference for maximum-weight assignments and WMC.

Deliberately plain: every one of the 2^n total assignments is materialized
and evaluated. This is the ground truth the solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError
from .formula import Assignment, ClauseKind, Formula, WeightFunction

ORACLE_LIMIT = 20


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
        result = set()
        for index in np.nonzero(self.values == self.maximum)[0]:
            lits = tuple(
                (var if (int(index) >> (var - 1)) & 1 else -var)
                for var in range(1, self.var_count + 1)
            )
            result.add(lits)
        return result


def brute_solve(formula: Formula, weights: WeightFunction) -> OracleResult:
    """Enumerate all assignments; return the maximum, its witnesses, and the
    weighted model count."""
    n = formula.var_count
    if n > ORACLE_LIMIT:
        raise GuardError(f"oracle limit exceeded: {n} > {ORACLE_LIMIT} variables")
    size = 1 << n
    indices = np.arange(size, dtype=np.int64)
    bits = [(indices >> (var - 1)) & 1 == 1 for var in range(1, n + 1)]

    products = np.ones(size, dtype=np.float64)
    for var in range(1, n + 1):
        w_neg, w_pos = weights.pair(var)
        products *= np.where(bits[var - 1], w_pos, w_neg)

    satisfied = np.ones(size, dtype=bool)
    for clause in formula.clauses:
        if clause.kind is ClauseKind.DISJUNCTION:
            value = np.zeros(size, dtype=bool)
            for lit in clause.literals:
                value |= bits[lit.var - 1] == lit.positive
        else:
            value = np.zeros(size, dtype=bool)
            for lit in clause.literals:
                value ^= bits[lit.var - 1] == lit.positive
        satisfied &= value

    values = products * satisfied
    return OracleResult(
        maximum=float(values.max()),
        wmc=float(values.sum()),
        var_count=n,
        values=values,
    )
