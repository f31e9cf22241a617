"""Exhaustive-enumeration reference for maximum-weight assignments and WMC.

Deliberately plain: every one of the 2^n total assignments is materialized
and evaluated. This is the ground truth the solver is tested against.
"""

from __future__ import annotations

import math
import sys
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
    indices = np.arange(size, dtype=np.int64)
    bits = [(indices >> (var - 1)) & 1 == 1 for var in range(1, n + 1)]

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
