"""Weighted partial MaxSAT export.

Every clause of the instance becomes a hard clause; every literal with weight
w becomes a soft unit clause with integer weight round(K * ln w), K
configurable. Maximizing the satisfied soft weight over hard-clause models
then recovers the maximum-weight assignment, up to rounding of near-ties.

Xor clauses are rewritten into disjunctive hard clauses by introducing chain
variables: each xor of length p >= 4 splits into p-3 three-way parity links
plus one final three-way parity, four disjunctive clauses each; lengths 1-3
encode directly. A literal of weight zero exports as a hard unit excluding
it instead of a soft clause, since log 0 is undefined and a zero branch can
never appear in a positive-weight maximizer.

Note: weights below 1 produce nonpositive soft weights, which follows the
log-scaling rule literally but steps outside the classic wcnf convention;
feed weights above 1 when a third-party MaxSAT solver must consume the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .formula import Clause, ClauseKind, Formula, WeightFunction

DEFAULT_SCALE = 10000


class ExportError(Exception):
    """The instance cannot be exported (e.g. a variable with both weights zero)."""


@dataclass
class WcnfExport:
    original_var_count: int
    aux_count: int
    top: int
    hard: list[list[int]]
    soft: list[tuple[int, int]]  # (integer weight, unit literal)
    pre_tseitin_hard_count: int
    soft_count: int
    aux_defs: list[tuple[int, int, int]] = field(default_factory=list)
    # each aux definition (t, a, b) reads: variable t equals a xor b, where
    # a and b are literals over original or earlier aux variables

    @property
    def var_count(self) -> int:
        return self.original_var_count + self.aux_count


def export_wcnf(formula: Formula, weights: WeightFunction,
                scale: int = DEFAULT_SCALE) -> WcnfExport:
    if not isinstance(scale, int) or scale < 1:
        # a zero scale erases the weight preference and a negative one inverts it
        raise ExportError(f"scale must be an integer >= 1, got {scale!r}")
    n = formula.var_count
    soft: list[tuple[int, int]] = []
    zero_units: list[list[int]] = []
    for var in formula.variables:
        w_neg, w_pos = weights.pair(var)
        if w_neg == 0 and w_pos == 0:
            raise ExportError(
                f"variable {var} weighs zero under both polarities; "
                "no assignment has positive weight")
        for lit, w in ((var, w_pos), (-var, w_neg)):
            if w == 0:
                zero_units.append([-lit])
            else:
                soft.append((round(scale * math.log(w)), lit))

    hard: list[list[int]] = []
    aux_defs: list[tuple[int, int, int]] = []
    next_aux = n + 1
    for clause in formula.clauses:
        if clause.kind is ClauseKind.DISJUNCTION:
            hard.append([lit.to_int() for lit in clause.literals])
            continue
        lits = [lit.to_int() for lit in clause.literals]
        while len(lits) > 3:
            aux = next_aux
            next_aux += 1
            a, b = lits[0], lits[1]
            aux_defs.append((aux, a, b))
            hard.extend(_parity3(a, b, aux, odd=False))
            lits = [aux] + lits[2:]
        if len(lits) == 1:
            hard.append(lits)
        elif len(lits) == 2:
            hard.append([lits[0], lits[1]])
            hard.append([-lits[0], -lits[1]])
        else:
            hard.extend(_parity3(*lits, odd=True))
    hard.extend(zero_units)

    top = max(1, sum(max(w, 0) for w, _ in soft) + 1)
    return WcnfExport(
        original_var_count=n,
        aux_count=next_aux - n - 1,
        top=top,
        hard=hard,
        soft=soft,
        pre_tseitin_hard_count=len(formula.clauses),
        soft_count=len(soft),
        aux_defs=aux_defs,
    )


def _parity3(a: int, b: int, c: int, odd: bool) -> list[list[int]]:
    """Four disjunctive clauses forcing a xor b xor c to the given parity."""
    clauses = []
    for sa in (1, -1):
        for sb in (1, -1):
            for sc in (1, -1):
                negations = (sa < 0) + (sb < 0) + (sc < 0)
                # clause [sa*a, sb*b, sc*c] excludes exactly the assignment
                # falsifying all three literals, whose parity is `negations`
                excluded_parity = negations % 2
                if excluded_parity != (1 if odd else 0):
                    clauses.append([sa * a, sb * b, sc * c])
    return clauses


def format_wcnf(export: WcnfExport) -> str:
    lines = [
        f"p wcnf {export.var_count} {len(export.hard) + len(export.soft)} {export.top}"
    ]
    for clause in export.hard:
        lines.append(f"{export.top} " + " ".join(str(l) for l in clause) + " 0")
    for weight, lit in export.soft:
        lines.append(f"{weight} {lit} 0")
    return "\n".join(lines) + "\n"
