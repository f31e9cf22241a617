"""Weighted partial MaxSAT export.

Every clause of the instance becomes a hard clause; every literal with weight
w becomes a soft unit clause with integer weight round(K * ln w), K
configurable. Maximizing the satisfied soft weight over hard-clause models
then recovers the maximum-weight assignment, up to rounding of near-ties.

One rule encodes every xor: a xor of p <= 3 literals becomes the 2^(p-1)
disjunctive hard clauses that each exclude one assignment of the wrong
parity. A longer xor chains through aux variables, one link t = a xor b (the
rule on a, b, t with even parity) per step, until three literals remain. A
literal of weight zero exports as a hard unit excluding it instead of a soft
clause, since log 0 is undefined and a zero branch can never appear in a
positive-weight maximizer.

Note: weights below 1 produce nonpositive soft weights, which follows the
log-scaling rule literally but steps outside the classic wcnf convention;
feed weights above 1 when a third-party MaxSAT solver must consume the file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .formula import ClauseKind, Formula, WeightFunction

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
    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 1:
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
    for clause in formula.clauses:
        lits = [lit.to_int() for lit in clause.literals]
        if clause.kind is ClauseKind.DISJUNCTION:
            hard.append(lits)
            continue
        while len(lits) > 3:
            aux = n + len(aux_defs) + 1
            aux_defs.append((aux, lits[0], lits[1]))
            hard.extend(_parity([lits[0], lits[1], aux], odd=False))
            lits = [aux] + lits[2:]
        hard.extend(_parity(lits, odd=True))
    hard.extend(zero_units)

    return WcnfExport(
        original_var_count=n,
        aux_count=len(aux_defs),
        top=sum(max(w, 0) for w, _ in soft) + 1,
        hard=hard,
        soft=soft,
        pre_tseitin_hard_count=len(formula.clauses),
        soft_count=len(soft),
        aux_defs=aux_defs,
    )


def _parity(lits: list[int], odd: bool) -> list[list[int]]:
    """Disjunctive clauses forcing the xor of lits to the given parity. Clause
    [s * lit ...] excludes exactly the assignment that makes true the literals
    signed -1, so it is kept when their count has the parity not wanted."""
    return [[s * lit for s, lit in zip(signs, lits)]
            for signs in itertools.product((1, -1), repeat=len(lits))
            if signs.count(-1) % 2 != odd]


def format_wcnf(export: WcnfExport) -> str:
    lines = [
        f"p wcnf {export.var_count} {len(export.hard) + len(export.soft)} {export.top}"
    ]
    for clause in export.hard:
        lines.append(f"{export.top} " + " ".join(str(l) for l in clause) + " 0")
    for weight, lit in export.soft:
        lines.append(f"{weight} {lit} 0")
    return "\n".join(lines) + "\n"
