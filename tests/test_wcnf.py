import itertools
import math
import random

import pytest

from xormpe.benchgen import gen_random
from xormpe.executor import solve
from xormpe.formula import Formula, WeightFunction, evaluate_clause
from xormpe.oracle import brute_solve
from xormpe.planner import Heuristic, heuristic_order, plan
from xormpe.wcnf import ExportError, export_wcnf, format_wcnf

from conftest import disj, xor


def lit_true(lit, assignment):
    return assignment[abs(lit)] == (lit > 0)


def hard_models(export, original_n):
    """Assignments over all wcnf variables satisfying every hard clause."""
    total = original_n + export.aux_count
    for bits in itertools.product([False, True], repeat=total):
        assignment = {v + 1: bits[v] for v in range(total)}
        if all(any(lit_true(l, assignment) for l in clause) for clause in export.hard):
            yield assignment


def test_unit_clause_export():
    formula = Formula(1, [disj(1)])
    weights = WeightFunction({1: (10, 100)})
    export = export_wcnf(formula, weights)
    assert len(export.hard) == 1
    assert export.hard[0] == [1]
    assert export.soft_count == 2
    assert sorted(export.soft) == sorted([(46052, 1), (23026, -1)])
    assert export.pre_tseitin_hard_count == 1
    assert export.aux_count == 0


def test_equal_weights_give_equal_soft():
    formula = Formula(3, [disj(1, 2), disj(-2, 3)])
    weights = WeightFunction({v: (7.0, 7.0) for v in (1, 2, 3)})
    export = export_wcnf(formula, weights)
    assert len({w for w, _ in export.soft}) == 1
    assert export.soft_count == 6


def test_xor3_encodes_directly():
    formula = Formula(3, [xor(1, 2, -3)])
    export = export_wcnf(formula, WeightFunction({v: (2, 3) for v in (1, 2, 3)}))
    assert export.aux_count == 0
    assert len(export.hard) == 4
    # hard models restricted to the originals are exactly the xor models
    clause = formula.clauses[0]
    wanted = {bits for bits in itertools.product([False, True], repeat=3)
              if evaluate_clause(clause, {v + 1: bits[v] for v in range(3)})}
    got = {tuple(a[v] for v in (1, 2, 3)) for a in hard_models(export, 3)}
    assert got == wanted


@pytest.mark.parametrize("length", [1, 2, 4, 5])
def test_xor_chain_encoding_equivalence(length):
    lits = [v if v % 2 else -v for v in range(1, length + 1)]
    formula = Formula(length, [xor(*lits)])
    export = export_wcnf(formula, WeightFunction({v: (2, 3) for v in range(1, length + 1)}))
    assert export.aux_count == max(0, length - 3)
    clause = formula.clauses[0]
    wanted = {bits for bits in itertools.product([False, True], repeat=length)
              if evaluate_clause(clause, {v + 1: bits[v] for v in range(length)})}
    projected = [tuple(a[v] for v in range(1, length + 1))
                 for a in hard_models(export, length)]
    # every xor model extends to exactly one hard model, non-models to none
    assert set(projected) == wanted
    assert len(projected) == len(wanted)


def test_zero_weight_literal_becomes_hard_exclusion():
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (0.0, 4.0), 2: (2.0, 2.0)})
    export = export_wcnf(formula, weights)
    assert [1] in export.hard  # weight of not-x1 is zero, so x1 is forced
    assert export.soft_count == 3


def test_both_polarities_zero_is_refused():
    formula = Formula(1, [disj(1)])
    with pytest.raises(ExportError):
        export_wcnf(formula, WeightFunction({1: (0.0, 0.0)}))


def test_counts_pre_tseitin():
    formula = Formula(4, [disj(1, 2), xor(1, 2, 3, 4), disj(-3)])
    weights = WeightFunction({v: (2, 3) for v in range(1, 5)})
    export = export_wcnf(formula, weights)
    assert export.pre_tseitin_hard_count == 3
    assert export.soft_count == 2 * 4


def test_format_header_and_lines():
    formula = Formula(1, [disj(1)])
    export = export_wcnf(formula, WeightFunction({1: (10, 100)}))
    lines = format_wcnf(export).splitlines()
    assert lines[0] == f"p wcnf 1 3 {export.top}"
    assert lines[1] == f"{export.top} 1 0"
    assert set(lines[2:]) == {"46052 1 0", "23026 -1 0"}
    assert export.top > 46052 + 23026


def test_format_pins_clause_order_and_signs():
    # a disjunction, xors of 1-5 literals with negations (aux 8 = -1 xor 2,
    # 9 = 3 xor -4, 10 = 9 xor 5) and a zero-weight literal, whose hard unit
    # comes last among the hard clauses; the soft weights include a negative one
    formula = Formula(7, [disj(1, -2, 3), xor(-4), xor(2, -5), xor(1, -3, 6),
                          xor(-1, 2, -6, 7), xor(3, -4, 5, -6, 7)])
    weights = WeightFunction({1: (2.0, 3.0), 2: (5.0, 1.5), 3: (0.5, 4.0), 4: (2.5, 2.5),
                              5: (7.0, 1.25), 6: (3.0, 6.0), 7: (0.0, 9.0)})
    export = export_wcnf(formula, weights)
    assert export.aux_defs == [(8, -1, 2), (9, 3, -4), (10, 9, 5)]
    hard = """\
1 -2 3
-4
2 -5
-2 5
1 -3 6
1 3 -6
-1 -3 -6
-1 3 6
-1 2 -8
-1 -2 8
1 2 8
1 -2 -8
8 -6 7
8 6 -7
-8 -6 -7
-8 6 7
3 -4 -9
3 4 9
-3 -4 9
-3 4 -9
9 5 -10
9 -5 10
-9 5 10
-9 -5 -10
10 -6 7
10 6 -7
-10 -6 -7
-10 6 7
7
""".splitlines()
    soft = """\
10986 1
6931 -1
4055 2
16094 -2
13863 3
-6931 -3
9163 4
9163 -4
2231 5
19459 -5
17918 6
10986 -6
21972 7
""".splitlines()
    expected = (["p wcnf 10 42 142822"] + [f"142822 {line} 0" for line in hard]
                + [f"{line} 0" for line in soft])
    assert format_wcnf(export) == "\n".join(expected) + "\n"


def test_scale_parameter():
    formula = Formula(1, [disj(1)])
    export = export_wcnf(formula, WeightFunction({1: (10, 100)}), scale=100)
    assert sorted(w for w, _ in export.soft) == [round(100 * math.log(10)),
                                                 round(100 * math.log(100))]


@pytest.mark.parametrize("scale", [0, -10, 2.5, True])
def test_scale_must_be_a_positive_integer(scale):
    # zero soft weights erase the weight preference, negative ones invert it
    formula = Formula(1, [disj(1)])
    with pytest.raises(ExportError, match="integer >= 1"):
        export_wcnf(formula, WeightFunction({1: (10, 100)}), scale=scale)


def jittered_instance(trial):
    rng = random.Random(4000 + trial)
    n = rng.randint(2, 8)
    formula, _ = gen_random(n, rng.randint(1, n + 2), rng.randint(1, min(n, 4)),
                            0.5, 4000 + trial)
    weights = WeightFunction()
    for var in formula.variables:
        weights.set_literal(var, rng.uniform(1.1, 4.0))
        weights.set_literal(-var, rng.uniform(1.1, 4.0))
    return formula, weights


def test_export_optimum_matches_solver_maximizer():
    checked = 0
    for trial in range(30):
        formula, weights = jittered_instance(trial)
        reference = brute_solve(formula, weights)
        if reference.maximum == 0.0 or len(reference.maximizers) != 1:
            continue
        export = export_wcnf(formula, weights)
        soft = {lit: weight for weight, lit in export.soft}
        best_score, best = None, None
        seen = set()
        for assignment in hard_models(export, formula.var_count):
            key = tuple(assignment[v] for v in formula.variables)
            if key in seen:
                continue
            seen.add(key)
            score = sum(soft[v if assignment[v] else -v] for v in formula.variables)
            if best_score is None or score > best_score:
                best_score, best = score, key
        tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
        result = solve(formula, weights, tree)
        assert best == tuple(result.maximizer[v] for v in formula.variables)
        checked += 1
    assert checked >= 10
