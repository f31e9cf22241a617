import random

import pytest

from xormpe.benchgen import gen_random
from xormpe.diagram import DiagramManager
from xormpe.errors import GuardError
from xormpe.formula import Formula, WeightFunction, evaluate_formula, evaluate_weight
from xormpe.oracle import brute_solve

from conftest import disj, project_all, xor


def test_unit_clause():
    result = brute_solve(Formula(1, [disj(1)]), WeightFunction())
    assert result.maximum == 1.0
    assert result.wmc == 1.0
    assert result.maximizers == {(1,)}
    assert result.is_maximizer({1: True})
    assert not result.is_maximizer({1: False})


def test_weighted_xor():
    formula = Formula(2, [xor(1, 2)])
    weights = WeightFunction({1: (10, 100), 2: (100, 10)})
    result = brute_solve(formula, weights)
    assert result.maximum == 10000.0
    assert result.wmc == 10100.0
    assert result.maximizers == {(1, -2)}


def test_mixed6_unit_weights(mixed6, unit_weights):
    result = brute_solve(mixed6, unit_weights)
    assert result.maximum == 1.0
    assert result.wmc == 8.0
    assert len(result.maximizers) == 8
    for lits in result.maximizers:
        assignment = {abs(l): l > 0 for l in lits}
        assert evaluate_formula(mixed6, assignment)


def test_empty_formula():
    result = brute_solve(Formula(0, []), WeightFunction())
    assert result.maximum == 1.0
    assert result.wmc == 1.0
    assert result.is_maximizer({})


def test_unsatisfiable():
    result = brute_solve(Formula(1, [disj(1), disj(-1)]),
                         WeightFunction({1: (10, 100)}))
    assert result.maximum == 0.0
    assert result.wmc == 0.0
    assert len(result.maximizers) == 2  # every assignment attains weight 0


def test_guard():
    with pytest.raises(GuardError):
        brute_solve(Formula(21, []), WeightFunction())


def test_matches_monolithic_projection():
    # the enumerated maximum equals full existential projection of the joined
    # diagram, for random small instances
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(1, 8)
        formula, weights = gen_random(n, rng.randint(0, 10), rng.randint(1, n),
                                      rng.random(), 500 + trial)
        result = brute_solve(formula, weights)
        mgr = DiagramManager(list(formula.variables))
        f = mgr.one()
        for clause in formula.clauses:
            f = mgr.join(f, mgr.from_clause(clause))
        for var in formula.variables:
            f = mgr.join(f, mgr.literal_weight(var, *weights.pair(var)))
        projected = project_all(mgr.exists_project, f, formula.variables)
        assert projected.constant_value() == pytest.approx(result.maximum, rel=1e-9)


def test_values_consistent_with_direct_evaluation():
    rng = random.Random(37)
    for trial in range(10):
        n = rng.randint(1, 6)
        formula, weights = gen_random(n, rng.randint(0, 8), rng.randint(1, n),
                                      0.5, 900 + trial)
        result = brute_solve(formula, weights)
        for index in range(1 << n):
            assignment = {v: bool((index >> (v - 1)) & 1) for v in formula.variables}
            direct = evaluate_weight(weights, assignment) if \
                evaluate_formula(formula, assignment) else 0.0
            assert result.values[index] == pytest.approx(direct, rel=1e-12)
