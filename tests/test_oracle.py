import random
import tracemalloc

import pytest

from xormpe.benchgen import gen_random
from xormpe.diagram import DiagramManager
from xormpe.errors import GuardError
from xormpe.executor import solve
from xormpe.formula import (Formula, WeightFunction, evaluate_formula, evaluate_weight,
                            parse_formula)
from xormpe.oracle import brute_solve, verify_checkpoints
from xormpe.planner import ProjectJoinTree, plan

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
        mgr = DiagramManager()
        f = mgr.one()
        for clause in formula.clauses:
            f = mgr.join(f, mgr.from_clause(clause))
        for var in formula.variables:
            f = mgr.join(f, mgr.literal_weight(var, *weights.pair(var)))
        projected = project_all(mgr.exists_project, f, formula.variables)
        assert projected.evaluate({}) == pytest.approx(result.maximum, rel=1e-9)


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


def test_witness_is_the_least_maximizer():
    assert brute_solve(Formula(0, []), WeightFunction()).witness() == ()
    rng = random.Random(41)
    for trial in range(300):
        n = rng.randint(1, 9)
        formula, weights = gen_random(n, rng.randint(0, 12), rng.randint(1, n),
                                      rng.random(), 4100 + trial)
        result = brute_solve(formula, weights)
        assert result.witness() == min(result.maximizers)


# linear weight products out of double range: an overflowing maximum, an
# underflowing one (the zero row would be read as a maximizer of an
# unsatisfied clause), and an overflow times a zero (NaN)
OUT_OF_RANGE = {
    "overflow": (Formula(2, [disj(1, 2)]), WeightFunction({1: (1, 1e200), 2: (1, 1e200)})),
    "underflow": (Formula(2, [disj(1, 2)]),
                  WeightFunction({1: (1e-200, 1e-200), 2: (1e-200, 1e-200)})),
    "nan": (Formula(2, [disj(-1, -2)]), WeightFunction({1: (1, 1e200), 2: (1, 1e200)})),
}


@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_products_out_of_double_range_raise_guard_error(name):
    formula, weights = OUT_OF_RANGE[name]
    with pytest.raises(GuardError, match="double range"):
        brute_solve(formula, weights)
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal(range(len(formula.clauses)), formula.variables)
    if name == "nan":
        # the linear solve never forms 1e200 * 1e200: x1's projection tops at 1e200
        assert verify_checkpoints(formula, weights, tree) is None
    else:  # the diagram kernels' own guard
        with pytest.raises(GuardError, match="double range"):
            verify_checkpoints(formula, weights, tree)
    assert verify_checkpoints(formula, weights, tree, mode="log10") is None


def test_linear_verify_refuses_a_table_point_out_of_double_range():
    # the linear solve keeps every offset in range, but the verifier's table
    # for node 3's projection of x5 weighs x5 = 1 at 1e-200 * 1e-120 where
    # x1 = 0, below double range, although the max takes the other side; the
    # log10 verifier tabulates logarithms
    formula, weights = parse_formula(
        "p cnf 5 2\n2 0\nx -5 -4 1 0\n" + "".join(
            f"w {lit} {w}\n" for lit, w in [(-1, 1e-120), (1, 1e120), (-2, 1e200), (2, 1.0),
                                            (-3, 1e-200), (3, 1e-200), (-4, 1e-200),
                                            (4, 1e-120), (-5, 1.0), (5, 1e-120)]))
    tree = plan(formula, [3, 4, 5, 2, 1])
    assert solve(formula, weights, tree).maximum == pytest.approx(1e-280, rel=1e-9)
    with pytest.raises(GuardError, match="cannot tabulate"):
        verify_checkpoints(formula, weights, tree)
    assert verify_checkpoints(formula, weights, tree, mode="log10") is None


@pytest.mark.parametrize("formula, weights, maximum", [
    (Formula(2, [disj(1, 2)]), WeightFunction({1: (1, 1e150), 2: (1, 1e150)}),
     1e150 * 1e150),
    # the smallest nonzero product, 1e-300 at (1, 1), is still normal
    (Formula(2, [disj(1, 2)]), WeightFunction({1: (1, 1e-150), 2: (1, 1e-150)}), 1e-150),
    # a variable that weighs 0 both ways zeroes every product before they overflow
    (Formula(3, []), WeightFunction({1: (0, 0), 2: (1e300, 1e300), 3: (1e300, 1e300)}), 0.0),
    # every product and their sum fit, though 1e308 times the 4 points overflows
    (Formula(2, [disj(1, 2)]), WeightFunction({1: (1, 1e300), 2: (1, 1e8)}), 1e308),
])
def test_products_in_double_range_are_enumerated(formula, weights, maximum):
    assert brute_solve(formula, weights).maximum == maximum


def test_enumeration_peaks_below_three_full_tables():
    formula, weights = gen_random(20, 16, 6, 0.5, 3)
    tracemalloc.start()
    try:
        brute_solve(formula, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 << 20  # three float64 tables of 2^20 points
