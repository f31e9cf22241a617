import math
import random
import sys
import threading

import pytest

from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.diagram import DiagramManager
from xormpe.errors import GuardError
from xormpe.executor import (
    Observer,
    count,
    solve,
    solve_monolithic,
    valuate,
    verify_checkpoints,
)
from xormpe.formula import (
    Formula,
    WeightFunction,
    evaluate_formula,
    evaluate_weight,
)
from xormpe.oracle import brute_solve
from xormpe.planner import Heuristic, ProjectJoinTree, heuristic_order, plan

from conftest import FaultyManager, disj, injected_fault, xor


def plan_for(formula, heuristic=Heuristic.MIN_FILL):
    return plan(formula, heuristic_order(formula, heuristic))


def direct_value(formula, weights, assignment):
    if not evaluate_formula(formula, assignment):
        return 0.0
    return evaluate_weight(weights, assignment)


def random_instance(trial, max_n=10):
    rng = random.Random(7000 + trial)
    n = rng.randint(1, max_n)
    m = rng.randint(0, 2 * n)
    formula, weights = gen_random(n, m, rng.randint(1, min(n, 4)),
                                  rng.choice([0.0, 0.3, 0.5, 1.0]), 7000 + trial)
    if trial % 5 == 0 and n >= 1:
        weights.set_literal(rng.choice([-1, 1]) * rng.randint(1, n), 0.0)
    return formula, weights


# ----------------------------------------------------------------- small cases

def test_solve_unit_clause():
    formula = Formula(1, [disj(1)])
    weights = WeightFunction({1: (10, 100)})
    result = solve(formula, weights, plan_for(formula))
    assert result.maximum == 100.0
    assert result.maximizer == {1: True}
    assert not result.no_model
    mono = solve_monolithic(formula, weights)
    assert (mono.maximum, mono.maximizer) == (result.maximum, result.maximizer)


def test_solve_weighted_xor():
    formula = Formula(2, [xor(1, 2)])
    weights = WeightFunction({1: (10, 100), 2: (100, 10)})
    result = solve(formula, weights, plan_for(formula))
    assert result.maximum == 10000.0
    assert result.maximizer == {1: True, 2: False}
    mono = solve_monolithic(formula, weights)
    assert (mono.maximum, mono.maximizer) == (result.maximum, result.maximizer)


def test_solve_unsatisfiable():
    formula = Formula(1, [disj(1), disj(-1)])
    weights = WeightFunction({1: (10, 100)})
    result = solve(formula, weights, plan_for(formula))
    assert result.maximum == 0.0
    assert result.no_model
    assert set(result.maximizer) == {1}
    mono = solve_monolithic(formula, weights)
    assert (mono.maximum, mono.maximizer) == (result.maximum, result.maximizer)


def test_solve_empty_formula_weights_only():
    formula = Formula(2, [])
    weights = WeightFunction({1: (10, 100), 2: (10, 100)})
    result = solve_monolithic(formula, weights)
    assert result.maximum == 10000.0
    assert result.maximizer == {1: True, 2: True}
    dp = solve(formula, weights, plan_for(formula))
    assert (dp.maximum, dp.maximizer) == (result.maximum, result.maximizer)


def test_unconstrained_variable_prefers_heavier_polarity():
    # minimal trap: nothing constrains x1, and assigning it 0 weighs more;
    # the recorded sign must reflect the weight, not a bare tie
    formula = Formula(1, [])
    weights = WeightFunction({1: (100, 10)})
    result = solve(formula, weights, plan_for(formula))
    assert result.maximum == 100.0
    assert result.maximizer == {1: False}


def test_monolithic_guard():
    with pytest.raises(GuardError, match="monolithic limit exceeded"):
        solve_monolithic(Formula(40, []), WeightFunction())


def test_solve_rejects_unknown_mode(mixed6, unit_weights, mixed6_tree):
    with pytest.raises(ValueError):
        solve(mixed6, unit_weights, mixed6_tree, mode="log2")


# -------------------------------------------------------------------- valuate

def test_valuate_leaf_pushes_nothing(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager(list(mixed6.variables))
    stack = []
    f = valuate(mgr, mixed6, mixed6_tree, unit_weights, node=2, stack=stack)
    assert f == mgr.from_clause(mixed6.clauses[2])
    assert stack == []


def test_valuate_x3_x5_subtree(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager(list(mixed6.variables))
    stack = []
    f = valuate(mgr, mixed6, mixed6_tree, unit_weights, node=8, stack=stack)
    assert f == mgr.constant(1)
    assert [sign.var for sign in stack] == [3, 5]


def test_valuate_root(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager(list(mixed6.variables))
    stack = []
    f = valuate(mgr, mixed6, mixed6_tree, unit_weights, stack=stack)
    assert f == mgr.constant(1)
    assert len(stack) == 6
    assert sorted(sign.var for sign in stack) == [1, 2, 3, 4, 5, 6]


def test_sign_stack_order_follows_traversal(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager(list(mixed6.variables))
    stack = []
    valuate(mgr, mixed6, mixed6_tree, unit_weights, stack=stack)
    assert [sign.var for sign in stack] == [2, 4, 6, 1, 3, 5]


# ------------------------------------------------------------ oracle agreement

def test_solve_matches_oracle_randomized():
    for trial in range(60):
        formula, weights = random_instance(trial)
        tree = plan_for(formula)
        result = solve(formula, weights, tree)
        reference = brute_solve(formula, weights)
        assert result.maximum == pytest.approx(reference.maximum, rel=1e-9)
        assert reference.is_maximizer(result.maximizer)
        assert direct_value(formula, weights, result.maximizer) == \
            pytest.approx(result.maximum, rel=1e-9)
        assert len(result.maximizer) == formula.var_count


def test_monolithic_matches_dp_randomized():
    for trial in range(25):
        formula, weights = random_instance(trial, max_n=8)
        result = solve(formula, weights, plan_for(formula))
        mono = solve_monolithic(formula, weights)
        assert mono.maximum == pytest.approx(result.maximum, rel=1e-9)
        reference = brute_solve(formula, weights)
        assert reference.is_maximizer(mono.maximizer)


def test_plan_independence_randomized():
    for trial in range(25):
        formula, weights = random_instance(trial)
        a = solve(formula, weights, plan_for(formula, Heuristic.MIN_DEGREE))
        b = solve(formula, weights, plan_for(formula, Heuristic.MIN_FILL))
        c = solve(formula, weights, plan_for(formula, Heuristic.LEXICOGRAPHIC))
        assert a.maximum == pytest.approx(b.maximum, rel=1e-9)
        assert a.maximum == pytest.approx(c.maximum, rel=1e-9)


def test_solve_same_result_on_handmade_and_planned_tree(mixed6, mixed6_tree):
    weights = WeightFunction({v: (0.5, 2.0) for v in mixed6.variables})
    handmade = solve(mixed6, weights, mixed6_tree)
    planned = solve(mixed6, weights, plan_for(mixed6))
    assert handmade.maximum == pytest.approx(planned.maximum, rel=1e-12)
    reference = brute_solve(mixed6, weights)
    assert reference.is_maximizer(handmade.maximizer)
    assert reference.is_maximizer(planned.maximizer)


# ----------------------------------------------------------------------- count

def test_count_examples():
    formula = Formula(1, [disj(1)])
    assert count(formula, WeightFunction(), plan_for(formula)) == 1.0
    formula = Formula(2, [xor(1, 2)])
    assert count(formula, WeightFunction(), plan_for(formula)) == 2.0
    weights = WeightFunction({1: (10, 100), 2: (100, 10)})
    assert count(formula, weights, plan_for(formula)) == 10100.0


def test_count_matches_oracle_randomized():
    for trial in range(40):
        formula, weights = random_instance(trial)
        value = count(formula, weights, plan_for(formula))
        reference = brute_solve(formula, weights)
        assert value == pytest.approx(reference.wmc, rel=1e-9)


# -------------------------------------------------------------------- log mode

def test_log_mode_consistency_randomized():
    for trial in range(40):
        formula, weights = random_instance(trial)
        tree = plan_for(formula)
        linear = solve(formula, weights, tree, mode="linear")
        logged = solve(formula, weights, tree, mode="log10")
        if linear.maximum == 0.0:
            assert logged.maximum == float("-inf")
            assert logged.no_model
        else:
            assert abs(math.log10(linear.maximum) - logged.maximum) <= 1e-6


def test_log_mode_chain_large_weights():
    formula, weights = gen_chain(ChainSpec(60, 6, 2))
    tree = plan(formula, list(formula.variables))
    logged = solve(formula, weights, tree, mode="log10")
    if not logged.no_model:
        # the linear value would be around 100^60; check the maximizer instead
        assert_log_maximizer(formula, weights, logged)


def assert_log_maximizer(formula, weights, logged):
    chosen = logged.maximizer
    assert evaluate_formula(formula, chosen)
    log_direct = sum(math.log10(weights.weight(v, chosen[v]))
                     for v in formula.variables)
    assert log_direct == pytest.approx(logged.maximum, rel=1e-9)


def test_linear_overflow_raises_guard_error():
    # the README example: its optimum, about 10^548, is past double range
    formula, weights = gen_chain(ChainSpec(300, 20, 7))
    tree = plan_for(formula)
    with pytest.raises(GuardError, match="--mode log10"):
        solve(formula, weights, tree, mode="linear")
    logged = solve(formula, weights, tree, mode="log10")
    assert 540 < logged.maximum < 560
    assert_log_maximizer(formula, weights, logged)


def test_linear_count_overflow_raises_guard_error():
    formula = Formula(400, [])
    weights = WeightFunction({v: (10, 100) for v in formula.variables})
    with pytest.raises(GuardError, match="--mode log10"):
        count(formula, weights, plan_for(formula))


def test_linear_underflow_raises_guard_error():
    # 400 free variables: the optimum, 0.02^400 = 10^-679.6, is far below the
    # smallest double
    formula = Formula(400, [])
    weights = WeightFunction({v: (0.02, 0.01) for v in formula.variables})
    tree = plan_for(formula)
    with pytest.raises(GuardError, match="--mode log10"):
        solve(formula, weights, tree, mode="linear")
    with pytest.raises(GuardError, match="--mode log10"):
        count(formula, weights, tree)
    logged = solve(formula, weights, tree, mode="log10")
    assert logged.maximum == pytest.approx(400 * math.log10(0.02), rel=1e-12)
    assert logged.maximizer == {v: False for v in formula.variables}


@pytest.mark.parametrize("formula, weights", [
    (Formula(3, []), WeightFunction({2: (0, 0), 3: (0.5, 0.25)})),
    (Formula(2, [disj(1), disj(-1)]), WeightFunction({1: (0.5, 0.25)})),
], ids=["zero-weight", "unsatisfiable"])
def test_zero_maximum_is_not_underflow(formula, weights):
    tree = plan_for(formula)
    result = solve(formula, weights, tree, mode="linear")
    assert result.maximum == 0.0
    assert result.no_model
    assert count(formula, weights, tree) == 0.0


# ------------------------------------------------------------------ statistics

def test_stats_report_width_and_peak(mixed6, unit_weights, mixed6_tree):
    result = solve(mixed6, unit_weights, mixed6_tree)
    assert result.stats.width == 2
    assert result.stats.peak_nodes >= 3
    assert result.stats.exec_seconds >= 0.0


def test_solve_computes_width_once(mixed6, unit_weights, mixed6_tree, monkeypatch):
    calls = 0
    width = ProjectJoinTree.width

    def counting(tree):
        nonlocal calls
        calls += 1
        return width(tree)

    monkeypatch.setattr(ProjectJoinTree, "width", counting)
    assert solve(mixed6, unit_weights, mixed6_tree).stats.width == 2
    assert calls == 1


def test_solve_joins_once_per_later_child_and_projected_variable(
        mixed6, unit_weights, mixed6_tree, monkeypatch):
    # each internal node starts from its first child and joins the others,
    # then joins one weight per projected variable: (0 + 0 + 2 + 1 + 1) + 6
    calls = 0
    join = DiagramManager.join

    def counting(manager, f, g):
        nonlocal calls
        calls += 1
        return join(manager, f, g)

    monkeypatch.setattr(DiagramManager, "join", counting)
    solve(mixed6, unit_weights, mixed6_tree)
    assert calls == 10


def test_want_dot_keeps_largest_diagram(mixed6, unit_weights, mixed6_tree):
    result = solve(mixed6, unit_weights, mixed6_tree, want_dot=True)
    assert result.stats.largest_dot is not None
    assert result.stats.largest_dot.startswith("digraph")


# ----------------------------------------------------------------- checkpoints

def test_verify_passes_on_small_instances(mixed6, unit_weights, mixed6_tree):
    assert verify_checkpoints(mixed6, unit_weights, mixed6_tree) is None
    weights = WeightFunction({v: (0.25, 2.0) for v in mixed6.variables})
    assert verify_checkpoints(mixed6, weights, mixed6_tree) is None
    for trial in range(20):
        formula, w = random_instance(trial, max_n=8)
        assert verify_checkpoints(formula, w, plan_for(formula)) is None


def test_verify_guard():
    formula = Formula(17, [])
    with pytest.raises(GuardError, match="verification limit"):
        verify_checkpoints(formula, WeightFunction(), plan_for(formula))


def test_fault_skip_weight_caught_at_project_condition():
    formula = Formula(1, [disj(1)])
    weights = WeightFunction({1: (10, 100)})
    with injected_fault("skip_weight_join"):
        failure = verify_checkpoints(formula, weights, plan_for(formula))
    assert failure is not None
    assert failure.checkpoint == "project-condition"


def test_fault_push_after_project_caught():
    formula = Formula(1, [disj(-1)])
    weights = WeightFunction()
    with injected_fault("push_after_project"):
        failure = verify_checkpoints(formula, weights, plan_for(formula))
    assert failure is not None
    assert failure.checkpoint in ("maximizer-push", "maximizer-pop")


def test_fault_tie_break_caught_by_canonical_tie_oracle():
    # all-tie instance: the sign convention must choose 1 everywhere, so the
    # canonical maximizer is all-ones; the flipped tie-break deviates while
    # still returning a maximizer, which is exactly why the convention is
    # pinned by this test rather than by a checkpoint
    formula = Formula(3, [])
    weights = WeightFunction()
    tree = plan_for(formula)
    straight = solve(formula, weights, tree)
    assert straight.maximizer == {1: True, 2: True, 3: True}
    with injected_fault("tie_break_low"):
        flipped = solve(formula, weights, tree)
        # checkpoints do not catch it: both assignments are maximizers
        assert verify_checkpoints(formula, weights, tree) is None
    assert flipped.maximizer == {1: False, 2: False, 3: False}
    assert flipped.maximizer != straight.maximizer


def test_faults_detected_by_oracle_tests_somewhere():
    detected = {"skip_weight_join": False, "push_after_project": False}
    for trial in range(30):
        formula, weights = random_instance(trial, max_n=6)
        tree = plan_for(formula)
        reference = brute_solve(formula, weights)
        for fault in detected:
            with injected_fault(fault):
                result = solve(formula, weights, tree)
            wrong_max = abs(result.maximum - reference.maximum) > \
                1e-9 * max(1.0, abs(reference.maximum))
            wrong_witness = not reference.is_maximizer(result.maximizer)
            if wrong_max or wrong_witness:
                detected[fault] = True
    assert all(detected.values())


def test_unknown_fault_rejected(mixed6, unit_weights, mixed6_tree):
    with pytest.raises(ValueError):
        with injected_fault("nonsense"):
            solve(mixed6, unit_weights, mixed6_tree)
    with pytest.raises(ValueError):
        FaultyManager([1], fault="nonsense")


# ---------------------------------------------------------------- deep trees

def test_deep_left_linear_tree_does_not_overflow_stack():
    formula, weights = gen_chain(ChainSpec(1200, 2, 4))
    tree = plan(formula, list(formula.variables))
    result = solve(formula, weights, tree, mode="log10")
    assert len(result.maximizer) == 1200


def wide_clause_instance(width):
    # one clause over every variable under a leaf plus root: the tree is
    # shallow, but the diagram kernels recurse once per level, width deep
    formula = Formula(width, [disj(*range(1, width + 1))])
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0], formula.variables)
    return formula, tree


def test_wide_shallow_tree_solves():
    formula, tree = wide_clause_instance(1200)
    before = sys.getrecursionlimit()
    result = solve(formula, WeightFunction(), tree)
    assert result.maximum == 1.0
    assert result.maximizer == {v: True for v in formula.variables}
    assert sys.getrecursionlimit() >= before


def test_narrow_solve_in_another_thread_keeps_wide_solve_depth():
    # a narrow solve that runs while a wide one is under way, here in another
    # thread between the wide root's joins and its deep projections, must
    # not take away the recursion depth the wide solve needs
    wide, wide_tree = wide_clause_instance(1500)
    narrow, narrow_weights = gen_chain(ChainSpec(40, 2, 3))
    narrow_tree = plan(narrow, list(narrow.variables))

    class NarrowSolveMidway(Observer):
        def joins_done(self, node, f):
            thread = threading.Thread(target=solve,
                                      args=(narrow, narrow_weights, narrow_tree))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

    result = solve(wide, WeightFunction(), wide_tree, observer=NarrowSolveMidway())
    assert result.maximum == 1.0
    assert all(result.maximizer.values())


def test_solve_leaves_recursion_limit_alone():
    class LimitWatcher(Observer):
        def __init__(self):
            super().__init__()
            self.limits = set()

        def enter(self, node):
            self.limits.add(sys.getrecursionlimit())

    formula, weights = gen_chain(ChainSpec(300, 2, 4))
    tree = plan(formula, list(formula.variables))
    before = sys.getrecursionlimit()
    watcher = LimitWatcher()
    solve(formula, weights, tree, mode="log10", observer=watcher)
    assert watcher.limits == {before}
    assert sys.getrecursionlimit() == before
