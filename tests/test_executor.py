import gc
import math
import random
import sys
import threading
import time
import weakref
from collections import Counter
from types import MappingProxyType

import pytest

from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.cli import main
from xormpe.diagram import DerivativeSign, DiagramManager
from xormpe.errors import GuardError, InternalError
from xormpe import executor, oracle
from xormpe.executor import Observer, count, solve, valuate
from xormpe.formula import (
    Clause,
    ClauseKind,
    Formula,
    WeightFunction,
    evaluate_formula,
    evaluate_weight,
    format_formula,
)
from xormpe.oracle import CheckpointFailure, brute_solve, verify_checkpoints
from xormpe.planner import Heuristic, ProjectJoinTree, heuristic_order, plan, validate

from conftest import (FaultyManager, disj, injected_fault, recursion_limit, solve_monolithic,
                      xor)


MODES = ("linear", "log10")


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


def test_solve_rejects_unknown_mode(mixed6, unit_weights, mixed6_tree):
    with pytest.raises(ValueError):
        solve(mixed6, unit_weights, mixed6_tree, mode="log2")


def test_solve_rejects_a_tree_that_leaves_out_a_clause():
    # the root meets only clause 0; without clause 1 (-x2) the solve would
    # return 10 with x2 true, where the answer is 2
    formula = Formula(2, [disj(1, 2), disj(-2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 5)})
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0], [1, 2])
    assert brute_solve(formula, weights).maximum == 2.0
    with pytest.raises(ValueError, match="leaves out clause 1"):
        solve(formula, weights, tree)


def test_count_rejects_a_tree_that_projects_a_variable_twice():
    # summing x1 out twice would triple the count: 51 for 17
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 5)})
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([tree.add_internal([0], [1])], [1, 2])
    assert brute_solve(formula, weights).wmc == 17.0
    with pytest.raises(ValueError, match="variable 1 twice"):
        count(formula, weights, tree)


def test_count_and_solve_reject_a_clause_outside_its_projecting_node():
    # x1 is summed out over clause 0 alone, so clause 1 meets a function that
    # no longer depends on x1: the count would be 1.0, where the WMC is 2.0
    formula = Formula(2, [xor(1, 2), xor(1, 2)])
    weights = WeightFunction()
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([tree.add_internal([0], [1]), 1], [2])
    assert brute_solve(formula, weights).wmc == 2.0
    violation = validate(tree, formula)
    assert violation.message == "clause 1 uses variable 1 but is not below node 2"
    for run in (solve, count):
        with pytest.raises(ValueError) as info:
            run(formula, weights, tree)
        assert str(info.value) == violation.message


@pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
def test_count_and_solve_reject_a_projected_variable_that_is_not_an_int(index):
    # 1.0 and True both equal 1, so the tree would project x1 and the
    # maximizer would hold the float or bool as a variable
    formula = Formula(2, [xor(1, 2)])
    weights = WeightFunction({1: (1, 2)})
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0], [index, 2])
    violation = validate(tree, formula)
    assert violation.kind == "partition"
    assert violation.message == f"projected variable {index!r} is not an int in 1..2"
    for run in (solve, count):
        with pytest.raises(ValueError) as info:
            run(formula, weights, tree)
        assert str(info.value) == violation.message


# -------------------------------------------------------------------- valuate

def test_valuate_root(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager()
    stack = []
    f = valuate(mgr, mixed6, mixed6_tree, unit_weights, stack=stack)
    assert f == mgr.one()
    assert len(stack) == 6
    assert sorted(sign.var for sign in stack) == [1, 2, 3, 4, 5, 6]


def test_sign_stack_order_follows_traversal(mixed6, unit_weights, mixed6_tree):
    mgr = DiagramManager()
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


def test_solve_and_count_walk_the_tree_once(mixed6, unit_weights, mixed6_tree, monkeypatch):
    # the walk that checks the tree is the order the valuation follows
    calls = 0
    post_order = ProjectJoinTree.post_order

    def counting(tree):
        nonlocal calls
        calls += 1
        return post_order(tree)

    monkeypatch.setattr(ProjectJoinTree, "post_order", counting)
    solve(mixed6, unit_weights, mixed6_tree)
    assert calls == 1
    count(mixed6, unit_weights, mixed6_tree)
    assert calls == 2


def test_solve_joins_once_per_later_child_and_projected_variable(
        mixed6, unit_weights, mixed6_tree, monkeypatch):
    # each internal node starts from its first child and joins the others,
    # but a node that projects fuses its last child into its first
    # projection: 0 + 0 + 1 + 0 + 1; each of the six variables is projected
    # once, its weights taken in by the projection, never by a join
    calls = {"join": 0, "exists_project": 0}
    for name in calls:
        def counting(manager, *args, _name=name, _method=getattr(DiagramManager, name)):
            calls[_name] += 1
            return _method(manager, *args)

        monkeypatch.setattr(DiagramManager, name, counting)
    solve(mixed6, unit_weights, mixed6_tree)
    assert calls == {"join": 2, "exists_project": 6}


def test_peak_nodes_counts_allocated_nodes(mixed6, unit_weights, mixed6_tree):
    # the base observer keeps the manager it is set up with; a solve frees
    # no node, so the manager's final count is the solve's peak
    observer = Observer()
    result = solve(mixed6, unit_weights, mixed6_tree, observer=observer)
    assert result.stats.peak_nodes == observer.manager.node_count()


def test_each_node_is_stored_once_as_its_unique_key(mixed6, unit_weights, mixed6_tree):
    # node i's record is the key the unique table maps to i, and every node
    # but the terminal has exactly one entry there
    managers = []
    for mode in ("linear", "log10"):
        observer = Observer()
        solve(mixed6, unit_weights, mixed6_tree, mode=mode, observer=observer)
        managers.append(observer.manager)
    counting = DiagramManager()
    valuate(counting, mixed6, mixed6_tree, unit_weights, project=counting.add_project)
    managers.append(counting)
    for mgr in managers:
        assert mgr.node_count() > 1
        assert mgr.node_count() == len(mgr._unique) + 1
        for i in range(1, mgr.node_count()):
            assert mgr._unique[mgr._nodes[i]] == i


def test_op_cache_holds_one_operation():
    # every join and projection empties the cache as it starts, so a long
    # solve never holds more than the entries of the operation in progress
    class CacheWatcher(Observer):
        most = 0

        def watch(self, *args):
            self.most = max(self.most, len(self.manager._cache))

        child_joined = projected = exit = watch

    formula, weights = gen_chain(ChainSpec(20000, 2, 1))
    watcher = CacheWatcher()
    solve(formula, weights, plan(formula, list(formula.variables)), mode="log10",
          observer=watcher)
    assert watcher.most <= 8


class Projections(Observer):
    def __init__(self):
        super().__init__()
        self.events = []

    def projected(self, node, var, h, previous, result, sign):
        self.events.append((node, var, h, previous, sign))


def test_each_projection_is_one_event(mixed6, unit_weights, mixed6_tree):
    # solve reports every variable in one projected event; only the first
    # projection at a node with two or more children, x1 at n8 and x3 at n9,
    # takes a child's valuation h in, and sign is the entry it pushed
    n8, n9 = (next(i for i, n in enumerate(mixed6_tree.nodes) if n.pi == pi)
              for pi in ({1}, {3, 5}))
    observer = Projections()
    solve(mixed6, unit_weights, mixed6_tree, observer=observer)
    assert sorted(var for _, var, *_ in observer.events) == [1, 2, 3, 4, 5, 6]
    assert {(node, var) for node, var, h, *_ in observer.events if h is not None} == {
        (n8, 1), (n9, 3)}
    for _, var, h, previous, sign in observer.events:
        assert (sign.var, sign.function, sign.factor) == (var, previous, h)

    stack, observer = [], Projections()
    valuate(DiagramManager(), mixed6, mixed6_tree, unit_weights, stack=stack,
            observer=observer)
    assert len(observer.events) == len(stack) == 6
    assert all(sign is entry for (*_, sign), entry in zip(observer.events, stack))

    # count keeps no signs
    manager, observer = DiagramManager(), Projections()
    valuate(manager, mixed6, mixed6_tree, unit_weights, project=manager.add_project,
            observer=observer)
    assert [sign for *_, sign in observer.events] == [None] * 6


@pytest.mark.parametrize("mode", ["linear", "log10"])
def test_weights_are_converted_once_per_projected_variable(
        mixed6, mixed6_tree, mode, monkeypatch):
    # the sign is built from the pair the projection converts, so a solve
    # takes each variable's weights into the value domain once (two log10
    # calls in log10 mode), and so does a count
    calls = []
    convert = DiagramManager._weights

    def counting(manager, var, w_neg, w_pos):
        calls.append(var)
        return convert(manager, var, w_neg, w_pos)

    monkeypatch.setattr(DiagramManager, "_weights", counting)
    weights = WeightFunction({v: (0.25, 2.0) for v in mixed6.variables})
    solve(mixed6, weights, mixed6_tree, mode=mode)
    assert sorted(calls) == list(mixed6.variables)
    if mode == "linear":
        calls.clear()
        count(mixed6, weights, mixed6_tree)
        assert sorted(calls) == list(mixed6.variables)


def test_a_finished_solve_frees_its_manager_without_the_cycle_collector():
    class Watch(Observer):
        def setup(self, manager):
            self.manager = weakref.ref(manager)

    formula, weights = gen_chain(ChainSpec(2000, 2, 1))
    tree = plan(formula, list(formula.variables))
    gc.collect()
    gc.disable()
    try:
        watch = Watch()
        solve(formula, weights, tree, mode="log10", observer=watch)
        assert watch.manager() is None
        manager = DiagramManager(log_mode=True)
        root = valuate(manager, formula, tree, weights)
        freed = weakref.ref(manager)
        del manager, root
        assert freed() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------- checkpoints

def test_verify_passes_on_small_instances(mixed6, unit_weights, mixed6_tree):
    assert verify_checkpoints(mixed6, unit_weights, mixed6_tree) is None
    weights = WeightFunction({v: (0.25, 2.0) for v in mixed6.variables})
    assert verify_checkpoints(mixed6, weights, mixed6_tree) is None
    for trial in range(20):
        formula, w = random_instance(trial, max_n=8)
        assert verify_checkpoints(formula, w, plan_for(formula)) is None


def test_verify_checks_each_state_once(mixed6, unit_weights, mixed6_tree, monkeypatch):
    # one dense check per leaf (5), per join (2) and per projection (6), a
    # fused join and projection (at n8 and n9) counting as one projection
    calls = []
    check = oracle._Verifier._check

    def counting(verifier, checkpoint, *args, **kwargs):
        calls.append(checkpoint)
        return check(verifier, checkpoint, *args, **kwargs)

    monkeypatch.setattr(oracle._Verifier, "_check", counting)
    for mode in MODES:
        calls.clear()
        assert verify_checkpoints(mixed6, unit_weights, mixed6_tree, mode=mode) is None
        assert Counter(calls) == {"pre-condition": 5, "join-condition": 2,
                                  "project-condition": 6}, mode


def test_verify_guard():
    # the bound is on the tree's width, not on the variable count
    formula = Formula(21, [])
    tree = plan_for(formula)
    assert tree.width() == 21
    with pytest.raises(GuardError, match="verification limit"):
        verify_checkpoints(formula, WeightFunction(), tree)


def test_fault_skip_weight_caught_at_project_condition():
    formula = Formula(1, [disj(1)])
    weights = WeightFunction({1: (10, 100)})
    for mode in MODES:
        with injected_fault("skip_weight_join"):
            failure = verify_checkpoints(formula, weights, plan_for(formula), mode=mode)
        # the failure is the exception the checkpoint raised, returned
        assert isinstance(failure, CheckpointFailure)
        assert str(failure) == failure.message
        assert (failure.checkpoint, failure.node, failure.variable) == \
            ("project-condition", 1, 1), mode


def test_fault_second_join_caught_at_its_node(mixed6, mixed6_tree):
    # leaf 2 is fused into n8's projection of x1, so the second join is the
    # root's, of n9's valuation: max over x3, x5 of xor(3, 5), not both, and
    # their weights, the constant 2 * 0.25, which the fault leaves out
    weights = WeightFunction({v: (0.25, 2.0) for v in mixed6.variables})
    for mode in MODES:
        with injected_fault("second_join_left"):
            failure = verify_checkpoints(mixed6, weights, mixed6_tree, mode=mode)
        assert failure is not None
        assert (failure.checkpoint, failure.node) == ("join-condition", mixed6_tree.root), mode


def test_fault_drop_fused_operand_caught_at_project_condition():
    # the root joins nothing and fuses clause -1 into its projection of x1:
    # without it, max over x1 of (x1 or x2) is 1, not x2
    formula = Formula(2, [disj(1, 2), disj(-1)])
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0, 1], [1, 2])
    for mode in MODES:
        assert verify_checkpoints(formula, WeightFunction(), tree, mode=mode) is None
        with injected_fault("drop_fused_operand"):
            failure = verify_checkpoints(formula, WeightFunction(), tree, mode=mode)
        assert failure is not None
        assert (failure.checkpoint, failure.node, failure.variable) == \
            ("project-condition", tree.root, 1), mode


def test_fault_push_after_project_caught():
    formula = Formula(1, [disj(-1)])
    weights = WeightFunction()
    for mode in MODES:
        with injected_fault("push_after_project"):
            failure = verify_checkpoints(formula, weights, plan_for(formula), mode=mode)
        assert isinstance(failure, CheckpointFailure)
        assert (failure.checkpoint, failure.node, failure.variable) == \
            ("maximizer-push", 1, 1), mode


def _dropping_lowest_literal(from_clause):
    """from_clause, but a disjunction of three literals or more loses its
    lowest one: a stricter clause, so every answer stays feasible."""
    def dropping(manager, clause):
        if clause.kind is ClauseKind.DISJUNCTION and len(clause.literals) >= 3:
            lowest = min(clause.literals, key=lambda lit: lit.var)
            clause = Clause(clause.kind, tuple(l for l in clause.literals if l != lowest))
        return from_clause(manager, clause)

    return dropping


def test_fault_clause_dropping_a_literal_caught_at_pre_condition(monkeypatch):
    # x1 or x2 or x3 built as x2 or x3: stricter, so the solve's answer is
    # still feasible and certified, but leaf 0 is not its clause's indicator
    formula = Formula(3, [disj(1, 2, 3)])
    monkeypatch.setattr(DiagramManager, "from_clause",
                        _dropping_lowest_literal(DiagramManager.from_clause))
    tree = plan_for(formula)
    assert solve(formula, WeightFunction(), tree).maximum == 1.0
    failure = verify_checkpoints(formula, WeightFunction(), tree)
    assert failure is not None
    assert (failure.checkpoint, failure.node, failure.variable) == ("pre-condition", 0, None)


def test_verify_takes_each_child_exactly_once():
    # the root starts from leaf 0's valuation; taking it again, or exiting
    # with it as the root's function so far, leaves leaf 1 behind, which
    # only the record of the children taken sees
    formula = Formula(2, [disj(1), disj(2)])
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0, 1], [1, 2])
    for event in ("child_joined", "exit"):
        verifier = oracle._Verifier(formula, WeightFunction(), tree)
        manager = DiagramManager()
        verifier.setup(manager)
        leaves = [manager.from_clause(clause) for clause in formula.clauses]
        for leaf, f in enumerate(leaves):
            verifier.exit(leaf, f)
        with pytest.raises(CheckpointFailure) as caught:
            if event == "exit":
                verifier.exit(tree.root, leaves[0])
            else:
                verifier.child_joined(tree.root, leaves[0], leaves[0],
                                      manager.join(leaves[0], leaves[0]))
        assert (caught.value.checkpoint, caught.value.node) == ("join-condition", tree.root)


def test_verify_checks_the_function_a_node_works_on():
    # the root's function so far is leaf 0's valuation, not the unit
    formula = Formula(2, [disj(1), disj(2)])
    tree = ProjectJoinTree(formula)
    tree.root = tree.add_internal([0, 1], [1, 2])
    verifier = oracle._Verifier(formula, WeightFunction(), tree)
    manager = DiagramManager()
    verifier.setup(manager)
    leaves = [manager.from_clause(clause) for clause in formula.clauses]
    for leaf, f in enumerate(leaves):
        verifier.exit(leaf, f)
    with pytest.raises(CheckpointFailure, match="works on") as caught:
        verifier.child_joined(tree.root, leaves[1], manager.one(), leaves[1])
    assert (caught.value.checkpoint, caught.value.node) == ("join-condition", tree.root)


def test_fault_leaf_on_another_variable_caught_at_pre_condition(monkeypatch):
    # clause x1 built as x2: leaf 0's table spans x1 alone
    formula = Formula(2, [disj(1), disj(2)])
    from_clause = DiagramManager.from_clause
    monkeypatch.setattr(DiagramManager, "from_clause", lambda manager, clause: from_clause(
        manager, disj(2) if clause == disj(1) else clause))
    failure = verify_checkpoints(formula, WeightFunction(), plan_for(formula))
    assert failure is not None
    assert (failure.checkpoint, failure.node) == ("pre-condition", 0)
    assert "x2" in failure.message


def test_verify_catches_each_fault_at_sixty_variables(monkeypatch):
    # a paper-shape instance: 60 variables and width 16 under min-fill; it
    # has a model, without which skipping a weight leaves every table 0
    formula, weights = gen_random(60, 45, 6, 0.5, 112)
    tree = plan_for(formula)
    assert tree.width() == 16
    faults = {"skip_weight_join": "project-condition", "push_after_project": "maximizer-push",
              "second_join_left": "join-condition", "drop_fused_operand": "project-condition"}
    started = time.perf_counter()
    for mode in MODES:
        assert verify_checkpoints(formula, weights, tree, mode=mode) is None
        for fault, checkpoint in faults.items():
            with injected_fault(fault):
                failure = verify_checkpoints(formula, weights, tree, mode=mode)
            assert failure is not None and failure.checkpoint == checkpoint, (mode, fault)
    monkeypatch.setattr(DiagramManager, "from_clause",
                        _dropping_lowest_literal(DiagramManager.from_clause))
    for mode in MODES:
        failure = verify_checkpoints(formula, weights, tree, mode=mode)
        assert failure is not None and failure.checkpoint == "pre-condition", mode
        assert failure.node < tree.clause_count, mode
    assert time.perf_counter() - started < 2.0


def test_fault_root_value_off_caught_at_maximizer_const(monkeypatch):
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 3)})
    root_value = executor._root_value
    monkeypatch.setattr(executor, "_root_value", lambda root: root_value(root) * (1 + 1e-6))
    failure = verify_checkpoints(formula, weights, plan_for(formula))
    assert failure is not None
    assert failure.checkpoint == "maximizer-const"


def corrupt_sign(monkeypatch, var, corrupt):
    """Every solve builds a manager whose projection of var records
    corrupt(sign) in place of var's true sign; the projection is untouched."""
    class CorruptSign(DiagramManager):
        def exists_project(self, f, x, w_neg=1.0, w_pos=1.0, h=None, signs=None):
            result = super().exists_project(f, x, w_neg, w_pos, h, signs)
            if signs is not None and x == var:
                signs[-1] = corrupt(signs[-1])
            return result

    monkeypatch.setattr(executor, "DiagramManager", CorruptSign)


class _FlippedSign(DerivativeSign):
    def choose(self, assignment):
        return not super().choose(assignment)


def test_sign_with_swapped_weights_fails_only_the_push_check(monkeypatch):
    # x2's sign weighs x2 = 1 at 1 and x2 = 0 at 3, so it picks 0; every
    # projection is right, so the first check to fail is the one that tests
    # the sign as it is pushed, before any pop reaches x2
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 3)})
    tree = plan_for(formula)
    for mode in MODES:
        assert verify_checkpoints(formula, weights, tree, mode=mode) is None
    corrupt_sign(monkeypatch, 2, lambda sign: sign._replace(w_neg=sign.w_pos,
                                                             w_pos=sign.w_neg))
    for mode in MODES:
        failure = verify_checkpoints(formula, weights, tree, mode=mode)
        assert failure is not None
        assert (failure.checkpoint, failure.variable) == ("maximizer-push", 2), mode


def test_flipped_sign_passes_the_push_check_and_fails_its_pop(monkeypatch):
    # the push check compares the sign's record, which is intact, so only the
    # pop that follows its flipped choice takes the lighter side
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 3)})
    corrupt_sign(monkeypatch, 1, lambda sign: _FlippedSign(*sign))
    for mode in MODES:
        failure = verify_checkpoints(formula, weights, plan_for(formula), mode=mode)
        assert failure is not None
        assert (failure.checkpoint, failure.variable) == ("maximizer-pop", 1), mode


def test_pop_check_reads_a_read_only_assignment(monkeypatch, mixed6, unit_weights, mixed6_tree):
    # the pop check only reads the executor's assignment: through a read-only
    # view it gives what the dict gives, a pass on a clean solve and the same
    # failure on a flipped sign
    formula = Formula(2, [disj(1, 2)])
    weights = WeightFunction({1: (1, 2), 2: (1, 3)})

    class ReadOnlyPops(oracle._Verifier):
        def popped(self, var, assignment):
            super().popped(var, MappingProxyType(assignment))

    def verdicts():
        clean = [verify_checkpoints(mixed6, unit_weights, mixed6_tree, mode=mode)
                 for mode in MODES]
        with monkeypatch.context() as patch:
            corrupt_sign(patch, 1, lambda sign: _FlippedSign(*sign))
            flipped = [verify_checkpoints(formula, weights, plan_for(formula), mode=mode)
                       for mode in MODES]
        return clean, [(f.checkpoint, f.variable, f.message) for f in flipped]

    by_dict = verdicts()
    assert by_dict[0] == [None, None]
    assert [failure[:2] for failure in by_dict[1]] == [("maximizer-pop", 1)] * 2
    monkeypatch.setattr(oracle, "_Verifier", ReadOnlyPops)
    assert verdicts() == by_dict


@pytest.mark.parametrize("mode", ["linear", "log10"])
@pytest.mark.parametrize("formula, weights, message", [
    (Formula(2, [disj(1, 2)]), WeightFunction({1: (1, 2), 2: (1, 3)}), "weighs"),
    (Formula(1, [disj(1)]), WeightFunction(), "falsifies a clause"),
], ids=["weight", "clause"])
def test_solve_certifies_its_maximizer(monkeypatch, tmp_path, capsys, mode, formula,
                                       weights, message):
    # one corrupted sign: x1 takes the other polarity, so the maximizer
    # weighs less than the maximum or falsifies a clause; solve refuses it,
    # and the command line exits 1
    tree = plan_for(formula)
    maximum = solve(formula, weights, tree, mode=mode).maximum
    corrupt_sign(monkeypatch, 1, lambda sign: _FlippedSign(*sign))
    with pytest.raises(InternalError, match=message):
        solve(formula, weights, tree, mode=mode)
    path = tmp_path / "instance.xcnf"
    path.write_text(format_formula(formula, weights))
    assert main(["solve", str(path), "--mode", mode]) == 1
    out, err = capsys.readouterr()
    assert "s MAXIMUM" not in out and message in err
    assert maximum > (0.0 if mode == "linear" else -math.inf)


def test_certificate_allows_a_log10_maximum_of_zero():
    # weights 3, 7 and 1/21 on three unit clauses weigh 1: the solve's log10
    # maximum is 0.0 and the maximizer's fsum of log10 weights -5.6e-17, so
    # only the certificate's absolute floor accepts the answer
    formula = Formula(3, [disj(1), disj(2), disj(3)])
    weights = WeightFunction({1: (1.0, 3.0), 2: (1.0, 7.0), 3: (1.0, 1 / 21)})
    result = solve(formula, weights, plan(formula, [1, 2, 3]), mode="log10")
    assert result.maximum == pytest.approx(0.0, abs=1e-12)
    assert result.maximizer == {1: True, 2: True, 3: True}


MIXED_MAGNITUDES = Formula(4, [disj(1), disj(2), disj(3), disj(4), disj(2, 4)])
MIXED_WEIGHTS = WeightFunction({1: (1, 1e-200), 2: (1, 1e-200), 3: (1, 1e200), 4: (1, 1e200)})


@pytest.mark.parametrize("heuristic", list(Heuristic), ids=lambda h: h.value)
def test_linear_certificate_forms_no_product(tmp_path, capsys, heuristic):
    # the optimum weighs 1e-200 * 1e-200 * 1e200 * 1e200 = 1, and the solve
    # finds it, but a running product in variable order underflows to 0.0 at
    # 1e-400; the certificate sums log10 weights, so it accepts the answer
    result = solve(MIXED_MAGNITUDES, MIXED_WEIGHTS, plan_for(MIXED_MAGNITUDES, heuristic))
    assert (result.maximum, result.maximizer_literals()) == (1.0, [1, 2, 3, 4])
    path = tmp_path / "mixed.xcnf"
    path.write_text(format_formula(MIXED_MAGNITUDES, MIXED_WEIGHTS))
    assert main(["solve", str(path), "--plan-heuristic", heuristic.value,
                 "--format", "machine"]) == 0
    assert capsys.readouterr().out == "s MAXIMUM 1\nv 1 2 3 4 0\n"


def test_linear_certificate_accepts_mixed_magnitudes():
    # weights 10^U(-250, 250) on shuffled plans: a linear solve either leaves
    # double range (GuardError) or returns the log10 solve's maximum, certified
    rng = random.Random(0)
    compared = 0
    for trial in range(400):
        n = rng.randint(1, 8)
        formula, _ = gen_random(n, rng.randint(0, 2 * n), rng.randint(1, min(n, 4)), 0.5, trial)
        weights = WeightFunction({v: (10 ** rng.uniform(-250, 250), 10 ** rng.uniform(-250, 250))
                                  for v in formula.variables})
        order = list(formula.variables)
        rng.shuffle(order)
        tree = plan(formula, order)
        log10 = solve(formula, weights, tree, mode="log10")
        try:
            linear = solve(formula, weights, tree, mode="linear")
        except GuardError:
            continue
        assert linear.no_model == log10.no_model
        if not linear.no_model:
            assert abs(math.log10(linear.maximum) - log10.maximum) <= 1e-9
            compared += 1
    assert compared > 100


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
                try:
                    result = solve(formula, weights, tree)
                except InternalError:  # the solve's certificate refused its answer
                    detected[fault] = True
                    continue
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
    with recursion_limit(2 * 1200 + 200):
        before = sys.getrecursionlimit()
        result = solve(formula, WeightFunction(), tree)
        assert result.maximum == 1.0
        assert result.maximizer == {v: True for v in formula.variables}
        assert sys.getrecursionlimit() >= before


def test_a_node_deeper_than_the_recursion_limit_is_refused():
    # the library leaves the limit as its caller set it: the 1,200-variable
    # node needs more frames than 1,000, so the solve raises GuardError
    formula, tree = wide_clause_instance(1200)
    with recursion_limit(1000):
        with pytest.raises(GuardError, match=r"node 1 over 1200 variables .* limit 1000; "
                                             r"raise it with sys\.setrecursionlimit"):
            solve(formula, WeightFunction(), tree)
        assert sys.getrecursionlimit() == 1000
        # a node that fits answers
        formula, tree = wide_clause_instance(900)
        assert solve(formula, WeightFunction(), tree).maximum == 1.0
        assert sys.getrecursionlimit() == 1000


def test_wide_nodes_whose_kernels_stay_shallow_keep_the_recursion_limit():
    # a root projecting 1,200 free variables, and a min-fill tree of width
    # 882, take little depth: both answer at limit 1,000 and leave it there
    empty = Formula(1200, [])
    sparse, weights = gen_random(900, 10, 3, 0.5, 1)
    sparse_tree = plan_for(sparse)
    assert sparse_tree.width() == 882
    with recursion_limit(1000):
        result = solve(empty, WeightFunction(), plan_for(empty, Heuristic.LEXICOGRAPHIC))
        assert (result.maximum, len(result.maximizer)) == (1.0, 1200)
        assert sys.getrecursionlimit() == 1000
        linear = solve(sparse, weights, sparse_tree)
        log10 = solve(sparse, weights, sparse_tree, mode="log10")
        assert math.isclose(math.log10(linear.maximum), log10.maximum, rel_tol=1e-9)
        assert linear.maximizer == log10.maximizer
        assert count(sparse, weights, sparse_tree) >= linear.maximum > 0
        assert sys.getrecursionlimit() == 1000


def test_narrow_solve_in_another_thread_keeps_wide_solve_depth():
    # a narrow solve that runs while a wide one is under way, here in another
    # thread between the wide root's first and second deep projections, must
    # not take away the recursion depth the wide solve needs
    wide, wide_tree = wide_clause_instance(1500)
    narrow, narrow_weights = gen_chain(ChainSpec(40, 2, 3))
    narrow_tree = plan(narrow, list(narrow.variables))

    class NarrowSolveMidway(Observer):
        ran = False

        def projected(self, node, var, h, previous, result, sign):
            if self.ran:
                return
            self.ran = True
            thread = threading.Thread(target=solve,
                                      args=(narrow, narrow_weights, narrow_tree))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

    midway = NarrowSolveMidway()
    with recursion_limit(2 * 1500 + 200):
        result = solve(wide, WeightFunction(), wide_tree, observer=midway)
    assert midway.ran
    assert result.maximum == 1.0
    assert all(result.maximizer.values())


def test_subtree_valuation_sizes_recursion_from_its_own_nodes():
    # a node over more variables than the current limit allows, outside the
    # root's subtree, must not raise the limit for a valuation that never
    # enters it, although it sets the tree's width
    wide = sys.getrecursionlimit()
    formula = Formula(wide + 2, [disj(1, 2), disj(3)])
    tree = ProjectJoinTree(formula)
    tree.add_internal([1], range(3, wide + 3))
    # the root's subtree: narrow nodes that project 1-2, then 3, then 4, 5, ...
    node = tree.add_internal([tree.add_internal([0], [1, 2]), 1], [3])
    for var in range(4, wide + 3):
        node = tree.add_internal([node], [var])
    tree.root = node
    assert validate(tree, formula) is None
    assert tree.width() == wide
    manager = DiagramManager()
    f = valuate(manager, formula, tree, WeightFunction())
    assert f == manager.one()
    assert sys.getrecursionlimit() == wide


def test_solve_leaves_recursion_limit_alone():
    class LimitWatcher(Observer):
        def __init__(self):
            super().__init__()
            self.limits = set()

        def exit(self, node, f):
            self.limits.add(sys.getrecursionlimit())

    formula, weights = gen_chain(ChainSpec(300, 2, 4))
    tree = plan(formula, list(formula.variables))
    before = sys.getrecursionlimit()
    watcher = LimitWatcher()
    solve(formula, weights, tree, mode="log10", observer=watcher)
    assert watcher.limits == {before}
    assert sys.getrecursionlimit() == before
