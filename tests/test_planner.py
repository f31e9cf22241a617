import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from xormpe import planner
from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.diagram import DiagramManager
from xormpe.executor import count, solve, valuate
from xormpe.formula import Clause, Formula, Literal, WeightFunction
from xormpe.planner import (
    Heuristic,
    MalformedTree,
    PjtNode,
    ProjectJoinTree,
    heuristic_order,
    plan,
    primal_graph,
    validate,
)

from conftest import (
    disj,
    reference_descendant_violation,
    reference_order,
    reference_plan,
    xor,
)


def test_mixed6_tree_is_valid(mixed6, mixed6_tree):
    assert validate(mixed6_tree, mixed6) is None
    assert mixed6_tree.width() == 2


def test_mixed6_tree_broken_partition(mixed6, mixed6_tree):
    # strip x1 from the node that projects it
    node = mixed6_tree.nodes[7]
    assert node.pi == {1}
    node.pi = frozenset()
    violation = validate(mixed6_tree, mixed6)
    assert violation is not None
    assert violation.kind == "partition"
    assert violation.variable == 1


def test_mixed6_tree_broken_descendant(mixed6, mixed6_tree):
    # move x6 from its own node into the x3/x5 node: clause 1 (over x1, x6)
    # is not below that node
    mixed6_tree.nodes[6].pi = frozenset()
    node9 = mixed6_tree.nodes[8]
    node9.pi = node9.pi | {6}
    violation = validate(mixed6_tree, mixed6)
    assert violation is not None
    assert violation.kind == "descendant"
    assert violation.variable == 6
    assert violation.clause == 1


@pytest.mark.parametrize("child", [99, -1])
def test_validate_reports_an_out_of_range_child(mixed6, mixed6_tree, child):
    mixed6_tree.nodes[mixed6_tree.root].children.append(child)
    violation = validate(mixed6_tree, mixed6)
    assert violation is not None
    assert violation.kind == "structure"
    assert violation.node == mixed6_tree.root


def make_cycle(tree):
    # node 5 lists node 7, its own parent
    tree.nodes[5].children.append(7)


def share_leaf(tree):
    # leaf 2 is also a child of node 6; the walk meets node 6 second
    tree.nodes[6].children.append(2)


def leaf_under_leaf(tree):
    # leaf 2 leaves node 7 for leaf 1
    tree.nodes[7].children.remove(2)
    tree.nodes[1].children = [2]


def childless_under_root(tree):
    tree.nodes[tree.root].children.append(tree.add_internal([], ()))


@pytest.mark.parametrize("malform, parent", [
    (make_cycle, 5),
    (share_leaf, 6),
    (lambda tree: tree.nodes[6].children.append(-1), 6),
    (lambda tree: tree.nodes[6].children.append(len(tree.nodes)), 6),
    (lambda tree: setattr(tree, "root", -1), None),
    (leaf_under_leaf, 1),
    (childless_under_root, 10),
], ids=["cycle", "shared-node", "child-minus-one", "child-past-the-end", "root-minus-one",
        "leaf-with-children", "internal-node-without-children"])
def test_malformed_trees_are_refused(mixed6, mixed6_tree, unit_weights, malform, parent):
    # an unchecked walk never ends on the cycle, nor on the child -1, which
    # wraps to the root; a child past the end would raise IndexError; with
    # leaf 2 under leaf 1, a walk that ignores a leaf's children counts 12.0,
    # not 8.0
    malform(mixed6_tree)
    violation = validate(mixed6_tree, mixed6)
    assert violation.kind == "structure"
    assert violation.node == parent
    for run in (solve, count, lambda f, w, t: valuate(DiagramManager(), f, t, w)):
        started = time.perf_counter()
        with pytest.raises(MalformedTree) as info:
            run(mixed6, unit_weights, mixed6_tree)
        assert time.perf_counter() - started < 1
        assert (str(info.value), info.value.node) == (violation.message, parent)


def drop_leaf_two(formula):
    tree = plan(formula, formula.variables)
    for node in tree.nodes:
        if 2 in node.children:
            node.children.remove(2)
    return tree


@pytest.mark.parametrize("planned_tree", [
    lambda formula: plan(Formula(6, [*formula.clauses, disj(2, 6)]), formula.variables),
    lambda formula: plan(Formula(6, formula.clauses[:-1]), formula.variables),
    drop_leaf_two,
], ids=["one-clause-more", "one-clause-fewer", "leaf-left-out"])
def test_trees_without_one_leaf_per_clause_are_refused(mixed6, unit_weights, planned_tree):
    # leaf i is clause i: a tree planned for another formula has a leaf too
    # many or too few, and a dropped leaf leaves its clause out; validate and
    # valuate name the fault alike
    tree = planned_tree(mixed6)
    violation = validate(tree, mixed6)
    assert violation.kind == "gamma"
    for run in (solve, count):
        with pytest.raises(ValueError) as info:
            run(mixed6, unit_weights, tree)
        assert str(info.value) == violation.message


def test_primal_graph_chain():
    formula, _ = gen_chain(ChainSpec(5, 2, 0))
    graph = primal_graph(formula)
    assert graph[1] == {2}
    assert graph[3] == {2, 4}


def test_min_degree_on_chain_starts_at_endpoint():
    formula, _ = gen_chain(ChainSpec(5, 2, 0))
    order = heuristic_order(formula, Heuristic.MIN_DEGREE)
    assert order[0] == 1
    assert sorted(order) == [1, 2, 3, 4, 5]


def test_heuristics_on_single_clause():
    formula = Formula(3, [xor(3, 1, 2)])
    for heuristic in Heuristic:
        assert heuristic_order(formula, heuristic) == [1, 2, 3]


def test_lexicographic_order(mixed6):
    assert heuristic_order(mixed6, Heuristic.LEXICOGRAPHIC) == [1, 2, 3, 4, 5, 6]


def test_min_fill_avoids_fill_edges():
    # star over x2 plus an edge x1-x3: eliminating the center first would add
    # two fill edges, every other vertex adds none; the zero-fill tie breaks
    # toward the smallest index
    formula = Formula(4, [disj(1, 2), disj(2, 3), disj(2, 4), disj(1, 3)])
    order = heuristic_order(formula, Heuristic.MIN_FILL)
    assert order[0] == 1
    assert order[0] != 2


def disjoint_blocks(blocks):
    """One formula holding each of blocks on its own range of variables."""
    clauses, offset = [], 0
    for block in blocks:
        for clause in block.clauses:
            clauses.append(Clause(clause.kind, tuple(
                Literal(lit.var + offset, lit.positive) for lit in clause.literals)))
        offset += block.var_count
    return Formula(offset, clauses)


def reference_corpus():
    rng = random.Random(2024)
    for seed in range(300):
        n = rng.randint(1, 40)
        m = rng.randint(0, 60)
        yield gen_random(n, m, rng.randint(1, min(n, 6)), rng.random(), seed)[0]
    for n, k in [(50, 3), (120, 7), (300, 20)]:
        yield gen_chain(ChainSpec(n, k, 3))[0]
    # identical blocks tie on every cost, distinct ones on many
    block = gen_random(20, 25, 4, 0.5, 7)[0]
    yield disjoint_blocks([block] * 4)
    for seed in range(4):
        yield disjoint_blocks([gen_random(20, 30, 4, 0.5, 100 * seed + b)[0]
                               for b in range(4)])
    yield disjoint_blocks([gen_chain(ChainSpec(10, 3, 1))[0]] * 5)


@pytest.mark.parametrize("heuristic", list(Heuristic))
def test_orders_match_reference(heuristic):
    for formula in reference_corpus():
        assert heuristic_order(formula, heuristic) == reference_order(formula, heuristic)


def test_plans_match_holder_index_reference():
    # every heuristic's order, and two seeded shuffles, per formula
    for i, formula in enumerate(reference_corpus()):
        orders = [heuristic_order(formula, heuristic) for heuristic in Heuristic]
        for seed in (2 * i, 2 * i + 1):
            order = list(formula.variables)
            random.Random(seed).shuffle(order)
            orders.append(order)
        for order in orders:
            assert plan(formula, order).to_jt_text() == \
                reference_plan(formula, order).to_jt_text()


@pytest.mark.parametrize("heuristic", [Heuristic.MIN_DEGREE, Heuristic.MIN_FILL])
def test_order_work_is_linear_on_a_path(heuristic, monkeypatch):
    # a rescan of every remaining vertex per step would cost about n*n/2
    n = 2000
    formula, _ = gen_chain(ChainSpec(n, 2, 0))
    calls = 0
    cost = planner._cost

    def counting(*args):
        nonlocal calls
        calls += 1
        return cost(*args)

    monkeypatch.setattr(planner, "_cost", counting)
    assert heuristic_order(formula, heuristic) == list(range(1, n + 1))
    assert calls <= 10 * n


@pytest.mark.parametrize("heuristic", [Heuristic.MIN_DEGREE, Heuristic.MIN_FILL])
def test_orders_match_reference_at_paper_scale(heuristic):
    # widths 16-25 and many fill edges, so every per-step cost change is exercised
    for seed in range(50):
        formula = gen_random(60, 45, 6, 0.5, seed)[0]
        assert heuristic_order(formula, heuristic) == reference_order(formula, heuristic)


@pytest.mark.parametrize("heuristic", [Heuristic.MIN_DEGREE, Heuristic.MIN_FILL])
def test_cost_is_computed_once_per_vertex(heuristic, monkeypatch):
    # later costs come from each elimination's exact changes, not from _cost
    formula, _ = gen_chain(ChainSpec(300, 20, 3))
    calls = 0
    cost = planner._cost

    def counting(*args):
        nonlocal calls
        calls += 1
        return cost(*args)

    monkeypatch.setattr(planner, "_cost", counting)
    heuristic_order(formula, heuristic)
    assert calls == formula.var_count


def test_min_fill_orders_a_long_clause_without_intersecting_sets(monkeypatch):
    # a clause is a clique of the primal graph; intersecting each neighbour
    # set with every neighbour's took cubic time on one this long
    n = 1200
    formula = Formula(n, [disj(*range(1, n + 1))])
    calls = intersecting = 0
    cost = planner._cost

    def counting(adjacency, var, heuristic, clique):
        nonlocal calls, intersecting
        calls += 1
        intersecting += heuristic is Heuristic.MIN_FILL and not clique
        return cost(adjacency, var, heuristic, clique)

    monkeypatch.setattr(planner, "_cost", counting)
    assert heuristic_order(formula, Heuristic.MIN_FILL) == list(range(1, n + 1))
    assert (calls, intersecting) == (n, 0)


@pytest.mark.parametrize("heuristic", [Heuristic.MIN_DEGREE, Heuristic.MIN_FILL])
def test_orders_match_reference_with_a_long_clause(heuristic):
    # the long clause's variables that no short clause holds start at cost 0
    for seed in range(4):
        rng = random.Random(seed)
        n = 50
        clauses = [disj(*rng.sample(range(1, n + 1), 40))]
        for _ in range(12):
            make = xor if rng.random() < 0.5 else disj
            clauses.append(make(*rng.sample(range(1, n + 1), rng.randint(1, 3))))
        formula = Formula(n, clauses)
        assert heuristic_order(formula, heuristic) == reference_order(formula, heuristic)


def test_heuristic_order_takes_a_heuristic_value():
    formula = gen_random(12, 10, 4, 0.5, 3)[0]
    assert heuristic_order(formula, "lex") == list(range(1, 13))
    assert heuristic_order(formula, "min-degree") == \
        heuristic_order(formula, Heuristic.MIN_DEGREE) != \
        heuristic_order(formula, Heuristic.MIN_FILL)
    with pytest.raises(ValueError):
        heuristic_order(formula, "bogus")


def test_plan_single_clause():
    formula = Formula(1, [disj(1)])
    tree = plan(formula, [1])
    assert validate(tree, formula) is None
    assert tree.width() == 1


def test_plan_chain_width_is_k():
    for n, k in [(20, 3), (40, 7), (100, 10)]:
        formula, _ = gen_chain(ChainSpec(n, k, 5))
        tree = plan(formula, list(range(1, n + 1)))
        assert validate(tree, formula) is None
        assert tree.width() == k


def test_plan_mixed6_good_order_matches_handmade_width(mixed6, mixed6_tree):
    tree = plan(mixed6, [2, 4, 6, 1, 3, 5])
    assert validate(tree, mixed6) is None
    assert tree.width() == mixed6_tree.width() == 2


def test_plan_requires_permutation(mixed6):
    with pytest.raises(ValueError):
        plan(mixed6, [1, 2, 3])
    with pytest.raises(ValueError):
        plan(mixed6, [1, 1, 2, 3, 4, 5])


def test_plan_requires_integer_variables():
    formula = Formula(3, [disj(1, 2), disj(2, 3)])
    with pytest.raises(TypeError):
        plan(formula, [3.0, 2, 1])
    tree = plan(formula, np.array([3, 2, 1]))
    assert tree.to_jt_text() == plan(formula, [3, 2, 1]).to_jt_text()
    assert all(type(x) is int for node in tree.nodes for x in node.pi)


def test_plan_empty_formula():
    formula = Formula(0, [])
    tree = plan(formula, [])
    assert validate(tree, formula) is None
    assert tree.width() == 0
    assert tree.root is not None


def test_plan_variable_in_no_clause_goes_to_root():
    formula = Formula(3, [disj(1, 2)])
    tree = plan(formula, [1, 2, 3])
    assert validate(tree, formula) is None
    assert 3 in tree.nodes[tree.root].pi


def test_plan_always_validates_randomized():
    rng = random.Random(99)
    for trial in range(120):
        n = rng.randint(1, 10)
        m = rng.randint(0, 14)
        formula, _ = gen_random(n, m, rng.randint(1, n), rng.random(), trial)
        order = list(formula.variables)
        rng.shuffle(order)
        tree = plan(formula, order)
        assert validate(tree, formula) is None
        if any(formula.clauses):
            assert tree.width() >= 1


def mutate_drop_pi_var(tree):
    for index, node in enumerate(tree.nodes):
        if index >= tree.clause_count and node.pi:
            node.pi = frozenset(sorted(node.pi)[1:])
            return True
    return False


def mutate_duplicate_pi_var(tree):
    source = None
    for index, node in enumerate(tree.nodes):
        if index >= tree.clause_count and node.pi:
            source = min(node.pi)
            break
    if source is None:
        return False
    for index, node in enumerate(tree.nodes):
        if index >= tree.clause_count and source not in node.pi:
            node.pi = node.pi | {source}
            return True
    return False


def mutate_reparent_leaf(tree):
    # lift a leaf from under its projecting ancestor to directly under the root
    root = tree.nodes[tree.root]
    for index, node in enumerate(tree.nodes):
        if index < tree.clause_count or index == tree.root:
            continue
        leaf_children = [c for c in node.children if c < tree.clause_count
                         and tree.nodes[c].vars & node.pi]
        if leaf_children and len(node.children) > 1:
            leaf = leaf_children[0]
            node.children.remove(leaf)
            root.children.append(leaf)
            return True
    return False


@pytest.mark.parametrize("mutate, kinds", [
    (mutate_drop_pi_var, {"partition"}),
    (mutate_duplicate_pi_var, {"partition"}),
    (mutate_reparent_leaf, {"descendant"}),
])
def test_mutations_are_rejected(mutate, kinds):
    rng = random.Random(4)
    applied = 0
    for trial in range(60):
        n = rng.randint(2, 9)
        m = rng.randint(2, 12)
        formula, weights = gen_random(n, m, rng.randint(1, min(n, 3)), 0.5, 1000 + trial)
        order = list(formula.variables)
        rng.shuffle(order)
        tree = plan(formula, order)
        if not mutate(tree):
            continue
        applied += 1
        violation = validate(tree, formula)
        assert violation is not None
        assert violation.kind in kinds
        if violation.kind == "descendant":
            assert violation == reference_descendant_violation(tree, formula)
        for run in (solve, count):
            with pytest.raises(ValueError) as info:
                run(formula, weights, tree)
            assert str(info.value) == violation.message
    assert applied >= 10


def test_validate_memory_is_linear_on_a_chain():
    # a set per node of every clause below it would take about 207 MB here
    formula, _ = gen_chain(ChainSpec(3000, 2, 5))
    tree = plan(formula, heuristic_order(formula, Heuristic.LEXICOGRAPHIC))
    tracemalloc.start()
    try:
        assert validate(tree, formula) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_jt_serialization(mixed6, mixed6_tree):
    text = mixed6_tree.to_jt_text()
    lines = text.splitlines()
    assert lines[0] == "p jt 6 5 10"
    # one line per internal node, leaves implicit
    assert len(lines) == 1 + 5
    assert lines[1] == "6 1 e 2 4"
    assert lines[3] == "8 6 7 3 e 1"
    assert lines[-1] == "10 8 9 e"
    assert text == mixed6_tree.to_jt_text()
    with pytest.raises(ValueError, match="tree has no root"):
        ProjectJoinTree(mixed6).to_jt_text()


def test_post_order_children_first(mixed6, mixed6_tree):
    order = mixed6_tree.post_order()
    assert order[-1] == mixed6_tree.root
    position = {node: i for i, node in enumerate(order)}
    for index, node in enumerate(mixed6_tree.nodes):
        for child in node.children:
            assert position[child] < position[index]


def reference_post_order(tree):
    """Children left to right, then the node, by recursion."""
    def visit(index):
        for child in tree.nodes[index].children:
            yield from visit(child)
        yield index
    return list(visit(tree.root))


def planned_corpus_trees():
    for i, formula in enumerate(itertools.islice(reference_corpus(), 0, None, 3)):
        heuristic = (Heuristic.MIN_FILL, Heuristic.LEXICOGRAPHIC)[i % 2]
        yield plan(formula, heuristic_order(formula, heuristic))


def test_post_order_matches_recursive_reference(mixed6_tree):
    trees = [mixed6_tree, *planned_corpus_trees()]
    assert len(trees) > 100
    for tree in trees:
        assert tree.post_order() == reference_post_order(tree)
    assert mixed6_tree.post_order() == [0, 5, 1, 6, 2, 7, 3, 4, 8, 9]


def reference_width(tree):
    return max((len(node.vars | node.pi) for node in tree.nodes), default=0)


def test_width_matches_union_reference(mixed6_tree):
    for tree in [mixed6_tree, *planned_corpus_trees()]:
        assert tree.width() == reference_width(tree)
    # a hand-built node may project variables it also keeps: count each once
    mixed6_tree.nodes.append(PjtNode(children=[mixed6_tree.root],
                                     vars=frozenset({1, 2, 3, 4}), pi=frozenset({3, 4, 5})))
    assert mixed6_tree.width() == reference_width(mixed6_tree) == 5


def test_front_end_records_have_no_dict(mixed6_tree):
    # slotted records: no per-instance dict on any literal, clause or tree node
    records = [Literal(1, True), disj(1, -2), xor(2, 3), *mixed6_tree.nodes]
    for record in records:
        assert not hasattr(record, "__dict__"), record
