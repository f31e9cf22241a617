import itertools
import random
import tracemalloc

import numpy as np
import pytest

from xormpe import planner
from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.formula import Clause, Formula, Literal, WeightFunction
from xormpe.planner import (
    Heuristic,
    PjtNode,
    ProjectJoinTree,
    heuristic_order,
    plan,
    primal_graph,
    validate,
)

from conftest import disj, reference_descendant_violation, reference_order, xor


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
    for node in tree.nodes:
        if not node.is_leaf and node.pi:
            node.pi = frozenset(sorted(node.pi)[1:])
            return True
    return False


def mutate_duplicate_pi_var(tree):
    source = None
    for node in tree.nodes:
        if not node.is_leaf and node.pi:
            source = min(node.pi)
            break
    if source is None:
        return False
    for node in tree.nodes:
        if not node.is_leaf and source not in node.pi:
            node.pi = node.pi | {source}
            return True
    return False


def mutate_reparent_leaf(tree):
    # lift a leaf from under its projecting ancestor to directly under the root
    root = tree.nodes[tree.root]
    for index, node in enumerate(tree.nodes):
        if node.is_leaf or index == tree.root:
            continue
        leaf_children = [c for c in node.children if tree.nodes[c].is_leaf
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
        formula, _ = gen_random(n, m, rng.randint(1, min(n, 3)), 0.5, 1000 + trial)
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
