import itertools
import math
import random
import re

import pytest

from xormpe.diagram import DiagramManager
from xormpe.formula import WeightFunction, evaluate_clause

from conftest import FaultyManager, add, disj, project_all, support, xor


def assignments(variables):
    variables = sorted(variables)
    for bits in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, bits))


def pointwise_equal(f, g, variables):
    return all(
        f.evaluate(a) == pytest.approx(g.evaluate(a), rel=1e-12)
        for a in assignments(variables)
    )


@pytest.fixture
def mgr():
    return DiagramManager([1, 2, 3, 4, 5, 6])


# dyadic weights keep every product and sum exactly representable, so
# pointwise-equal expressions reduce to identical node ids
DYADIC = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


def random_nonneg_function(mgr, rng, variables):
    """Random nonnegative function built from weights and clause indicators;
    the clause is added in, or joined in a log10 manager, which cannot add."""
    scale = rng.choice([0.25, 1.0, 2.0])
    f = mgr.constant(math.log10(scale) if mgr.log_mode else scale)
    for var in variables:
        f = mgr.join(f, mgr.literal_weight(var, rng.choice(DYADIC), rng.choice(DYADIC)))
    if len(variables) >= 2 and rng.random() < 0.7:
        a, b = rng.sample(list(variables), 2)
        clause = xor(a, b) if rng.random() < 0.5 else disj(a, -b)
        combine = mgr.join if mgr.log_mode else add
        f = combine(f, mgr.from_clause(clause))
    return f


@pytest.fixture(params=[False, True], ids=["linear", "log10"])
def any_mgr(request):
    return DiagramManager([1, 2, 3, 4, 5, 6], log_mode=request.param)


# ----------------------------------------------------------------- terminals

def test_constant_identity_and_zero(mgr):
    one = mgr.constant(1)
    f = mgr.from_clause(disj(1, 6))
    assert mgr.join(f, one) == f
    assert mgr.join(f, mgr.constant(0)) == mgr.constant(0)
    assert mgr.join(mgr.constant(5), mgr.constant(7)) == mgr.constant(35)
    assert support(mgr.constant(3)) == set()


def test_literal_weight(mgr):
    assert mgr.literal_weight(1, 1, 1) == mgr.constant(1)
    w = mgr.literal_weight(2, 10, 100)
    assert w.evaluate({2: True}) == 100.0
    assert w.evaluate({2: False}) == 10.0
    assert mgr.exists_project(w, 2) == mgr.constant(100)
    with pytest.raises(ValueError):
        mgr.literal_weight(1, -1, 2)


# ---------------------------------------------------------------- from_clause

def test_from_clause_unit(mgr):
    f = mgr.from_clause(disj(1))
    assert f.evaluate({1: True}) == 1.0
    assert f.evaluate({1: False}) == 0.0
    assert support(f) == {1}


def test_from_clause_xor_pair(mgr):
    f = mgr.from_clause(xor(3, 5))
    for a in assignments({3, 5}):
        assert f.evaluate(a) == float(evaluate_clause(xor(3, 5), a))
    # 3 decision nodes plus the two terminals: a parity function needs both
    # branch nodes at the lower level
    assert mgr.size(f) == 5


def test_from_clause_negative_literals(mgr):
    f = mgr.from_clause(disj(-3, -5))
    assert f.evaluate({3: True, 5: True}) == 0.0
    assert f.evaluate({3: True, 5: False}) == 1.0


def test_from_clause_matches_evaluate_clause_randomized(mgr):
    rng = random.Random(7)
    for _ in range(50):
        size = rng.randint(1, 4)
        variables = rng.sample(range(1, 7), size)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        clause = xor(*lits) if rng.random() < 0.5 else disj(*lits)
        f = mgr.from_clause(clause)
        for a in assignments(variables):
            assert f.evaluate(a) == float(evaluate_clause(clause, a))


# ----------------------------------------------------------------------- join

def test_join_examples(mgr):
    f = mgr.join(mgr.from_clause(xor(3, 5)), mgr.from_clause(disj(-3, -5)))
    for a in assignments({3, 5}):
        expected = 1.0 if a[3] != a[5] else 0.0
        assert f.evaluate(a) == expected
    g = mgr.join(mgr.literal_weight(1, 10, 100), mgr.from_clause(disj(1)))
    assert g.evaluate({1: False}) == 0.0
    assert g.evaluate({1: True}) == 100.0


def test_join_support_union(mgr):
    f = mgr.join(mgr.from_clause(disj(1, 6)), mgr.literal_weight(3, 2, 5))
    assert support(f) == {1, 3, 6}


def test_join_requires_same_manager(mgr):
    other = DiagramManager([1, 2])
    with pytest.raises(ValueError):
        mgr.join(mgr.constant(1), other.constant(1))


def test_join_commutative_associative_node_ids(mgr):
    rng = random.Random(3)
    for _ in range(20):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        g = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        h = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        assert mgr.join(f, g) == mgr.join(g, f)
        assert mgr.join(mgr.join(f, g), h) == mgr.join(f, mgr.join(g, h))


def test_evaluate_after_join_is_product(mgr):
    rng = random.Random(5)
    for _ in range(20):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        g = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        joined = mgr.join(f, g)
        for a in assignments(support(f) | support(g)):
            assert joined.evaluate(a) == pytest.approx(
                f.evaluate(a) * g.evaluate(a), rel=1e-12)


# ------------------------------------------------------------- additive join

def test_additive_join(mgr):
    # the cofactors of xor(1, 4) at x1 = 0 and x1 = 1
    f = mgr.from_clause(xor(1, 4))
    cofactor_sum = add(mgr.from_clause(disj(4)), mgr.from_clause(disj(-4)))
    assert cofactor_sum == mgr.add_project(f, 1)


def test_cofactor_operations_pointwise_below_top(any_mgr):
    # x is never the top variable, so every operation caches the nodes it
    # builds above x; they all run in one manager in shuffled order, so two of
    # them sharing a cache tag would hand back each other's results
    mgr = any_mgr
    operations = {
        "sign": (mgr.derivative_sign, lambda lo, hi: hi >= lo),
        "max": (mgr.exists_project, max),
    }
    if not mgr.log_mode:
        operations["sum"] = (mgr.add_project, lambda lo, hi: lo + hi)
    rng = random.Random(43)
    cases = ties = 0
    while cases < 60:
        variables = rng.sample(range(1, 7), rng.randint(3, 4))
        f = random_nonneg_function(mgr, rng, variables)
        variables_of_f = sorted(support(f))
        if len(variables_of_f) < 2:
            continue
        cases += 1
        x = rng.choice(variables_of_f[1:])
        names = list(operations)
        rng.shuffle(names)
        for name in names:
            operation, pointwise = operations[name]
            g = operation(f, x)
            for a in assignments(set(variables) - {x}):
                lo, hi = f.evaluate({**a, x: False}), f.evaluate({**a, x: True})
                got = g.choose(a) if name == "sign" else g.evaluate(a)
                assert got == pointwise(lo, hi), name
                ties += name == "sign" and lo == hi
    assert ties > 0


# ----------------------------------------------------------------- projections

def test_exists_project(mgr):
    f = mgr.join(mgr.literal_weight(1, 10, 100), mgr.literal_weight(2, 100, 10))
    assert project_all(mgr.exists_project, f, [1, 2]) == mgr.constant(10000)
    g = mgr.from_clause(disj(1))
    assert mgr.exists_project(g, 6) == g
    assert mgr.exists_project(g, 1) == mgr.constant(1)


def test_add_project(mgr):
    assert mgr.add_project(mgr.from_clause(disj(1)), 1) == mgr.constant(1)
    f = mgr.from_clause(xor(1, 2))
    assert project_all(mgr.add_project, f, [1, 2]) == mgr.constant(2)


def test_add_project_counts_absent_variables(mgr):
    # projecting a variable outside the support doubles the function
    assert mgr.add_project(mgr.constant(3), 2) == mgr.constant(6)


def test_projections_commute(mgr):
    rng = random.Random(11)
    for _ in range(15):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 3))
        a, b = rng.sample(range(1, 7), 2)
        assert mgr.exists_project(mgr.exists_project(f, a), b) == \
            mgr.exists_project(mgr.exists_project(f, b), a)
        assert mgr.add_project(mgr.add_project(f, a), b) == \
            mgr.add_project(mgr.add_project(f, b), a)


def test_early_projection(mgr):
    rng = random.Random(13)
    for _ in range(20):
        f_vars = rng.sample(range(1, 7), 3)
        g_vars = [v for v in range(1, 7) if v not in f_vars][:2]
        f = random_nonneg_function(mgr, rng, f_vars)
        g = random_nonneg_function(mgr, rng, g_vars)
        scope = [v for v in f_vars if rng.random() < 0.7]
        for project in (mgr.exists_project, mgr.add_project):
            assert project_all(project, mgr.join(f, g), scope) == \
                mgr.join(project_all(project, f, scope), g)


# ------------------------------------------------------------ derivative sign

def test_derivative_sign_constant_conditions(mgr):
    up = mgr.derivative_sign(mgr.literal_weight(1, 10, 100), 1)
    assert up.choose({}) is True
    down = mgr.derivative_sign(mgr.literal_weight(1, 100, 10), 1)
    assert down.choose({}) is False


def test_derivative_sign_conditional(mgr):
    f = mgr.join(mgr.from_clause(xor(1, 2)), mgr.literal_weight(1, 10, 100))
    nodes = mgr.node_count()
    sign = mgr.derivative_sign(f, 1)
    assert mgr.node_count() == nodes  # the sign builds no diagram
    assert sign.choose({2: False}) is True
    assert sign.choose({2: True}) is False


def test_derivative_sign_tie_prefers_high(mgr):
    flat = mgr.literal_weight(1, 5, 5)  # reduces to a constant: everything ties
    assert mgr.derivative_sign(flat, 1).choose({}) is True
    strict = FaultyManager(mgr.var_order, fault="tie_break_low")
    assert strict.derivative_sign(strict.literal_weight(1, 5, 5), 1).choose({}) is False


def test_derivative_sign_ignores_independent_factors(mgr):
    # for nonnegative f, g and x only in f, the sign of f w.r.t. x matches the
    # sign of the join wherever g is positive; where g vanishes the join ties
    # and the sign snaps to the high branch regardless of f
    rng = random.Random(17)
    for _ in range(20):
        f_vars = rng.sample(range(1, 7), 3)
        g_vars = [v for v in range(1, 7) if v not in f_vars][:2]
        f = random_nonneg_function(mgr, rng, f_vars)
        g = random_nonneg_function(mgr, rng, g_vars)
        x = rng.choice(f_vars)
        sign_f = mgr.derivative_sign(f, x)
        sign_fg = mgr.derivative_sign(mgr.join(f, g), x)
        shared = (support(f) | support(g)) - {x}
        for a in assignments(shared):
            if g.evaluate(a) > 0:
                assert sign_f.choose(a) == sign_fg.choose(a)
            else:
                assert sign_fg.choose(a) is True


# ------------------------------------------------------------------- evaluate

def test_evaluate(mgr):
    assert mgr.constant(4.5).evaluate({}) == 4.5
    f = mgr.from_clause(xor(2, -4))
    assert f.evaluate({2: False, 4: False}) == 1.0
    with pytest.raises(KeyError):
        f.evaluate({2: True})


# --------------------------------------------------------- canonicity & shape

def test_canonicity_random(mgr):
    rng = random.Random(23)
    pool = [random_nonneg_function(mgr, rng, rng.sample(range(1, 7), rng.randint(1, 3)))
            for _ in range(30)]
    for f in pool:
        for g in pool:
            variables = support(f) | support(g)
            if len(variables) > 10:
                continue
            same = pointwise_equal(f, g, variables)
            assert same == (f.node == g.node)


def test_no_redundant_nodes_reachable(mgr):
    rng = random.Random(29)
    for _ in range(20):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 3))
        stack = [f.node]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen or mgr.is_terminal(node):
                continue
            seen.add(node)
            assert mgr._low[node] != mgr._high[node]
            stack.append(mgr._low[node])
            stack.append(mgr._high[node])


def test_size_counts_distinct_nodes(mgr):
    f = mgr.from_clause(xor(1, 2))
    assert mgr.size(f) == 5
    assert mgr.size(mgr.constant(1)) == 1


def test_size_support_and_dot_agree():
    def build(seed):
        mgr = DiagramManager([1, 2, 3, 4, 5, 6])
        rng = random.Random(seed)
        return mgr, random_nonneg_function(mgr, rng, rng.sample(range(1, 7), rng.randint(1, 4)))

    for seed in range(30):
        mgr, f = build(seed)
        text = mgr.to_dot(f)
        node_lines = [line for line in text.splitlines() if "shape=" in line]
        assert mgr.size(f) == len(node_lines)
        assert support(f) == {int(v) for v in re.findall(r'label="x(\d+)"', text)}
        other, g = build(seed)
        assert other.to_dot(g) == text


# ------------------------------------------------------------------- log mode

def test_log_mode_semantics():
    mgr = DiagramManager([1, 2], log_mode=True)
    w = mgr.literal_weight(1, 10, 100)
    assert w.evaluate({1: False}) == pytest.approx(1.0)
    assert w.evaluate({1: True}) == pytest.approx(2.0)
    f = mgr.join(w, mgr.literal_weight(2, 100, 10))
    assert f.evaluate({1: True, 2: False}) == pytest.approx(4.0)
    clause = mgr.from_clause(disj(1))
    assert clause.evaluate({1: False}) == float("-inf")
    assert mgr.literal_weight(1, 0, 1).evaluate({1: False}) == float("-inf")
    with pytest.raises(ValueError):
        mgr.add_project(f, 1)


# ------------------------------------------------------------------ dot export

def test_to_dot(mgr):
    text = mgr.to_dot(mgr.from_clause(xor(1, 2)))
    assert text.startswith("digraph")
    assert "style=solid" in text
    assert "style=dashed" in text
    assert 'label="x1"' in text


def test_manager_rejects_bad_order():
    with pytest.raises(ValueError):
        DiagramManager([1, 1, 2])
    with pytest.raises(ValueError):
        DiagramManager([0, 1])
