import gc
import itertools
import math
import random
import re
import weakref

import pytest

from xormpe.diagram import DiagramManager
from xormpe.errors import GuardError
from xormpe.formula import WeightFunction, evaluate_clause

from conftest import (FaultyManager, add, disj, join_then_project, project_all, support,
                      xor)


def assignments(variables):
    variables = sorted(variables)
    for bits in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, bits))


def pointwise_equal(f, g, variables=None):
    """f and g agree to 1e-12 relative at every point of `variables` (by
    default both supports). Edge offsets are rounded floats, so one function
    computed two ways may take two edges that differ in the last bits."""
    if variables is None:
        variables = support(f) | support(g)
    return all(
        f.evaluate(a) == pytest.approx(g.evaluate(a), rel=1e-12)
        for a in assignments(variables)
    )


@pytest.fixture
def mgr():
    return DiagramManager()


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
    return DiagramManager(log_mode=request.param)


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
    # 3 decision nodes plus the one terminal: a parity function needs both
    # branch nodes at the lower level
    assert mgr.size(f) == 4


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


def test_levels_are_variable_indices():
    # a manager takes no order: any positive index is a level, gaps included
    mgr = DiagramManager()
    for clause, labels in ((xor(3, 7), {"x3", "x7"}), (disj(-2, 9), {"x2", "x9"})):
        f = mgr.from_clause(clause)
        for a in assignments(clause.variables):
            assert f.evaluate(a) == float(evaluate_clause(clause, a))
        assert set(re.findall(r'label="(x\d+)"', mgr.to_dot(f))) == labels


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
    other = DiagramManager()
    with pytest.raises(ValueError):
        mgr.join(mgr.constant(1), other.constant(1))


def test_join_commutative_associative_node_ids(mgr):
    rng = random.Random(3)
    for _ in range(20):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        g = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        h = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 2))
        assert mgr.join(f, g) == mgr.join(g, f)
        # the two groupings round their offsets in different orders
        assert pointwise_equal(mgr.join(mgr.join(f, g), h), mgr.join(f, mgr.join(g, h)))


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
                if name == "sign":
                    assert g.choose(a) == pointwise(lo, hi), name
                else:
                    assert g.evaluate(a) == pytest.approx(pointwise(lo, hi), rel=1e-12), name
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


def test_projecting_an_absent_variable_scales_by_its_weights(any_mgr):
    # below, between and above f's variables alike
    mgr = any_mgr
    f = random_nonneg_function(mgr, random.Random(5), [2, 4])
    w_neg, w_pos = 0.5, 3.0
    scale = {"m": max(w_neg, w_pos), "a": w_neg + w_pos}
    projections = {"m": mgr.exists_project}
    if not mgr.log_mode:
        projections["a"] = mgr.add_project
    for tag, project in projections.items():
        for var in (1, 3, 9):
            g = project(f, var, w_neg, w_pos)
            for a in assignments([2, 4]):
                if mgr.log_mode:
                    expected = f.evaluate(a) + math.log10(scale[tag])
                else:
                    expected = f.evaluate(a) * scale[tag]
                assert g.evaluate(a) == expected


def test_projections_commute(mgr):
    rng = random.Random(11)
    for _ in range(15):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), 3))
        a, b = rng.sample(range(1, 7), 2)
        assert pointwise_equal(mgr.exists_project(mgr.exists_project(f, a), b),
                               mgr.exists_project(mgr.exists_project(f, b), a))
        assert pointwise_equal(mgr.add_project(mgr.add_project(f, a), b),
                               mgr.add_project(mgr.add_project(f, b), a))


def test_early_projection(mgr):
    rng = random.Random(13)
    for _ in range(20):
        f_vars = rng.sample(range(1, 7), 3)
        g_vars = [v for v in range(1, 7) if v not in f_vars][:2]
        f = random_nonneg_function(mgr, rng, f_vars)
        g = random_nonneg_function(mgr, rng, g_vars)
        scope = [v for v in f_vars if rng.random() < 0.7]
        for project in (mgr.exists_project, mgr.add_project):
            assert pointwise_equal(project_all(project, mgr.join(f, g), scope),
                                   mgr.join(project_all(project, f, scope), g))


# a zero weight, a zero pair, equal weights, unit weights and unequal ones
WEIGHT_PAIRS = [(0.0, 3.0), (1.5, 0.0), (0.0, 0.0), (2.5, 2.5), (1.0, 1.0),
                (10.0, 100.0), (100.0, 10.0)]


def test_weighted_projection_matches_join_then_project(any_mgr):
    # the one-pass projection and the weight join followed by a unit-weight
    # projection give the same function, to the rounding of their offsets,
    # and signs on f with the weights choose as signs on the joined product do
    mgr = any_mgr
    projections = [mgr.exists_project] + ([] if mgr.log_mode else [mgr.add_project])
    rng = random.Random(29)
    for _ in range(25):
        variables = rng.sample(range(1, 7), rng.randint(2, 4))
        f = random_nonneg_function(mgr, rng, variables)
        x = rng.choice(variables)
        for w_neg, w_pos in WEIGHT_PAIRS:
            for project in projections:
                assert pointwise_equal(project(f, x, w_neg, w_pos),
                                       join_then_project(project, f, x, w_neg, w_pos))
            sign = mgr.derivative_sign(f, x, w_neg, w_pos)
            joined = mgr.derivative_sign(mgr.join(f, mgr.literal_weight(x, w_neg, w_pos)), x)
            for a in assignments(set(variables) - {x}):
                assert sign.choose(a) == joined.choose(a)


def new_nodes_outside(mgr, before, result):
    """Nodes allocated since `before` that the result does not reach."""
    return len(set(range(before, mgr.node_count())) - mgr._reachable(result.node))


def test_weighted_projection_builds_only_its_result():
    # at f's top variable the projection allocates no node outside its
    # result; joining the weight in first allocates a weighted top node
    rng = random.Random(31)
    for _ in range(10):
        grown = {}
        for path in ("fused", "joined"):
            mgr = DiagramManager()
            f = random_nonneg_function(mgr, random.Random(rng.random()), [1, 2, 3, 4])
            before = mgr.node_count()
            if path == "fused":
                g = mgr.exists_project(f, 1, 10, 100)
            else:
                g = join_then_project(mgr.exists_project, f, 1, 10, 100)
            grown[path] = new_nodes_outside(mgr, before, g)
        assert grown["fused"] == 0 < grown["joined"]


def test_weighted_projection_zero_weight_over_a_huge_value_is_zero():
    # linear mode: a zero weight times a huge completion is zero, as the join
    # kernel makes it; inf is out of the value domain (see
    # test_linear_values_out_of_double_range_raise)
    mgr = DiagramManager()
    f = mgr.join(mgr.literal_weight(1, 1e300, 5), mgr.from_clause(disj(1, 2)))
    for w_neg, w_pos in [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (2.0, 3.0)]:
        joined = mgr.join(f, mgr.literal_weight(1, w_neg, w_pos))
        for project in (mgr.exists_project, mgr.add_project):
            g = project(f, 1, w_neg, w_pos)
            assert pointwise_equal(g, project(joined, 1), [2])
            assert not any(math.isnan(g.evaluate(a)) for a in assignments([2]))
        sign = mgr.derivative_sign(f, 1, w_neg, w_pos)
        on_joined = mgr.derivative_sign(joined, 1)
        for a in assignments([2]):
            assert sign.choose(a) == on_joined.choose(a)
    assert mgr.derivative_sign(f, 1, 0.0, 1.0).choose({2: True}) is True
    assert mgr.derivative_sign(f, 1, 1.0, 0.0).choose({2: True}) is False
    assert mgr.exists_project(f, 1, 0.0, 1.0) == mgr.constant(5.0)


def test_weighted_projection_keeps_the_underflow_guard():
    mgr = DiagramManager()
    tiny = mgr.constant(1e-300)
    with pytest.raises(GuardError, match="--mode log10"):
        mgr.exists_project(tiny, 1, 1e-10, 1e-10)
    with pytest.raises(GuardError, match="--mode log10"):
        mgr.add_project(tiny, 1, 1e-10, 0.0)
    # a unit weight passes a subnormal through exactly, as the join does
    subnormal = mgr.constant(5e-324)
    assert mgr.exists_project(subnormal, 1) == subnormal
    assert mgr.exists_project(subnormal, 1, 1.0, 0.0) == subnormal
    assert mgr.exists_project(mgr.one(), 1, 5e-324, 0.0) == subnormal


def test_linear_values_out_of_double_range_raise():
    # normalizing a node divides by its larger offset, and inf / inf is NaN:
    # a linear offset that overflows raises GuardError at once, and so does a
    # node whose two offsets are more than double range apart
    mgr = DiagramManager()
    huge = mgr.constant(1e200)
    for operation in (lambda: mgr.join(huge, huge),
                      lambda: mgr.exists_project(huge, 1, 1e200, 1.0),
                      lambda: mgr.exists_project(mgr.literal_weight(1, 2.0, 1e200), 1, 1.0,
                                                 1e200),
                      lambda: mgr.add_project(mgr.constant(1e308), 1),
                      lambda: mgr.literal_weight(1, 1e-200, 1e200)):
        with pytest.raises(GuardError, match="--mode log10"):
            operation()
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="outside the value domain"):
            mgr.constant(value)


def test_linear_constant_refuses_negative_values():
    # a negative linear constant was accepted: a join then gave a negative
    # value, and a projection a range GuardError that named the wrong fault
    mgr = DiagramManager()
    for value in (-2.0, -math.inf, -5e-324):
        with pytest.raises(ValueError, match="outside the value domain"):
            mgr.constant(value)
    assert mgr.constant(0.0) == mgr.zero()
    # log10 takes any finite value, and -inf is its zero
    log = DiagramManager(log_mode=True)
    assert log.constant(-2.0).constant_value() == -2.0
    assert log.constant(-math.inf) == log.zero()
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="outside the value domain"):
            log.constant(value)


def test_no_op_cache_entry_crosses_operations():
    # a join's keys, a projection's pair keys and a fused projection's keys
    # above its variable share one shape, so an entry left by one operation
    # would be read by the next
    def setup(low, high):
        """a, b over x2, and f, whose cofactors on x1 are a (x1=0) and b."""
        mgr = DiagramManager()
        a, b = mgr.literal_weight(2, *low), mgr.literal_weight(2, *high)
        f = add(mgr.join(mgr.literal_weight(1, 1.0, 0.0), a),
                mgr.join(mgr.literal_weight(1, 0.0, 1.0), b))
        return mgr, a, b, f

    def values(f):
        return [f.evaluate(a) for a in assignments({1, 2})]

    def fresh(operation, low, high):
        mgr, a, _, f = setup(low, high)
        return values(operation(mgr, a, f))

    def maximum(mgr, a, f):
        return mgr.exists_project(f, 1)

    def total(mgr, a, f):
        return mgr.add_project(f, 1, 3.0, 0.25)

    def product_below(mgr, a, f):
        """f a with x2 projected: f's top x1 is above x2, so rebuilt pairwise."""
        return mgr.exists_project(f, 2, 0.5, 4.0, a)

    def product_at(mgr, a, f):
        return mgr.add_project(f, 1, 3.0, 0.25, a)

    mgr, a, b, f = setup((2.0, 3.0), (5.0, 7.0))
    mgr.join(a, b)
    assert values(maximum(mgr, a, f)) == fresh(maximum, (2.0, 3.0), (5.0, 7.0))
    mgr.exists_project(f, 1, 0.5, 4.0)
    assert values(total(mgr, a, f)) == fresh(total, (2.0, 3.0), (5.0, 7.0))
    mgr.join(f, a)  # its key (a, f) is the fused walk's first key above x2
    assert values(product_below(mgr, a, f)) == fresh(product_below, (2.0, 3.0), (5.0, 7.0))
    assert values(product_at(mgr, a, f)) == fresh(product_at, (2.0, 3.0), (5.0, 7.0))
    assert values(maximum(mgr, a, f)) == fresh(maximum, (2.0, 3.0), (5.0, 7.0))

    # the join caches 3 * 5 on its low branch, then underflows on its high one
    mgr, a, b, f = setup((3.0, 1e-200), (5.0, 1e-200))
    with pytest.raises(GuardError):
        mgr.join(a, b)
    assert values(maximum(mgr, a, f)) == fresh(maximum, (3.0, 1e-200), (5.0, 1e-200))
    # so does a fused projection of x1 from f b
    with pytest.raises(GuardError):
        mgr.exists_project(f, 1, 1.0, 1.0, b)
    assert values(maximum(mgr, a, f)) == fresh(maximum, (3.0, 1e-200), (5.0, 1e-200))


# ------------------------------------------------------- fused join-and-project

def position(f, x):
    """Where x sits in f's order: at its top, below it in its support,
    absent between or below its variables, or above its top (or f is constant)."""
    variables = support(f)
    if x in variables:
        return "at" if x == min(variables) else "below"
    return "absent" if variables and x > min(variables) else "above"


def test_fused_projection_matches_join_then_project(any_mgr):
    # projecting x from f g with g as the second operand gives the function
    # that joining first and then projecting gives, to the rounding of their
    # offsets, for every place x can take in either operand; the sign a fused
    # projection appends chooses as a sign on the product does
    mgr = any_mgr
    projections = [mgr.exists_project] + ([] if mgr.log_mode else [mgr.add_project])
    rng = random.Random(37)
    seen = set()
    for _ in range(120):
        f = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), rng.randint(1, 4)))
        g = random_nonneg_function(mgr, rng, rng.sample(range(1, 7), rng.randint(1, 4)))
        x = rng.randint(1, 7)
        case = (position(f, x), position(g, x))
        seen.add(case)
        product = mgr.join(f, g)
        for w_neg, w_pos in WEIGHT_PAIRS:
            for project in projections:
                signs = []
                fused = project(f, x, w_neg, w_pos, g, signs)
                assert pointwise_equal(fused, project(product, x, w_neg, w_pos)), case
                assert project(g, x, w_neg, w_pos, f) == fused
                assert signs == [mgr.derivative_sign(f, x, w_neg, w_pos, g)]
            sign = mgr.derivative_sign(f, x, w_neg, w_pos, g)
            joined = mgr.derivative_sign(product, x, w_neg, w_pos)
            for a in assignments((support(f) | support(g)) - {x}):
                low, high = sign.weighed(a)
                assert (low, high) == pytest.approx(joined.weighed(a), rel=1e-12)
                if high != pytest.approx(low, rel=1e-12):  # a tie may round either way
                    assert sign.choose(a) == joined.choose(a)
    assert len(seen) == 16


def test_fused_projection_with_a_constant_operand(any_mgr):
    # the unit and the zero fold away; a huge constant multiplies the other
    # operand by the join's rule, a zero times it being zero, never NaN
    mgr = any_mgr
    projections = [mgr.exists_project] + ([] if mgr.log_mode else [mgr.add_project])
    constants = [mgr.one(), mgr.zero()] + ([] if mgr.log_mode else [mgr.constant(1e300)])
    rng = random.Random(41)
    for _ in range(10):
        variables = rng.sample(range(1, 5), rng.randint(1, 3))
        f = random_nonneg_function(mgr, rng, variables)
        for c in constants:
            product = mgr.join(f, c)
            for x in (1, 2, 5):
                for w_neg, w_pos in WEIGHT_PAIRS:
                    for project in projections:
                        expected = project(product, x, w_neg, w_pos)
                        assert project(f, x, w_neg, w_pos, c) == expected
                        assert project(c, x, w_neg, w_pos, f) == expected
                        assert not any(math.isnan(expected.evaluate(a))
                                       for a in assignments(variables))
    assert mgr.exists_project(mgr.one(), 1, 2.0, 3.0, mgr.one()) == \
        mgr.exists_project(mgr.one(), 1, 2.0, 3.0)
    assert mgr.exists_project(mgr.literal_weight(2, 2.0, 3.0), 1, 2.0, 3.0, mgr.zero()) == \
        mgr.zero()


def test_fused_projection_keeps_the_underflow_guard():
    # both factors are 1e-200 where x2 is 0: the product of their offsets
    # underflows inside the fused walk, as it does inside the join
    mgr = DiagramManager()
    f, g = mgr.literal_weight(2, 1e-200, 1.0), mgr.literal_weight(2, 1e-200, 1.0)
    for var in (1, 2, 3):
        for project in (mgr.exists_project, mgr.add_project):
            with pytest.raises(GuardError, match="--mode log10"):
                project(f, var, 1.0, 1.0, g)
    with pytest.raises(GuardError, match="--mode log10"):
        mgr.join(f, g)
    # and a weight that takes the product out of range, as the unfused projection does
    h = mgr.literal_weight(2, 1e-150, 1.0)
    with pytest.raises(GuardError, match="--mode log10"):
        mgr.exists_project(f, 2, 1e-10, 1.0, h)
    with pytest.raises(GuardError, match="--mode log10"):
        mgr.exists_project(mgr.join(f, h), 2, 1e-10, 1.0)
    # on two variables, 1e-400 is a path through two offsets in range: the
    # diagram keeps it, and evaluating it raises rather than return 0
    product = mgr.join(f, mgr.literal_weight(3, 1e-200, 1.0))
    assert product.evaluate({2: False, 3: True}) == 1e-200
    with pytest.raises(GuardError, match="--mode log10"):
        product.evaluate({2: False, 3: False})


def test_fused_projection_builds_no_product():
    # every node a fused projection allocates is in its result; joining first
    # allocates the product, which the projection then drops
    rng = random.Random(47)
    for _ in range(10):
        grown = {}
        seed = rng.random()
        for path in ("fused", "joined"):
            mgr = DiagramManager()
            local = random.Random(seed)
            f = random_nonneg_function(mgr, local, [1, 2, 3, 4])
            g = random_nonneg_function(mgr, local, [1, 3, 5])
            before = mgr.node_count()
            if path == "fused":
                result = mgr.exists_project(f, 1, 10, 100, g)
            else:
                result = mgr.exists_project(mgr.join(f, g), 1, 10, 100)
            grown[path] = new_nodes_outside(mgr, before, result)
        assert grown["fused"] == 0 < grown["joined"]


def test_fused_projection_requires_same_manager(mgr):
    other = DiagramManager()
    f = mgr.literal_weight(1, 2.0, 3.0)
    with pytest.raises(ValueError):
        mgr.exists_project(f, 1, 1.0, 1.0, other.literal_weight(1, 2.0, 3.0))
    with pytest.raises(ValueError):
        mgr.derivative_sign(f, 1, 1.0, 1.0, other.one())


def test_a_finished_manager_is_freed_without_the_cycle_collector():
    # nothing a manager holds refers back to it and no kernel outlives its
    # operation, so dropping the last reference frees the manager and its
    # node arrays at once, also after an operation cut short by GuardError
    gc.collect()
    gc.disable()
    try:
        mgr = DiagramManager()
        f, g = mgr.literal_weight(1, 2.0, 3.0), mgr.from_clause(xor(1, 2))
        mgr.add_project(mgr.join(f, g), 2, 1.0, 4.0, f)
        try:
            mgr.exists_project(mgr.constant(1e-200), 1, 1.0, 1.0, mgr.constant(1e-200))
        except GuardError:
            pass
        manager = weakref.ref(mgr)
        del mgr, f, g
        assert manager() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    strict = FaultyManager(fault="tie_break_low")
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


@pytest.mark.parametrize("bound", [{}, {1: False}, {1: True}], ids=["unbound", "false", "true"])
def test_sign_leaves_the_assignment_as_given(mgr, bound):
    # the sign binds its variable in the caller's dict for its two
    # evaluations and then restores it, also when an evaluation fails
    f = mgr.join(mgr.from_clause(xor(1, 2)), mgr.literal_weight(1, 10, 100))
    sign = mgr.derivative_sign(f, 1, 1.0, 2.0, mgr.from_clause(disj(1, 3)))
    for given in ({2: False, 3: False}, {2: True, 3: True}):
        assignment = {**given, **bound}
        expected = (sign.weighed(given), sign.choose(given))
        assert list(given) == [2, 3]
        assert (sign.weighed(assignment), sign.choose(assignment)) == expected
        assert assignment == {**given, **bound}
    assignment = {3: True, **bound}
    with pytest.raises(KeyError):
        sign.choose(assignment)
    assert assignment == {3: True, **bound}


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
            _, low, low_off, high, high_off = mgr._nodes[node]
            assert (low_off, low) != (high_off, high)
            assert max(low_off, high_off) == 1.0  # normalized
            stack.append(low)
            stack.append(high)


def test_size_counts_distinct_nodes(mgr):
    f = mgr.from_clause(xor(1, 2))
    assert mgr.size(f) == 4
    assert mgr.size(mgr.constant(1)) == 1


def test_size_support_and_dot_agree():
    def build(seed):
        mgr = DiagramManager()
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
    mgr = DiagramManager(log_mode=True)
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


DOT_GOLDEN = {
    False: """digraph add {
  label="offset 0.75";
  n0 [shape=box, label="1"];
  n1 [shape=oval, label="x2"];
  n1 -> n0 [style=solid, label="1"];
  n1 -> n0 [style=dashed, label="0"];
  n2 [shape=oval, label="x2"];
  n2 -> n0 [style=solid, label="0"];
  n2 -> n0 [style=dashed, label="1"];
  n6 [shape=oval, label="x1"];
  n6 -> n2 [style=solid, label="0.333333"];
  n6 -> n1 [style=dashed, label="1"];
}
""",
    True: """digraph add {
  label="offset -0.124939";
  n0 [shape=box, label="0"];
  n1 [shape=oval, label="x2"];
  n1 -> n0 [style=solid, label="0"];
  n1 -> n0 [style=dashed, label="-inf"];
  n2 [shape=oval, label="x2"];
  n2 -> n0 [style=solid, label="-inf"];
  n2 -> n0 [style=dashed, label="0"];
  n6 [shape=oval, label="x1"];
  n6 -> n2 [style=solid, label="-0.477121"];
  n6 -> n1 [style=dashed, label="0"];
}
""",
}


def test_to_dot_golden(any_mgr):
    # the exact text `solve --dot` writes: node ids, edge order and offsets
    f = any_mgr.join(any_mgr.from_clause(xor(1, 2)), any_mgr.literal_weight(2, 0.25, 0.75))
    assert any_mgr.to_dot(f) == DOT_GOLDEN[any_mgr.log_mode]


@pytest.mark.parametrize("weights", [(math.nan, 2.0), (2.0, math.nan)], ids=["neg", "pos"])
def test_nan_weight_is_rejected(any_mgr, weights):
    # NaN fails every comparison, so it would pass a `w < 0` test: in linear
    # mode the max would depend on argument order, in log10 it would turn
    # into a zero weight
    f = any_mgr.from_clause(disj(1, 2))
    operations = [lambda: any_mgr.literal_weight(1, *weights),
                  lambda: any_mgr.exists_project(f, 1, *weights),
                  lambda: any_mgr.derivative_sign(f, 1, *weights)]
    if not any_mgr.log_mode:
        operations.append(lambda: any_mgr.add_project(f, 1, *weights))
    for operation in operations:
        with pytest.raises(ValueError, match="NaN weight"):
            operation()
    # so is inf: normalizing a node by an inf offset gives NaN
    with pytest.raises(ValueError, match="infinite"):
        any_mgr.literal_weight(1, math.inf, 1.0)


@pytest.mark.parametrize("var", [0, -1])
def test_nonpositive_variable_index_is_rejected(var):
    mgr = DiagramManager()
    f = mgr.from_clause(disj(1, 2))
    with pytest.raises(ValueError, match="not positive"):
        mgr.literal_weight(var, 1.0, 2.0)
    with pytest.raises(ValueError, match="not positive"):
        mgr.exists_project(f, var)
    with pytest.raises(ValueError, match="not positive"):
        mgr.add_project(f, var)
    with pytest.raises(ValueError, match="not positive"):
        mgr.derivative_sign(f, var)
