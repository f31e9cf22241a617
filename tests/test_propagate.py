"""Unit propagation and the valuation conditioned on it: `formula.propagate`,
`DiagramManager.from_clause_given`, the leaves `valuate` builds, and the
checkpoint verifier's re-derivation of every forced literal."""

import math
import random

import pytest

from xormpe import executor
from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.diagram import DiagramManager
from xormpe.errors import InternalError
from xormpe.executor import Observer, count, solve
from xormpe.formula import Formula, WeightFunction, evaluate_clause, propagate
from xormpe.oracle import brute_solve, verify_checkpoints
from xormpe.planner import Heuristic, heuristic_order, plan

from conftest import disj, xor

MODES = ("linear", "log10")
REL_TOL = 1e-9  # the acceptance criteria's tolerance on a maximum and a count


def plan_for(formula, heuristic=Heuristic.MIN_FILL):
    return plan(formula, heuristic_order(formula, heuristic))


# ------------------------------------------------------------------ propagate

def test_a_formula_without_a_unit_clause_forces_nothing():
    assert propagate(Formula(3, [disj(1, 2), xor(2, 3)])) == {}
    assert propagate(Formula(2, [])) == {}


def test_units_of_both_kinds_force_their_literal():
    formula = Formula(3, [disj(-1), xor(2), xor(-3)])
    assert propagate(formula) == {1: (False, 0), 2: (True, 1), 3: (False, 2)}


def test_propagation_follows_two_literal_xors_in_derivation_order():
    # x1; x1 xor x2 needs x2 = 0; not-x2 xor x3 needs x3 = 0; x2 or not-x3 or x4 holds
    formula = Formula(4, [xor(-2, 3), disj(2, -3, 4), disj(1), xor(1, 2)])
    assert list(propagate(formula).items()) == [(1, (True, 2)), (2, (False, 3)),
                                                (3, (False, 0))]


def test_a_disjunction_forces_its_last_free_literal():
    formula = Formula(3, [disj(-1, -2, 3), disj(1), disj(2)])
    assert propagate(formula)[3] == (True, 0)


def test_every_forced_literal_follows_from_its_reason():
    for trial in range(200):
        formula, _ = unit_rich_instance(trial)
        before = {}
        for var, (value, reason) in propagate(formula).items():
            clause = formula.clauses[reason]
            others = {lit.var: before[lit.var] for lit in clause.literals if lit.var != var}
            assert evaluate_clause(clause, {**others, var: value}), trial
            assert not evaluate_clause(clause, {**others, var: not value}), trial
            before[var] = value


def test_propagation_stops_at_a_conflict():
    # x1, then x2 from not-x1 or x2; x1 xor x2 is then false, so x3 is never forced
    formula = Formula(3, [disj(1), disj(-1, 2), xor(1, 2), xor(2, 3)])
    forced = propagate(formula)
    assert forced == {1: (True, 0), 2: (True, 1)}


# ---------------------------------------------------------- conditioned leaves

@pytest.mark.parametrize("log_mode", [False, True])
def test_from_clause_given_restricts_the_indicator(log_mode):
    manager = DiagramManager(log_mode)
    one, zero = manager.one(), manager.zero()
    assert manager.from_clause_given(disj(1, -2, 3), {2: False}) == one
    assert manager.from_clause_given(disj(1, -2), {1: False, 2: True}) == zero
    assert manager.from_clause_given(disj(1, -2, 3), {2: True}) == manager.from_clause(disj(1, 3))
    assert manager.from_clause_given(xor(1, 2), {1: True, 2: False}) == one
    assert manager.from_clause_given(xor(1, 2), {1: True, 2: True}) == zero
    # an odd number of true forced literals flips the parity of the rest
    assert manager.from_clause_given(xor(1, 2, 3), {2: True}) == manager.from_clause(xor(-1, 3))
    assert manager.from_clause_given(xor(1, -2, 3), {2: True}) == manager.from_clause(xor(1, 3))
    assert manager.from_clause_given(disj(1, 2), {3: True}) == manager.from_clause(disj(1, 2))


class Leaves(Observer):
    def setup(self, manager):
        super().setup(manager)
        self.leaves = {}

    def exit(self, node, f):
        self.leaves[node] = f


def test_a_reason_stays_whole_and_every_other_leaf_loses_the_forced_variables():
    formula = Formula(4, [disj(1), xor(1, 2), disj(2, 3, 4), xor(1, 3, 4)])
    tree = plan_for(formula)
    watch = Leaves()
    result = solve(formula, WeightFunction(), tree, observer=watch)
    assert result.stats.forced == 2
    manager = watch.manager
    assert watch.leaves[0] == manager.from_clause(formula.clauses[0])
    assert watch.leaves[1] == manager.from_clause(formula.clauses[1])
    assert watch.leaves[2] == manager.from_clause(disj(3, 4))
    assert watch.leaves[3] == manager.from_clause(xor(-3, 4))


def test_a_conflict_gives_the_zero_root():
    formula = Formula(3, [disj(1), disj(-1, 2), xor(1, 2)])
    tree = plan_for(formula)
    for mode in MODES:
        result = solve(formula, WeightFunction(), tree, mode=mode)
        assert result.no_model and result.stats.forced == 2
        assert result.maximum == (0.0 if mode == "linear" else -math.inf)
        assert verify_checkpoints(formula, WeightFunction(), tree, mode=mode) is None
    assert count(formula, WeightFunction(), tree) == 0.0


def test_a_chain_has_no_unit_clause_and_keeps_every_leaf_and_node():
    # no unit clause, so every leaf is its own clause's from_clause and the
    # solve allocates exactly the nodes it did before propagation existed
    formula, weights = gen_chain(ChainSpec(300, 20, seed=7))
    tree = plan(formula, list(formula.variables))
    watch = Leaves()
    result = solve(formula, weights, tree, mode="log10", observer=watch)
    assert result.stats.forced == 0
    assert result.stats.peak_nodes == 20595  # as before propagation existed
    manager = watch.manager
    for i, clause in enumerate(formula.clauses):
        assert watch.leaves[i] == manager.from_clause(clause), i
    assert manager.node_count() == 20595  # rebuilding the leaves found every node


# ------------------------------------------------------- against the oracle

def unit_rich_instance(trial):
    """n <= 12: unit disjunctions and xors of both polarities, implication
    chains through two-literal xors, gen_random clauses, and a conflicting
    unit or a zero weight on some trials."""
    rng = random.Random(3700 + trial)
    n = rng.randint(1, 12)

    def literal(var):
        return var if rng.random() < 0.5 else -var

    clauses = [(disj if rng.random() < 0.5 else xor)(literal(rng.randint(1, n)))
               for _ in range(rng.randint(1, 2))]
    if n >= 2:
        chain = rng.sample(range(1, n + 1), rng.randint(2, n))
        clauses += [xor(literal(a), literal(b)) for a, b in zip(chain, chain[1:])]
    rest, weights = gen_random(n, rng.randint(0, n // 2), rng.randint(1, min(n, 4)),
                               rng.choice([0.0, 0.5, 1.0]), 3700 + trial)
    clauses += rest.clauses
    if trial % 10 == 0:  # a unit against a unit: a conflict
        var = clauses[0].literals[0].var
        clauses.append(disj(-var if clauses[0].literals[0].positive else var))
    rng.shuffle(clauses)
    if trial % 4 == 0:
        weights.set_literal(literal(rng.randint(1, n)), 0.0)
    return Formula(n, clauses), weights


def test_unit_rich_solves_match_the_oracle_and_pass_every_checkpoint():
    forced = no_model = with_model = 0
    for trial in range(300):
        formula, weights = unit_rich_instance(trial)
        tree = plan_for(formula, list(Heuristic)[trial % len(Heuristic)])
        reference = brute_solve(formula, weights)
        for mode in MODES:
            result = solve(formula, weights, tree, mode=mode)
            if mode == "linear":
                assert math.isclose(result.maximum, reference.maximum,
                                    rel_tol=REL_TOL, abs_tol=0.0), trial
                assert math.isclose(count(formula, weights, tree), reference.wmc,
                                    rel_tol=REL_TOL, abs_tol=0.0), trial
            elif reference.maximum > 0.0:
                assert math.isclose(result.maximum, math.log10(reference.maximum),
                                    rel_tol=REL_TOL, abs_tol=REL_TOL), trial
            else:
                assert result.maximum == -math.inf, trial
            if reference.maximum > 0.0:
                assert reference.is_maximizer(result.maximizer), (trial, mode)
            assert verify_checkpoints(formula, weights, tree, mode=mode) is None, (trial, mode)
        forced += result.stats.forced
        no_model += reference.maximum == 0.0
        with_model += reference.maximum > 0.0
    # the corpus exercises what it claims to: 1,020 forced literals, 144 instances
    # without a model (128 of them refuted by a propagation conflict), 156 with one
    assert forced > 900 and no_model > 100 and with_model > 100, (forced, no_model, with_model)


# ----------------------------------------------------------- the verifier

def test_verify_refuses_a_literal_forced_with_the_wrong_polarity(monkeypatch):
    # x1 forces x2 = 0 through x1 xor x2; conditioning on x2 = 1 instead turns
    # x2 or x3 or x4 into the unit, and the solve's maximizer falsifies it
    formula = Formula(4, [disj(1), xor(1, 2), disj(2, 3, 4)])
    weights = WeightFunction({3: (2.0, 1.0), 4: (2.0, 1.0)})
    tree = plan_for(formula)

    def flipped(formula):
        forced = propagate(formula)
        value, reason = forced[2]
        forced[2] = (not value, reason)
        return forced

    monkeypatch.setattr(executor, "propagate", flipped)
    for mode in MODES:
        with pytest.raises(InternalError, match="falsifies a clause"):
            solve(formula, weights, tree, mode=mode)
        failure = verify_checkpoints(formula, weights, tree, mode=mode)
        assert failure is not None, mode
        assert (failure.checkpoint, failure.node, failure.variable) == ("pre-condition", 1, 2)


def test_verify_refuses_a_forced_literal_without_its_reason(monkeypatch):
    # x3 = 1 does not follow from x1's unit clause; leaf 2 would lose x3 unproven
    formula = Formula(4, [disj(1), xor(1, 2), disj(3, 4)])
    tree = plan_for(formula)

    def overreaching(formula):
        return {**propagate(formula), 3: (True, 0)}

    monkeypatch.setattr(executor, "propagate", overreaching)
    failure = verify_checkpoints(formula, WeightFunction(), tree)
    assert failure is not None
    assert (failure.checkpoint, failure.node, failure.variable) == ("pre-condition", 0, 3)
