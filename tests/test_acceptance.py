"""Acceptance suite: the gate criteria, one test per criterion.

Each test prints a single pass/fail line. Tolerances are pinned inline.
"""

import math
import random
import resource
import time

import pytest

from xormpe.benchgen import ChainSpec, gen_chain, gen_random
from xormpe.executor import count, solve
from xormpe.formula import WeightFunction, evaluate_formula
from xormpe.oracle import brute_solve, verify_checkpoints
from xormpe.planner import Heuristic, heuristic_order, plan, validate
from xormpe.wcnf import export_wcnf

from test_planner import (
    mutate_drop_pi_var,
    mutate_duplicate_pi_var,
    mutate_reparent_leaf,
)

REL_TOL = 1e-9
LOG_TOL = 1e-6
CORPUS_SIZE = 500


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


def relative_close(a, b, tol=REL_TOL):
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def corpus_instance(i, max_n=14):
    rng = random.Random(10_000 + i)
    n = 1 + i % max_n
    m = rng.randint(0, 2 * n)
    max_len = rng.randint(1, min(n, 4))
    xor_prob = (0.0, 0.3, 0.5, 0.7, 1.0)[i % 5]
    formula, weights = gen_random(n, m, max_len, xor_prob, 10_000 + i)
    if i % 7 == 0:
        var = rng.randint(1, n)
        weights.set_literal(var if rng.random() < 0.5 else -var, 0.0)
    return formula, weights


def direct_product(formula, weights, assignment):
    if not evaluate_formula(formula, assignment):
        return 0.0
    product = 1.0
    for var in sorted(assignment):
        product *= weights.weight(var, assignment[var])
    return product


@pytest.fixture(scope="module")
def corpus():
    records = []
    for i in range(CORPUS_SIZE):
        formula, weights = corpus_instance(i)
        tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
        records.append({
            "formula": formula,
            "weights": weights,
            "tree": tree,
            "solved": solve(formula, weights, tree),
            "reference": brute_solve(formula, weights),
        })
    return records


def test_criterion_01_oracle_equivalence_maximum(corpus):
    bad = sum(
        not relative_close(r["solved"].maximum, r["reference"].maximum)
        for r in corpus
    )
    _report(1, "oracle equivalence of maxima", bad == 0,
            f"({len(corpus)} instances, rel {REL_TOL}, {bad} mismatches)")


def test_criterion_02_oracle_equivalence_maximizer(corpus):
    bad = 0
    for r in corpus:
        witness = r["solved"].maximizer
        member = r["reference"].is_maximizer(witness)
        exact = direct_product(r["formula"], r["weights"], witness) == \
            r["reference"].maximum
        if not (member and exact):
            bad += 1
    _report(2, "oracle equivalence of maximizers", bad == 0,
            f"({len(corpus)} instances, argmax membership + exact direct product, "
            f"{bad} mismatches)")


def test_criterion_03_wmc(corpus):
    bad = sum(
        not relative_close(count(r["formula"], r["weights"], r["tree"]),
                           r["reference"].wmc)
        for r in corpus
    )
    _report(3, "weighted model count equivalence", bad == 0,
            f"({len(corpus)} instances, rel {REL_TOL}, {bad} mismatches)")


def test_criterion_04_plan_independence():
    bad = 0
    for i in range(100):
        formula, weights = corpus_instance(i)
        a = solve(formula, weights,
                  plan(formula, heuristic_order(formula, Heuristic.MIN_DEGREE)))
        b = solve(formula, weights,
                  plan(formula, heuristic_order(formula, Heuristic.MIN_FILL)))
        if not relative_close(a.maximum, b.maximum):
            bad += 1
    _report(4, "plan independence of the maximum", bad == 0,
            f"(100 instances, min-degree vs min-fill, rel {REL_TOL}, {bad} mismatches)")


def test_criterion_05_assertion_suite():
    failures = []
    for i in range(100):
        formula, weights = corpus_instance(i, max_n=12)
        tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
        outcome = verify_checkpoints(formula, weights, tree)
        if outcome is not None:
            failures.append((i, outcome.checkpoint))

    # seeded mutations: each must be caught by a checkpoint or an oracle test
    from xormpe.formula import Formula
    from conftest import disj, injected_fault

    with injected_fault("skip_weight_join"):
        skip_caught = verify_checkpoints(
            Formula(1, [disj(1)]), WeightFunction({1: (10, 100)}),
            plan(Formula(1, [disj(1)]), [1]))
    with injected_fault("push_after_project"):
        swap_caught = verify_checkpoints(
            Formula(1, [disj(-1)]), WeightFunction(),
            plan(Formula(1, [disj(-1)]), [1]))
    tie_formula = Formula(3, [])
    tie_tree = plan(tie_formula, [1, 2, 3])
    tie_straight = solve(tie_formula, WeightFunction(), tie_tree)
    with injected_fault("tie_break_low"):
        tie_flipped = solve(tie_formula, WeightFunction(), tie_tree)
    tie_caught = (tie_straight.maximizer == {1: True, 2: True, 3: True}
                  and tie_flipped.maximizer != tie_straight.maximizer)

    ok = (not failures and skip_caught is not None
          and skip_caught.checkpoint == "project-condition"
          and swap_caught is not None and tie_caught)
    _report(5, "instrumented checkpoint suite + mutation detection", ok,
            f"(100 clean instances, {len(failures)} unexpected failures; "
            f"skip->{getattr(skip_caught, 'checkpoint', None)}, "
            f"swap->{getattr(swap_caught, 'checkpoint', None)}, "
            f"tie->oracle)")


def test_criterion_06_chain_width():
    bad = []
    for n in (100, 200, 300):
        for k in (10, 15, 20, 25, 30):
            formula, _ = gen_chain(ChainSpec(n, k, seed=n + k))
            tree = plan(formula, list(formula.variables))
            if tree.width() != k:
                bad.append((n, k, tree.width()))
    _report(6, "left-deep chain plans have width k", not bad,
            f"(15 configurations{'' if not bad else ': ' + repr(bad)})")


def test_criterion_07_desk_scale_performance():
    formula, weights = gen_chain(ChainSpec(300, 20, seed=7))
    started = time.perf_counter()
    tree = plan(formula, list(formula.variables))
    result = solve(formula, weights, tree, mode="log10")
    elapsed = time.perf_counter() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    ok = elapsed < 60.0 and peak_gb < 2.0 and len(result.maximizer) == 300
    _report(7, "chain n=300 k=20 log10 end-to-end", ok,
            f"({elapsed:.2f}s < 60s, {peak_gb:.2f}GB < 2GB)")


def test_criterion_08_log_mode_consistency():
    checked = 0
    bad = 0
    i = 0
    while checked < 100 and i < 4 * CORPUS_SIZE:
        formula, weights = corpus_instance(i)
        i += 1
        tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
        linear = solve(formula, weights, tree, mode="linear")
        if linear.maximum <= 0.0 or not math.isfinite(linear.maximum):
            continue
        checked += 1
        logged = solve(formula, weights, tree, mode="log10")
        if abs(math.log10(linear.maximum) - logged.maximum) > LOG_TOL:
            bad += 1
    _report(8, "log10 mode agrees with linear mode", checked == 100 and bad == 0,
            f"({checked} instances, tol {LOG_TOL}, {bad} mismatches)")


def _jittered_export_instance(base_seed, scale):
    """Satisfiable instance with strictly positive jittered weights whose
    exact scaled log-sums over hard models have a unique, rounding-stable
    argmax (gap condition plus identical rounded argmax)."""
    for attempt in range(200):
        rng = random.Random(base_seed + 1000 * attempt)
        n = rng.randint(2, 10)
        formula, _ = gen_random(n, rng.randint(1, n + 2),
                                rng.randint(1, min(n, 4)), 0.5,
                                base_seed + 1000 * attempt)
        weights = WeightFunction()
        for var in formula.variables:
            weights.set_literal(var, rng.uniform(1.05, 6.0))
            weights.set_literal(-var, rng.uniform(1.05, 6.0))
        exact_scores = []
        rounded_scores = []
        keys = []
        for index in range(1 << n):
            assignment = {v: bool((index >> (v - 1)) & 1) for v in formula.variables}
            if not evaluate_formula(formula, assignment):
                continue
            exact = sum(scale * math.log(weights.weight(v, assignment[v]))
                        for v in formula.variables)
            rounded = sum(round(scale * math.log(weights.weight(v, assignment[v])))
                          for v in formula.variables)
            exact_scores.append(exact)
            rounded_scores.append(rounded)
            keys.append(tuple(assignment[v] for v in formula.variables))
        if not keys:
            continue
        ranked = sorted(exact_scores, reverse=True)
        if len(ranked) > 1 and ranked[0] - ranked[1] <= 2.0:  # the 2/K gap, scaled
            continue
        best_exact = keys[exact_scores.index(max(exact_scores))]
        if rounded_scores.count(max(rounded_scores)) != 1:
            continue
        best_rounded = keys[rounded_scores.index(max(rounded_scores))]
        if best_exact != best_rounded:
            continue
        return formula, weights, best_rounded
    raise AssertionError("could not construct a rounding-stable export instance")


def _extend_with_aux(export, assignment):
    extended = dict(assignment)
    for aux, a, b in export.aux_defs:
        value_a = extended[abs(a)] == (a > 0)
        value_b = extended[abs(b)] == (b > 0)
        extended[aux] = value_a != value_b
    return extended


def test_criterion_09_wcnf_export_equivalence():
    scale = 10000
    bad = []
    for i in range(50):
        formula, weights, _ = _jittered_export_instance(20_000 + i, scale)
        export = export_wcnf(formula, weights, scale=scale)
        n, m = formula.var_count, len(formula.clauses)
        if export.soft_count != 2 * n or export.pre_tseitin_hard_count != m:
            bad.append((i, "counts"))
            continue
        soft = {lit: weight for weight, lit in export.soft}
        best_score, best_key = None, None
        for index in range(1 << n):
            assignment = {v: bool((index >> (v - 1)) & 1) for v in formula.variables}
            extended = _extend_with_aux(export, assignment)
            if not all(any(extended[abs(l)] == (l > 0) for l in clause)
                       for clause in export.hard):
                continue
            score = sum(soft[v if assignment[v] else -v] for v in formula.variables)
            if best_score is None or score > best_score:
                best_score = score
                best_key = tuple(assignment[v] for v in formula.variables)
        tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
        result = solve(formula, weights, tree)
        solver_key = tuple(result.maximizer[v] for v in formula.variables)
        if best_key != solver_key:
            bad.append((i, "argmax"))
    _report(9, "wcnf export optimum matches the solver", not bad,
            f"(50 instances, counts n/m/2n + enumerated optimum"
            f"{'' if not bad else ': ' + repr(bad)})")


def test_criterion_10_planner_validity():
    rng = random.Random(31337)
    bad = 0
    for trial in range(1000):
        n = rng.randint(1, 12)
        m = rng.randint(0, 16)
        formula, _ = gen_random(n, m, rng.randint(1, min(n, 5)), rng.random(),
                                40_000 + trial)
        order = list(formula.variables)
        rng.shuffle(order)
        tree = plan(formula, order)
        if validate(tree, formula) is not None:
            bad += 1

    rejected = {"drop": 0, "dup": 0, "reparent": 0}
    applied = {"drop": 0, "dup": 0, "reparent": 0}
    mutators = {
        "drop": mutate_drop_pi_var,
        "dup": mutate_duplicate_pi_var,
        "reparent": mutate_reparent_leaf,
    }
    for trial in range(120):
        n = rng.randint(2, 9)
        formula, _ = gen_random(n, rng.randint(2, 12), rng.randint(1, min(n, 3)),
                                0.5, 60_000 + trial)
        order = list(formula.variables)
        rng.shuffle(order)
        for name, mutate in mutators.items():
            tree = plan(formula, order)
            if mutate(tree):
                applied[name] += 1
                if validate(tree, formula) is not None:
                    rejected[name] += 1
    mutations_ok = all(applied[k] >= 20 and rejected[k] == applied[k]
                       for k in mutators)
    _report(10, "planner validity and mutation rejection",
            bad == 0 and mutations_ok,
            f"(1000 plans, {bad} invalid; mutations rejected "
            f"{sum(rejected.values())}/{sum(applied.values())})")
