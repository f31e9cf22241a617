"""Pin the solver's answers bit for bit.

One SHA-256 covers the linear-mode `solve` maximum, maximizer and `no_model`
flag and the `count` of 200 seeded `gen_random` instances under every
planning heuristic. Floats enter as `float.hex()`, so a change in the last
bit trips it; statistics stay out, so only a real answer change does.

A second SHA-256 covers the log10-mode maximum and maximizer of the same
instances. log10 values depend on the platform's libm, so that digest pins
this platform's answers; on another libm it is regenerated, not loosened.

A change that means to alter answers regenerates a digest with
`answer_digest()` and says why.
"""

import hashlib
import random

from xormpe.benchgen import gen_random
from xormpe.executor import count, solve
from xormpe.planner import Heuristic, heuristic_order, plan

DIGEST = "a342e9602445091654004a24d8748d2652d4f7ad675a361f7b64c020dde428f8"
LOG10_DIGEST = "d47fae19dec4dcbea754f75f1bc64b1768809465de05c4d9899c67d38414c8bc"


def digest_instance(trial):
    rng = random.Random(9100 + trial)
    n = rng.randint(1, 14)
    m = rng.randint(0, 2 * n)
    formula, weights = gen_random(n, m, rng.randint(1, min(n, 4)),
                                  rng.choice([0.0, 0.3, 0.5, 1.0]), 9100 + trial)
    if trial % 5 == 0:  # a zero weight makes ties and no-model instances
        weights.set_literal(rng.choice([-1, 1]) * rng.randint(1, n), 0.0)
    return formula, weights


def answer_digest(trials=200, mode="linear"):
    digest = hashlib.sha256()
    for trial in range(trials):
        formula, weights = digest_instance(trial)
        for heuristic in Heuristic:
            tree = plan(formula, heuristic_order(formula, heuristic))
            result = solve(formula, weights, tree, mode=mode)
            if mode == "linear":
                record = (trial, heuristic.value, result.maximum.hex(),
                          result.maximizer_literals(), result.no_model,
                          count(formula, weights, tree).hex())
            else:
                record = (trial, heuristic.value, result.maximum.hex(),
                          result.maximizer_literals())
            digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


def test_answers_match_the_pinned_digest():
    assert answer_digest() == DIGEST


def test_log10_answers_match_the_pinned_digest():
    assert answer_digest(mode="log10") == LOG10_DIGEST
