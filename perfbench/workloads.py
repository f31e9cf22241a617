"""The benchmark's workloads: which instances each one draws from a seed, and
how one verdict (instance text to answer) runs through the program.

Instance sets are described by a manifest of plain generator parameters, so
the orchestrating process (which computes references) and the measured worker
process (which builds and times) regenerate byte-identical instance text.
"""

from __future__ import annotations

import importlib
import io
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Every workload draws its instances from a fixed pool: the first chain seeds
# of a fixed stream, or (random-count) the first satisfiable gen_random blocks
# of a fixed stream, BLOCKS disjoint blocks of BLOCK_VARS variables per
# instance. The run's seed then relabels each instance: every variable's
# polarity is flipped by a seeded coin (the literals of that variable negated
# in every clause, its two weights swapped). That maps assignments one to one
# with their weights and satisfaction kept, so the optimum and the WMC stay
# the same and the diagrams keep their shape: the seed changes the instance
# text and the maximizer, not the work. Pool chains differ in cost by more
# than 2x, so drawing new chains per seed would measure the draw.
BLOCK_VARS, BLOCK_CLAUSES, BLOCK_MAX_LEN, BLOCK_XOR_PROB = 20, 16, 6, 0.5
BLOCKS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    family: str      # "chain" or "blocks"
    size: int        # instances per set
    n: int = 0
    k: int = 0
    heuristic: str = "lex"   # a planner.Heuristic value
    mode: str = "log10"
    via_cli: bool = False
    counts: bool = False


WORKLOADS = {
    w.name: w for w in (
        # criterion-7 family on the identity plan: executor and diagram kernels
        Workload("chain-lex", "chain", 6, n=300, k=20),
        # the same instances through the README's CLI path, default min-fill:
        # planner cost dominates
        Workload("chain-minfill", "chain", 3, n=300, k=20, heuristic="min-fill",
                 via_cli=True),
        # many tiny diagram ops, 20k tree nodes: parse, plan and per-op overhead
        Workload("thin-chain", "chain", 1, n=20000, k=2),
        # linear domain, sum-projection and count, bushy min-fill trees
        Workload("random-count", "blocks", 16, heuristic="min-fill",
                 mode="linear", counts=True),
    )
}


def load_xormpe(root: Path):
    """Import the package from the checkout's `src/`, never from elsewhere;
    raises ImportError when the checkout holds no source."""
    src = root / "src"
    if not (src / "xormpe" / "__init__.py").is_file():
        raise ImportError(f"no xormpe source under {src}")
    sys.path.insert(0, str(src))
    xm = importlib.import_module("xormpe")
    importlib.import_module("xormpe.cli")
    if Path(xm.__file__).resolve().parent != (src / "xormpe").resolve():
        raise ImportError(f"xormpe was imported from {xm.__file__}, not {src}")
    return xm


def chain_entries(workload: Workload, seed: int) -> list[dict]:
    """Chain instances of a seed. Sets of the same n and k share a prefix:
    chain-minfill's instances are the first ones of chain-lex's."""
    pool = random.Random(f"chain-{workload.n}-{workload.k}")
    flips = random.Random(f"chain-flips-{seed}")
    entries = []
    for _ in range(workload.size):
        chain_seed = pool.randrange(1 << 30)
        flip_seed = flips.randrange(1 << 30)
        entries.append({"name": f"chain_n{workload.n}_k{workload.k}_s{chain_seed}"
                                f"_f{flip_seed}",
                        "chain": [workload.n, workload.k, chain_seed],
                        "flips": flip_seed})
    return entries


def block_candidates():
    """Endless stream of block seeds; the caller keeps the satisfiable ones."""
    rng = random.Random("blocks")
    while True:
        yield rng.randrange(1 << 30)


def block_entries(workload: Workload, seed: int, pool: list[int]) -> list[dict]:
    """One instance per group of BLOCKS pool blocks, relabelled by the seed."""
    flips = random.Random(f"block-flips-{seed}")
    entries = []
    for i in range(workload.size):
        group = pool[i * BLOCKS:(i + 1) * BLOCKS]
        flip_seed = flips.randrange(1 << 30)
        entries.append({"name": "blocks_" + "_".join(map(str, group)) + f"_f{flip_seed}",
                        "blocks": group, "flips": flip_seed})
    return entries


def base_entry(entry: dict) -> dict:
    """The pool instance an entry relabels; it has the same optimum and WMC."""
    return {key: value for key, value in entry.items() if key != "flips"}


def flip_polarities(xm, formula, weights, flip_seed: int):
    """Negate every literal of a seeded half of the variables and swap their
    weights."""
    rng = random.Random(flip_seed)
    flipped = {var for var in formula.variables if rng.random() < 0.5}
    clauses = [xm.Clause(clause.kind, tuple(
        xm.Literal(lit.var, lit.positive != (lit.var in flipped))
        for lit in clause.literals)) for clause in formula.clauses]
    relabelled = xm.WeightFunction()
    for var in formula.variables:
        w_neg, w_pos = weights.pair(var)
        if var in flipped:
            w_neg, w_pos = w_pos, w_neg
        relabelled.set_literal(-var, w_neg)
        relabelled.set_literal(var, w_pos)
    return xm.Formula(formula.var_count, clauses), relabelled


def gen_block(xm, block_seed: int):
    return xm.gen_random(BLOCK_VARS, BLOCK_CLAUSES, BLOCK_MAX_LEN,
                         BLOCK_XOR_PROB, block_seed)


def build(xm, entry: dict):
    """(Formula, WeightFunction) of one manifest entry."""
    if "chain" in entry:
        n, k, chain_seed = entry["chain"]
        formula, weights = xm.gen_chain(xm.ChainSpec(n, k, chain_seed))
    else:
        clauses = []
        weights = xm.WeightFunction()
        for b, block_seed in enumerate(entry["blocks"]):
            offset = b * BLOCK_VARS
            block, block_weights = gen_block(xm, block_seed)
            for clause in block.clauses:
                clauses.append(xm.Clause(clause.kind, tuple(
                    xm.Literal(lit.var + offset, lit.positive) for lit in clause.literals)))
            for var in block.variables:
                w_neg, w_pos = block_weights.pair(var)
                weights.set_literal(-(var + offset), w_neg)
                weights.set_literal(var + offset, w_pos)
        formula = xm.Formula(len(entry["blocks"]) * BLOCK_VARS, clauses)
    if "flips" in entry:
        formula, weights = flip_polarities(xm, formula, weights, entry["flips"])
    return formula, weights


def verdict(xm, workload: Workload, text: str, path: str):
    """One instance through the program as a user drives it. Returns the raw
    outcome; `answer` turns it into a checkable record outside the timed
    region. Module attributes are looked up at call time so a traced run's
    wrappers see every call."""
    if workload.via_cli:
        out = io.StringIO()
        with redirect_stdout(out):
            code = xm.cli.main(["solve", path, "--mode", workload.mode,
                                "--format", "machine"])
        return ("cli", code, out.getvalue())
    formula, weights = xm.formula.parse_formula(text)
    order = xm.planner.heuristic_order(formula, xm.Heuristic(workload.heuristic))
    tree = xm.planner.plan(formula, order)
    result = xm.executor.solve(formula, weights, tree, mode=workload.mode)
    wmc = xm.executor.count(formula, weights, tree) if workload.counts else None
    return ("lib", result, wmc)


def answer(outcome) -> dict:
    """Plain record of one verdict: maximum, maximizer literals, WMC."""
    if outcome[0] == "error":
        return {"error": outcome[1]}
    if outcome[0] == "cli":
        _, code, stdout = outcome
        if code != 0:
            return {"error": f"cli exit code {code}"}
        maximum, literals = None, None
        for line in stdout.splitlines():
            if line.startswith("s MAXIMUM "):
                maximum = float(line.split()[2])
            elif line.startswith("v "):
                literals = [int(tok) for tok in line.split()[1:-1]]
        if maximum is None or literals is None:
            return {"error": "cli output lacks an s or v line"}
        return {"maximum": maximum, "literals": literals, "wmc": None}
    _, result, wmc = outcome
    return {"maximum": result.maximum, "literals": result.maximizer_literals(),
            "wmc": wmc}
