"""Reference answers and the answer checker. Nothing here touches the
diagram code: chains are solved by a sliding-window dynamic program in numpy,
random blocks by the enumeration oracle (`brute_solve`), and certificates are
rechecked with `evaluate_formula` and the instance's `WeightFunction`.

References are costly (about a second per n=300 k=20 chain, a tenth of one
per block), so they are computed outside every timed region and cached on
disk, keyed by a hash of the instance text.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

RTOL = 1e-9


class Cache:
    """JSON values on disk, one file per key."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def get(self, key: str, compute):
        path = self.directory / f"{key}.json"
        if path.is_file():
            return json.loads(path.read_text())
        value = compute()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(value))
        tmp.replace(path)
        return value


def text_key(kind: str, text: str) -> str:
    return kind + "-" + hashlib.sha256(text.encode()).hexdigest()[:32]


def chain_max_log10(xm, formula, weights, k: int) -> float:
    """Optimum (as a log10 weight) of a sliding-window chain: clause i covers
    variables i..i+k-1. The state is the assignment of the last k-1
    variables; the window index holds the oldest window variable in bit 0."""
    m = k - 1
    size = 1 << m
    logs = {}
    for var in formula.variables:
        logs[var] = tuple(math.log10(w) if w > 0 else -math.inf
                          for w in weights.pair(var))
    # float32 adds integers below 2^24 exactly (weights 10 and 100 give log10
    # weights 1 and 2) at half the memory traffic; other weights need float64
    exact32 = all(math.isinf(x) or (x == int(x) and abs(x) < 1e4)
                  for pair in logs.values() for x in pair)
    dtype = np.float32 if exact32 else np.float64
    window = np.arange(2 * size, dtype=np.int64)
    parity = np.zeros(2 * size, dtype=bool)
    for bit in range(k):
        parity ^= ((window >> bit) & 1).astype(bool)
    odd_only = np.where(parity, 0.0, -np.inf).astype(dtype)
    even_only = np.where(parity, -np.inf, 0.0).astype(dtype)

    # best weight of the first m variables, indexed with variable v in bit v-1
    best = np.zeros(1, dtype=dtype)
    for var in range(1, m + 1):
        lo, hi = logs[var]
        best = np.concatenate([best + dtype(lo), best + dtype(hi)])
    cand = np.empty(2 * size, dtype=dtype)
    for index, clause in enumerate(formula.clauses):
        first = index + 1
        if sorted(clause.variables) != list(range(first, first + k)):
            raise ValueError(f"clause {index} is not the window {first}..{first + k - 1}")
        lo, hi = logs[first + m]
        np.add(best, lo, out=cand[:size])
        np.add(best, hi, out=cand[size:])
        negated = 0
        for lit in clause.literals:
            if not lit.positive:
                negated |= 1 << (lit.var - first)
        if clause.kind is xm.ClauseKind.XOR:
            # literal values are the window bits xor `negated`
            cand += even_only if bin(negated).count("1") % 2 else odd_only
        else:
            cand[negated] = -np.inf
        best = np.maximum(cand[0::2], cand[1::2])
    if len(formula.clauses) != formula.var_count - m:
        raise ValueError("formula is not a full sliding-window chain")
    return float(best.max())


def block_reference(xm, cache: Cache, block_seed: int) -> dict:
    formula, weights = workloads.gen_block(xm, block_seed)

    def compute():
        oracle = xm.brute_solve(formula, weights)
        return {"maximum": oracle.maximum, "wmc": oracle.wmc}

    return cache.get(text_key("block", xm.format_formula(formula, weights)), compute)


def reference(xm, cache: Cache, entry: dict) -> dict:
    """Reference record of one instance: the optimum in the instance's log10
    or linear scale, and the WMC where the workload counts. It is computed
    on the pool instance the entry relabels, whose optimum and WMC are the
    same (see workloads.flip_polarities), so each seed reuses the cache."""
    if "chain" in entry:
        k = entry["chain"][1]
        formula, weights = workloads.build(xm, workloads.base_entry(entry))
        text = xm.format_formula(formula, weights)
        return cache.get(text_key("chain", text), lambda: {
            "max_log10": chain_max_log10(xm, formula, weights, k)})
    maximum, wmc = 1.0, 1.0
    for block_seed in entry["blocks"]:
        ref = block_reference(xm, cache, block_seed)
        maximum *= ref["maximum"]
        wmc *= ref["wmc"]
    return {"maximum": maximum, "wmc": wmc}


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=RTOL)


def check(xm, formula, weights, mode: str, ref: dict, record: dict) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    if "error" in record:
        return [record["error"]]
    problems = []
    maximum = record["maximum"]
    assignment = {abs(lit): lit > 0 for lit in record["literals"]}
    if sorted(assignment) != list(formula.variables) or \
            len(record["literals"]) != formula.var_count:
        return ["maximizer is not a total assignment"]
    if not xm.evaluate_formula(formula, assignment):
        problems.append("maximizer violates the formula")
    log_weight = math.fsum(
        math.log10(w) if w > 0 else -math.inf
        for w in (weights.weight(v, assignment[v]) for v in sorted(assignment)))
    if mode == "log10":
        certified = _close(log_weight, maximum)
        reported_log = maximum
    else:
        certified = _close(xm.evaluate_weight(weights, assignment), maximum)
        reported_log = math.log10(maximum) if maximum > 0 else -math.inf
    if not certified:
        problems.append(f"maximizer weighs 10^{log_weight!r}, reported maximum {maximum!r}")
    if "max_log10" in ref:
        if not _close(reported_log, ref["max_log10"]):
            problems.append(f"maximum {maximum!r} is not the optimum "
                            f"10^{ref['max_log10']!r}")
    elif not _close(maximum, ref["maximum"]):
        problems.append(f"maximum {maximum!r} is not the optimum {ref['maximum']!r}")
    if "wmc" in ref:
        wmc = record["wmc"] if record["wmc"] is not None else math.nan
        if not _close(wmc, ref["wmc"]):
            problems.append(f"WMC {record['wmc']!r} is not {ref['wmc']!r}")
    return problems


def self_test(xm, cache: Cache) -> tuple[list[str], list[str]]:
    """Show that the checker rejects known-wrong answers. Returns the cases it
    got wrong, and the checker's findings on the linear-mode chain answer.

    The known defect: chain n=300 k=20 seed 7 in linear mode overflows to inf
    and returns a maximizer of weight about 10^501 (the optimum is 10^548).
    While the program still overflows there, the checker must reject that
    answer, so running chains in log10 mode cannot hide the defect.
    """
    misses = []

    def solve_record(entry, mode, counts=False):
        formula, weights = workloads.build(xm, entry)
        text = xm.format_formula(formula, weights)
        workload = workloads.Workload("self-test", "", 1, mode=mode, counts=counts)
        try:
            record = workloads.answer(workloads.verdict(xm, workload, text, ""))
        except Exception as exc:  # a raising solve is a rejected answer
            record = {"error": f"{type(exc).__name__}: {exc}"}
        return formula, weights, reference(xm, cache, entry), record

    formula, weights, ref, record = solve_record({"chain": [300, 20, 7]}, "linear")
    linear_problems = check(xm, formula, weights, "linear", ref, record)
    if "error" not in record and not math.isfinite(record["maximum"]) \
            and not linear_problems:
        misses.append("accepted the linear-mode overflow answer of chain 300/20 seed 7")

    formula, weights, ref, record = solve_record({"chain": [40, 4, 7]}, "log10")
    if check(xm, formula, weights, "log10", ref, record):
        misses.append("rejected a correct log10 chain answer")
    flipped = dict(record, literals=[-record["literals"][0]] + record["literals"][1:])
    if not check(xm, formula, weights, "log10", ref, flipped):
        misses.append("accepted a maximizer with one variable flipped")
    raised = dict(record, maximum=record["maximum"] * (1 + 1e-6))
    if not check(xm, formula, weights, "log10", ref, raised):
        misses.append("accepted a maximum off by 1e-6 relative")
    if not check(xm, formula, weights, "linear", ref, dict(record, maximum=math.inf)):
        misses.append("accepted a maximum of inf")

    # a seed's relabelling keeps the optimum and WMC the references reuse
    formula, weights = workloads.build(xm, {"chain": [40, 4, 7], "flips": 1})
    if not _close(chain_max_log10(xm, formula, weights, 4), ref["max_log10"]):
        misses.append("relabelling changed the optimum of chain 40/4 seed 7")

    block_seed = next(s for s in workloads.block_candidates()
                      if block_reference(xm, cache, s)["maximum"] > 0)
    formula, weights = workloads.build(xm, {"blocks": [block_seed], "flips": 1})
    oracle = xm.brute_solve(formula, weights)
    base = block_reference(xm, cache, block_seed)
    if not (_close(oracle.maximum, base["maximum"]) and _close(oracle.wmc, base["wmc"])):
        misses.append("relabelling changed the optimum or WMC of a random block")
    formula, weights, ref, record = solve_record({"blocks": [block_seed]}, "linear",
                                                 counts=True)
    if check(xm, formula, weights, "linear", ref, record):
        misses.append("rejected a correct linear answer with its WMC")
    if not check(xm, formula, weights, "linear", ref,
                 dict(record, wmc=record["wmc"] * (1 + 1e-6))):
        misses.append("accepted a WMC off by 1e-6 relative")
    return misses, linear_problems
