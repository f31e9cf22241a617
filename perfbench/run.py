"""xormpe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain-lex --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run draws the workload's instance set
from the seed, computes (or reuses) reference answers, self-tests the answer
checker, times set-up in several fresh processes, then measures the workload
in one fresh worker process (see worker.py) and checks every answer it gave.
It prints each metric by name and unit, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Scratch files (instances, reference cache, results) live in .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
SPAN_NAMES = sorted(tracing.COARSE | set(tracing.DIAGRAM_OPS.values()))
COUNT_NAMES = ("diagram.allocated_nodes", "diagram.op_cache_entries",
               "diagram.terminals", "executor.peak_nodes", "planner.width",
               "planner.tree_nodes")
SETUP_SAMPLES = 7      # set-up is timed in this many fresh processes
DEADLINE_S = 170.0     # the whole run, worker included, ends before this


def instance_set(xm, workload, seed, cache):
    """Manifest entries plus (formula, weights, reference) of each."""
    if workload.family == "chain":
        entries = workloads.chain_entries(workload, seed)
    else:
        pool = []
        for block_seed in workloads.block_candidates():
            if reference.block_reference(xm, cache, block_seed)["maximum"] > 0:
                pool.append(block_seed)
                if len(pool) == workload.size * workloads.BLOCKS:
                    break
        entries = workloads.block_entries(workload, seed, pool)
    checked = []
    for entry in entries:
        formula, weights = workloads.build(xm, entry)
        checked.append((formula, weights, reference.reference(xm, cache, entry)))
    return entries, checked


def run_worker(manifest_path, result_path, extra, timeout):
    subprocess.run([sys.executable, str(WORKER), str(manifest_path), str(result_path),
                    *extra], check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(result_path.read_text())


def tail(samples):
    """Highest percentile with at least ten samples above it, as (level,
    value); None unless that percentile lies above the median."""
    ordered = sorted(samples)
    rank = len(ordered) - 11
    if rank < len(ordered) // 2:
        return None
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def counts_key(entries) -> str:
    """Digest of the program source and the instance set: counts must repeat
    exactly for equal keys."""
    digest = hashlib.sha256(json.dumps(entries).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def scaled(seconds, cal_s):
    """Seconds at the calibration kernel's reference speed (calibrate.py)."""
    return seconds * calibrate.CAL_REF_S / cal_s


def end_to_end(result, setup_samples):
    """End-to-end metrics, each timing scaled to the reference speed, and
    the same medians unscaled."""
    passes = result["passes"]
    verdicts = [scaled(t, c) for p in passes for t, c in zip(p["verdict_s"], p["cal_s"])]
    metrics = {
        "verdict_s": statistics.median(verdicts),
        "run_s": statistics.median(
            sum(scaled(t, c) for t, c in zip(p["verdict_s"], p["cal_s"])) for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(scaled(t, c) for t, c in setup_samples),
    }
    raw = {
        "verdict_s": statistics.median(t for p in passes for t in p["verdict_s"]),
        "run_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(t for t, _ in setup_samples),
    }
    return metrics, raw, verdicts


def per_layer(result):
    """Per-layer metrics: per pass over the instance set, times as the median
    over the traced passes. Also returns the count records of each traced
    pass."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    rows = []
    for p in traced:
        t = p["trace"]
        self_s, total_s, calls, counts = t["self_s"], t["total_s"], t["calls"], t["counts"]
        row = {
            "formula.parse_s": self_s.get("formula.parse", 0.0),
            "planner.order_s": self_s.get("planner.order", 0.0),
            "planner.plan_s": self_s.get("planner.plan", 0.0),
            "executor.self_s": (self_s.get("executor.solve", 0.0)
                                + self_s.get("executor.count", 0.0)),
            "executor.count_s": total_s.get("executor.count", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "bench.self_s": p["wall_s"] - t["top_level_s"],
            "trace.run_s": p["wall_s"],
        }
        for name in tracing.DIAGRAM_OPS.values():
            row[f"{name}_s"] = self_s.get(name, 0.0)
        count_row = {f"{name}_calls": calls.get(name, 0) for name in SPAN_NAMES}
        for name in COUNT_NAMES:
            count_row[name] = counts.get(name, 0)
        peak = counts.get("executor.peak_nodes", 0)
        row["diagram.alloc_per_peak"] = (
            counts.get("executor.solve_allocated_nodes", 0) / peak if peak else 0.0)
        row.update(count_row)
        rows.append((row, count_row))
    metrics = {name: statistics.median(r[name] for r, _ in rows) for name in rows[0][0]}
    metrics.update(rows[0][1])  # counts repeat exactly (checked), so keep them whole
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics, [c for _, c in rows]


def count_mismatches(count_rows, stored):
    """Names of counts that differ between traced passes, or from a stored
    record of an earlier run on the same instance set and source."""
    flagged = set()
    for row in count_rows[1:] + ([stored] if stored is not None else []):
        flagged.update(name for name in count_rows[0] if row.get(name) != count_rows[0][name])
    return sorted(flagged)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    try:
        xm = workloads.load_xormpe(ROOT)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    cache = reference.Cache(WORK / "cache")
    directory = WORK / workload.name
    directory.mkdir(parents=True, exist_ok=True)
    entries, checked = instance_set(xm, workload, args.seed, cache)
    misses, linear_problems = reference.self_test(xm, cache)
    for miss in misses:
        print(f"checker self-test failed: {miss}", file=sys.stderr)
    print("checker self-test: linear-mode chain 300/20 seed 7 "
          + ("rejected: " + "; ".join(linear_problems) if linear_problems else "accepted"))

    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps({"workload": workload.name,
                                         "directory": str(directory),
                                         "instances": entries}))
    result_path = directory / "result.json"
    # (set-up seconds, mean calibration time measured just before and after)
    calibrator = calibrate.Calibrator()
    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        before = calibrator.measure()
        setup = run_worker(manifest_path, result_path, ["--setup-only"], timeout=60)
        setup_samples.append((setup["setup_s"], (before + calibrator.measure()) / 2))
    remaining = DEADLINE_S - (time.monotonic() - started)
    result = run_worker(manifest_path, result_path,
                        ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        timeout=max(remaining, 1.0))

    attempted = failed = 0
    for p in result["passes"]:
        for (formula, weights, ref), record in zip(checked, p["answers"]):
            attempted += 1
            problems = reference.check(xm, formula, weights, workload.mode, ref, record)
            if problems:
                failed += 1
                print(f"wrong answer: {'; '.join(problems)}", file=sys.stderr)
    correct = failed == 0 and not misses

    if args.trace:
        metrics, count_rows = per_layer(result)
        stored_path = WORK / "counts" / f"{workload.name}-{counts_key(entries)}.json"
        stored = json.loads(stored_path.read_text()) if stored_path.is_file() else None
        flagged = count_mismatches(count_rows, stored)
        if flagged:
            correct = False
            print(f"counts that did not repeat: {', '.join(flagged)}", file=sys.stderr)
        elif stored is None:
            stored_path.parent.mkdir(parents=True, exist_ok=True)
            stored_path.write_text(json.dumps(count_rows[0]))
        (directory / "spans.json").write_text(json.dumps(
            [p["trace"]["spans"] for p in result["passes"] if p["traced"]]))
        covered = metrics["trace.run_s"] - metrics["bench.self_s"]
        print(f"trace: layer self-times sum to {covered:.6f} s of traced run_s "
              f"{metrics['trace.run_s']:.6f} s; tracing overhead "
              f"{metrics['trace.overhead_s']:.6f} s")
    else:
        metrics, raw, verdicts = end_to_end(result, setup_samples)
        top = tail(verdicts)
        tail_text = (f"p{top[0]:.1f} {top[1]:.6f} s" if top
                     else "n/a (too few samples)")
        print(f"verdict_s: median {metrics['verdict_s']:.6f} s, tail {tail_text}, "
              f"{len(verdicts)} samples")
        print("unscaled wall seconds: " + ", ".join(
            f"{name} {value:.6f} s" for name, value in raw.items()))
        print(f"failed_share: {failed}/{attempted} = {failed / attempted:.6f}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {metrics[m['name']]} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
