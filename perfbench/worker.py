"""Measured process of one benchmark run: set up, then time verdicts.

    python3 perfbench/worker.py MANIFEST RESULT --seconds S --trace 0|1
    python3 perfbench/worker.py MANIFEST RESULT --setup-only

Set-up (importing the package, generating the manifest's instances and
writing their files) is timed from the top of this script. Then whole passes
over the instance set run back to back, one verdict at a time, until the
time is up. With --trace 0, the host's speed is measured between verdicts
(see calibrate.py). With --trace 1, passes alternate untraced and traced (at least
one of each). Answers and timings go to RESULT as JSON; the orchestrator
checks them.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CAL_EVERY_S = 1.0   # calibrate between verdicts at most this often


def run_pass(xm, workload, instances, calibrator=None):
    """One pass over the instance set. With a calibrator, the host's speed
    is measured at the start, between verdicts once CAL_EVERY_S has passed,
    and at the end; each verdict gets the mean of the measurements on either
    side of it, and calibration time is left out of the pass's wall time."""
    times, outcomes, cal_times = [], [], []
    pending = 0             # verdicts since the last measurement
    cal_s = 0.0             # seconds spent calibrating
    before = calibrator.measure() if calibrator else None
    last = started = perf_counter()
    for text, path in instances:
        if calibrator and pending and perf_counter() - last >= CAL_EVERY_S:
            begin = perf_counter()
            after = calibrator.measure()
            cal_times += [(before + after) / 2] * pending
            pending, before = 0, after
            last = perf_counter()
            cal_s += last - begin
        begin = perf_counter()
        try:
            outcome = workloads.verdict(xm, workload, text, path)
        except Exception as exc:  # a raising verdict is a failed answer, not a crash
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - begin)
        outcomes.append(outcome)
        pending += 1
    wall = perf_counter() - started - cal_s
    if calibrator:
        after = calibrator.measure()
        cal_times += [(before + after) / 2] * pending
    return wall, times, cal_times, outcomes


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    xm = workloads.load_xormpe(ROOT)
    manifest = json.loads(Path(args.manifest).read_text())
    workload = workloads.WORKLOADS[manifest["workload"]]
    directory = Path(manifest["directory"])
    instances = []
    for i, entry in enumerate(manifest["instances"]):
        formula, weights = workloads.build(xm, entry)
        text = xm.format_formula(formula, weights)
        path = directory / f"{i:02d}_{entry['name']}.xcnf"
        path.write_text(text, encoding="utf-8")
        instances.append((text, str(path)))
    record = {"setup_s": perf_counter() - STARTED}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return

    tracer = Tracer(xm) if args.trace else None
    # traced passes report raw times: their layer spans must add up to the
    # pass's wall time, with no calibration in between
    calibrator = None if args.trace else Calibrator()
    passes = []
    clock = perf_counter()
    while (perf_counter() - clock < args.seconds or not passes
           or (tracer and len(passes) < 2)):
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, times, cal_times, outcomes = run_pass(xm, workload, instances, calibrator)
        finally:
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "wall_s": wall, "verdict_s": times, "cal_s": cal_times,
                 "answers": [workloads.answer(o) for o in outcomes]}
        if traced:
            entry["trace"] = {
                "self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
                "calls": dict(tracer.calls), "counts": dict(tracer.counts),
                "top_level_s": tracer.top_level_s(), "spans": list(tracer.spans)}
        del outcomes  # free this pass's results before the next pass starts
        passes.append(entry)
    record["passes"] = passes
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
