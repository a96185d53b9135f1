"""One workload in one fresh process: make the inputs, run whole rounds,
check every operation, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

Run from the root of a checkout, with ``src`` on PYTHONPATH (``run.py`` sets
it).  The worker prints ``ready`` once its inputs exist, which is where
``run.py`` stops the set-up clock; ``--setup-only`` exits there.  Its last
line is one JSON object with the round results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import heckepairs

SRC = os.path.abspath("src")
OUT = os.path.join("perfbench", "out")


def run_round(workload, inputs, state: dict) -> dict:
    """Time one round of operations, checking each one with the clock
    stopped.  Returns the round's wall time and its tallies."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    # per pair: [operations, failed operations]
    tally = {"attempted": 0, "errors": [], "groups": {}, "reach_ok": {}}
    ops = workload.round(inputs, workdir, state)
    wall = 0.0
    while True:
        t0 = time.perf_counter()
        op = next(ops, None)
        wall += time.perf_counter() - t0
        if op is None:
            break
        tally["attempted"] += 1
        if op.known_fault(op.outcome):
            ok, error = False, None
        else:
            error = op.check(op.outcome)
            ok = error is None
        counts = tally["groups"].setdefault(op.group, [0, 0])
        counts[0] += 1
        counts[1] += not ok
        if error:
            tally["errors"].append(f"{op.name}: {error}")
        if op.reach is not None:
            tally["reach_ok"][op.reach] = (
                tally["reach_ok"].get(op.reach, True) and ok)
    shutil.rmtree(workdir, ignore_errors=True)
    tally["wall_s"] = wall
    return tally


def reach(reach_ok: dict) -> int:
    """Largest probed radius at which the psl2z1p:2 growth probes succeed,
    and at every smaller probed radius; 0 when the smallest already fails."""
    best = 0
    for r in sorted(reach_ok):
        if not reach_ok[r]:
            break
        best = r
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(heckepairs.__file__).startswith(SRC + os.sep):
        print(f"heckepairs imported from {heckepairs.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    rounds, traced = [], []
    state: dict = {}
    start = time.perf_counter()
    if args.trace:
        from layertrace import Tracer
        rounds.append(run_round(workload, inputs, state))   # untraced
        tracer = Tracer()
        tracer.install()
    while True:
        state = {}
        gc.collect()
        mark = tracer.mark() if tracer else None
        tally = run_round(workload, inputs, state)
        rounds.append(tally)
        if tracer:
            traced.append((tally["wall_s"], tracer.metrics_since(mark)))
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # store-wide checks on the last round's state; a failure fails every
    # operation that ran on that pair
    errors = [e for t in rounds for e in t["errors"]]
    problems = workload.final(state)
    errors += [f"{group}: {problem}" for group, problem in problems]
    broken = {group for group, _ in problems}
    failed = sum(ops if group in broken else n_failed for t in rounds
                 for group, (ops, n_failed) in t["groups"].items())
    reach_ok: dict = {}
    for t in rounds:
        for r, ok in t["reach_ok"].items():
            reach_ok[r] = reach_ok.get(r, True) and ok

    result = {
        "attempted": sum(t["attempted"] for t in rounds),
        "failed": failed,
        "errors": errors,
        "rounds": len(rounds),
        "wall_s": [t["wall_s"] for t in rounds],
        "peak_rss_mb": peak_rss_mb,
        "reach_rmax": (reach(reach_ok) if workload.fixed_reach is None
                       else workload.fixed_reach),
    }
    if tracer:
        layers = {key: statistics.median(m[key] for _, m in traced)
                  for key in traced[0][1]}
        layers["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced) - rounds[0]["wall_s"])
        result["per_layer"] = layers
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
