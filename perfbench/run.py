"""The heckepairs benchmark: one workload, one fresh process, one JSON line.

    python3 perfbench/run.py --workload algebra-tree|rd-spectral|growth-reach
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs no install (the worker runs with
``src`` on PYTHONPATH) and reads its metric names and units from
``BENCHMARK.json``.  It runs the workload in one fresh process, in a closed
loop of whole rounds for at least ``--seconds``, and times set-up in that
process and in set-up-only processes started before and after it.  The last
line of its output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# set-up-only processes before and after the measured worker, so the set-up
# median spans the whole run rather than one moment of the machine's speed
SETUP_PROBES = 3
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_THREADS", None)          # the program's default: one worker
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from launch to ready."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "heckepairs",
                                       "__init__.py")):
        print("no src/heckepairs in this checkout", file=sys.stderr)
        return 2

    def probe():
        proc, ready = _start(args, ["--setup-only"])
        _finish(proc, DEADLINE_S)
        setup.append(ready)

    setup = []
    probes = 0 if args.trace else SETUP_PROBES
    for _ in range(probes):
        probe()
    proc, ready = _start(args, [])
    setup.append(ready)
    out = _finish(proc, DEADLINE_S - (time.perf_counter() - started))
    for _ in range(probes):
        probe()
    res = json.loads(out.strip().splitlines()[-1])
    for error in res["errors"]:
        print(f"check failed: {error}", file=sys.stderr)

    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["wall_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "reach_rmax": res["reach_rmax"],
    }
    wanted = spec["end_to_end"]
    if args.trace:
        measured = res["per_layer"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"round walls {[round(w, 3) for w in res['wall_s']]}, set-up "
          f"times {[round(s, 4) for s in setup]} (measured worker's at "
          f"position {probes})")
    print(json.dumps({"correct": not res["errors"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
