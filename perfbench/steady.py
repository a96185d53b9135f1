"""Steadiness check: two sets of benchmark runs of the same code, compared
against the bounds fixed in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b]

Each set runs every workload ten times, each run with its own seed (set A
takes seeds 1-10, set B seeds 11-20).  Per workload and end-to-end metric it
reports both medians and the spread of each set and of all runs together:
the distance between the first and third quartile as a share of the median.
A metric agrees when every spread stays within its bound and the two medians
differ by no more than the bound, as a share of set A's, in either direction;
a workload agrees when, in addition, both sets fail the same share of
operations and every run is correct.  Raw results, with each run's log lines,
go to perfbench/out/steady-*.json.  Exits 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10           # runs per set
FIRST_SEED = 1


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["log"] = lines[:-1]
    return res


def compare(spec: dict, runs_a: list, runs_b: list) -> tuple[bool, list]:
    rows, ok = [], True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        drift = abs(med_b - med_a) / med_a if med_a else 0.0
        spreads = [spread(a), spread(b), spread(a + b)]
        agree = drift <= bound and all(s <= bound for s in spreads)
        ok &= agree
        rows.append((name, med_a, med_b, *spreads, bound, agree))
    share_a = {r["failed"] / r["attempted"] for r in runs_a}
    share_b = {r["failed"] / r["attempted"] for r in runs_b}
    same_share = len(share_a | share_b) == 1
    correct = all(r["correct"] for r in runs_a + runs_b)
    return ok and same_share and correct, rows + [
        ("failed share", sorted(share_a), sorted(share_b), same_share),
        ("correct", correct)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    raw, all_ok = {}, True
    for workload in names:
        sets = []
        for k in range(2):
            first = FIRST_SEED + k * RUNS
            runs = []
            for seed in range(first, first + RUNS):
                res = run_once(spec["command"], workload, seed,
                               spec["run_seconds"])
                runs.append(res)
                print(f"{workload} set {'AB'[k]} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.4g}"
                    for n, v in res["metrics"].items()), flush=True)
            sets.append(runs)
        raw[workload] = sets
        ok, rows = compare(spec, *sets)
        all_ok &= ok
        print(f"\n{workload}: {'agrees' if ok else 'DOES NOT AGREE'}")
        print(f"  {'metric':<12} {'median A':>11} {'median B':>11} "
              f"{'spread A':>9} {'spread B':>9} {'spread all':>10} "
              f"{'bound':>6}")
        for row in rows[:-2]:
            name, med_a, med_b, sa, sb, sall, bound, agree = row
            print(f"  {name:<12} {med_a:>11.4f} {med_b:>11.4f} {sa:>9.4f} "
                  f"{sb:>9.4f} {sall:>10.4f} {bound:>6.2f} "
                  f"{'ok' if agree else 'NO'}")
        print(f"  failed share A {rows[-2][1]} B {rows[-2][2]}; "
              f"all correct: {rows[-1][1]}\n", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{'-'.join(names)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
