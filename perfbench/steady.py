#!/usr/bin/env python3
"""Steadiness check: run the benchmark twice on the same code and compare.

    python3 perfbench/steady.py [--workloads a,b] [--out FILE]

Two sets, one after the other, each run every workload RUNS times, seeds
0..RUNS-1, untraced, for BENCHMARK.json's run_seconds.  For every end-to-end
metric and workload it reports, per set, the median and the spread
(q3 - q1) / median of the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them; and the drift of the second
set's median from the first (positive when worse).  A metric agrees when
both spreads and the size of the drift, in either direction, stay within the
bound in BENCHMARK.json; it is steady when both spreads are below a third of
the bound.  After the first set, one traced run per workload records the
per-layer metrics.  ``--out`` writes everything, with the machine, as JSON.
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
SETS = 2
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    machine = next((json.loads(l[8:]) for l in lines if l.startswith("machine ")), None)
    return {"seed": seed, "machine": machine, **result}


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def drift(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share;
    negative when it is better."""
    worse = second - first if better == "lower" else first - second
    return worse / first if first else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    seconds = bench["run_seconds"]

    sets = []
    traced = {}
    for s in range(SETS):
        runs = {}
        for name in chosen:
            runs[name] = []
            for seed in range(RUNS):
                r = bench_run(name, seed, seconds, 0)
                runs[name].append(r)
                sys.stderr.write(
                    f"set {s + 1} {name} seed {seed}: correct={r['correct']} "
                    f"failed={r['failed']}/{r['attempted']}\n")
            if s == 0:
                traced[name] = bench_run(name, 0, seconds, 1)
        sets.append(runs)

    rows = []
    all_ok = all_steady = True
    for name in chosen:
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][m]["value"] for r in runs[name]]) for runs in sets]
            spreads = [sp for _, sp in stats]
            d = drift(stats[0][0], stats[1][0], metric["better"])
            ok = abs(d) <= bound and all(sp <= bound for sp in spreads)
            steady = all(sp < bound / 3 for sp in spreads)
            all_ok &= ok
            all_steady &= steady
            rows.append({
                "workload": name, "metric": m, "unit": metric["unit"], "bound": bound,
                "medians": [med for med, _ in stats], "spreads": spreads,
                "drift": d, "agree": ok, "steady": steady,
            })
            print(f"{name:11s} {m:13s} medians "
                  + " ".join(f"{med:11.6g}" for med, _ in stats)
                  + "  spreads " + " ".join(f"{sp:6.3f}" for sp in spreads)
                  + f"  drift {d:+.3f}  bound {bound:.3f}"
                  + f"  {'agree' if ok else 'DISAGREE'}{'' if steady else ' (not steady)'}")
    failed = sum(r["failed"] for runs in sets for rs in runs.values() for r in rs)
    print(f"runs agree within bounds: {all_ok}; steady (spread < bound/3): {all_steady}; "
          f"failed ops: {failed}")
    if args.out:
        machine = next(iter(next(iter(sets[0].values()))))["machine"]
        summary = {
            "machine": machine, "run_seconds": seconds, "runs_per_set": RUNS,
            "sets": SETS, "end_to_end": rows,
            "runs": [{n: [{"seed": r["seed"], "metrics": r["metrics"], "failed": r["failed"],
                           "attempted": r["attempted"]} for r in rs]
                      for n, rs in runs.items()} for runs in sets],
            "per_layer": {n: r["metrics"] for n, r in traced.items()},
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
