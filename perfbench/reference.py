#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks ops against.

    python3 perfbench/reference.py [workload ...]

Runs ops 0..REFERENCE_OPS-1 of each workload at the reference seed, untimed,
and stores their outputs in perfbench/reference/<workload>.json.  A benchmark
run at that seed then requires p-values, reject flags and rejection rates to
match exactly and statistics within workloads.STAT_RTOL.  Regenerate only when a
change to the package is meant to change results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run
import workloads as W

REFERENCE_SEED = 0
REFERENCE_OPS = 64


def reference_ops(wl, pkg) -> list:
    with tempfile.TemporaryDirectory(prefix="ref-", dir=run.OUT_DIR) as workdir:
        state = wl.setup(pkg, W.input_rng(wl.name, REFERENCE_SEED), workdir)
        ops = []
        for op in range(REFERENCE_OPS):
            returned = wl.op(pkg, state, W.op_seed(wl.name, REFERENCE_SEED, op))
            rows = wl.records(wl.collect(state, returned))
            problems = wl.check(pkg, rows)
            if problems:
                raise SystemExit(f"{wl.name} op {op}: " + "; ".join(problems))
            ops.append(rows)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(W.WORKLOADS))
    args = parser.parse_args(argv)
    pkg = run._import_package()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    out_dir = os.path.join(run.HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name in args.workloads:
        ops = reference_ops(W.WORKLOADS[name], pkg)
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"seed": {REFERENCE_SEED}, "ops": [\n')
            fh.write(",\n".join(json.dumps(rows) for rows in ops))
            fh.write("\n]}\n")
        sys.stdout.write(f"{path}: {len(ops)} ops\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
