#!/usr/bin/env python3
"""metricmanova benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload cli_s1 --seed 0 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Every op's output is checked.  The last line of standard
output is the JSON result; the lines before it are a readable report with
the machine the run was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from types import SimpleNamespace


def _limit_blas_threads() -> None:
    """Keep OpenBLAS at or below the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


# OpenBLAS reads its thread count when numpy is first imported
_limit_blas_threads()

import machine  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 15
WARMUP_OPS = 2
TAIL_OPS = 10  # ops beyond the reported tail percentile
# share of a traced run spent with tracemalloc on; the rest alternates
# untraced and traced ops, so that speed drift cancels out of the overhead
TRACE_MEMORY_SHARE = 0.2

# Set-up's speed probe: a fresh-interpreter import of fixed standard-library
# modules, the same kind of work as importing the package.  The reference
# time is about the probe's median on the 2-core Xeon VM of the first
# baseline; it only fixes the unit.
STDLIB_PROBE_MODULES = "json, decimal, email.parser, http.client, xml.dom.minidom"
STDLIB_PROBE_REFERENCE_S = 4.0e-2


def _import_package() -> SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "metricmanova", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import metricmanova
    import metricmanova.cli
    import metricmanova.simulation

    if not os.path.abspath(metricmanova.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported metricmanova from {metricmanova.__file__}")
    return SimpleNamespace(
        cli=metricmanova.cli, simulation=metricmanova.simulation,
        TEST_NAMES=metricmanova.TEST_NAMES,
    )


def _time_import(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {modules}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _set_up(wl, pkg, seed: int, workdir: str):
    """One set-up: a fresh-interpreter import of the package, after the
    import speed probe, plus generating and writing the workload's inputs.

    Returns (state, (import probe seconds, import seconds, generation
    seconds))."""
    probe = _time_import(STDLIB_PROBE_MODULES)
    imported = _time_import("metricmanova.cli")
    t0 = time.perf_counter()
    state = wl.setup(pkg, W.input_rng(wl.name, seed), workdir)
    return state, (probe, imported, time.perf_counter() - t0)


class Checker:
    """Checks each op's output as soon as the op returns and keeps only
    tallies, so the benchmark's memory does not grow with the op count.
    The first few problems go to stderr."""

    def __init__(self, wl, pkg, reference):
        self.wl, self.pkg, self.reference = wl, pkg, reference
        self.attempted = self.failed = 0
        self.replicates = [0, 0]  # Monte Carlo replicates used, requested

    def add(self, op: int, state, returned, error) -> None:
        self.attempted += 1
        problems = [error] if error else self._problems(op, state, returned)
        if problems:
            self.failed += 1
            if self.failed <= 3:
                sys.stderr.write(f"op {op} failed:\n  " + "\n  ".join(problems) + "\n")

    def _problems(self, op: int, state, returned) -> list:
        try:
            output = self.wl.collect(state, returned)
            if "error" in output:
                return [output["error"]]
            rows = self.wl.records(output)
            problems = self.wl.check(self.pkg, rows)
            if self.reference is not None and op < len(self.reference):
                problems += self.wl.compare(rows, self.reference[op])
            used, requested = self.wl.replicates(rows)
        except Exception:  # an output that cannot be read fails its op
            return ["unreadable output:\n" + traceback.format_exc()]
        self.replicates[0] += used
        self.replicates[1] += requested
        return problems

    def valid_replicate_ratio(self) -> float:
        """Replicates used over replicates requested (RejectionEstimate.nsims
        / nsims); 1.0 for workloads without replicates."""
        used, requested = self.replicates
        return used / requested if requested else 1.0


def _loop(wl, pkg, state, seed: int, first_op: int, seconds: float, checker,
          call=None, min_ops: int = 1, between=None):
    """Closed loop: start ops until ``seconds`` have passed and ``min_ops``
    ops have run.  ``call(op, fn, *args)`` runs one op; default untraced.
    Each op's output goes to ``checker`` right after the op, and
    ``between(elapsed seconds)``, if given, runs before every op.  Their
    time is left out of the returned wall and CPU time.

    Returns per-op durations, wall and CPU time."""
    call = call or (lambda op, fn, *a: fn(*a))
    durations = []
    op = first_op
    aside_wall = aside_cpu = 0.0
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    while len(durations) < min_ops or time.perf_counter() - t_start < seconds:
        if between is not None:
            wall0, cpu1 = time.perf_counter(), time.process_time()
            between(wall0 - t_start)
            aside_wall += time.perf_counter() - wall0
            aside_cpu += time.process_time() - cpu1
        op_seed = W.op_seed(wl.name, seed, op)
        t0 = time.perf_counter()
        try:
            returned, error = call(op, wl.op, pkg, state, op_seed), None
        except Exception:  # an op that raises is a failed op; keep measuring
            returned, error = None, traceback.format_exc()
        durations.append(time.perf_counter() - t0)
        wall0, cpu1 = time.perf_counter(), time.process_time()
        checker.add(op, state, returned, error)
        aside_wall += time.perf_counter() - wall0
        aside_cpu += time.process_time() - cpu1
        op += 1
    wall = time.perf_counter() - t_start - aside_wall
    return durations, wall, time.process_time() - cpu0 - aside_cpu


def _load_reference(name: str, seed: int):
    path = os.path.join(HERE, "reference", f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["ops"] if ref["seed"] == seed else None


def _tail(durations):
    """(value, percentile): the highest percentile with TAIL_OPS ops beyond it."""
    d = sorted(durations)
    n = len(d)
    if n <= TAIL_OPS:
        return d[-1], 100.0
    return d[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def _warm_up(wl, pkg, state, seed: int, checker) -> int:
    """Ops 0..WARMUP_OPS-1, untimed: lazy set-up and caches settle first."""
    return len(_loop(wl, pkg, state, seed, 0, 0.0, checker, min_ops=WARMUP_OPS)[0])


def measure(wl, pkg, state, args, checker, workdir: str, first_setup: tuple):
    """End-to-end metrics.  Before every op the speed probe runs, and the
    set-ups after the first are spread evenly over the loop, so that set-up
    time samples the same spells of machine speed as the ops; neither is
    timed as part of an op or of the loop.  Times are scaled to the
    reference machine speed: each op's duration by the factor of the probe
    run just before it (so op_s_p50 follows spells shorter than the run),
    totals and input generation by the run's speed factor, and imports by
    the import probe's factor.  The raw values are printed as well."""
    first = _warm_up(wl, pkg, state, args.seed, checker)
    probe = machine.SpeedProbe()
    setups = [first_setup]
    op_speed = []  # speed factor of the probe run just before each op
    spare = os.path.join(workdir, "setup")
    os.makedirs(spare)
    spacing = args.seconds / SETUP_REPEATS

    def set_up_again():
        setups.append(_set_up(wl, pkg, args.seed, spare)[1])

    def between(elapsed: float) -> None:
        op_speed.append(probe.run())
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * spacing:
            set_up_again()

    durations, wall, cpu = _loop(
        wl, pkg, state, args.seed, first, args.seconds, checker, between=between)
    while len(setups) < SETUP_REPEATS:  # ops too slow to fit them all in
        set_up_again()
    n = len(durations)
    scaled = [d * f for d, f in zip(durations, op_speed)]
    tail, pct = _tail(scaled)
    raw = {
        "op_s_p50": (statistics.median(durations), "s"),
        "ops_per_s": (n / wall, "1/s"),
        "cpu_s_per_op": (cpu / n, "s"),
    }
    # the run's factor: the per-op factors weighted by the op time they cover
    speed = sum(scaled) / sum(durations)
    metrics = {
        "op_s_p50": (statistics.median(scaled), "s"),
        "op_s_tail": (tail, "s"),
        "ops_per_s": (n / wall / speed, "1/s"),
        "cpu_s_per_op": (cpu / n * speed, "s"),
    }
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_ratio"] = ((checker.attempted - checker.failed) / checker.attempted, "ratio")
    setup_raw = statistics.median(i + g for _, i, g in setups)
    import_speed = STDLIB_PROBE_REFERENCE_S / statistics.median(p for p, _, _ in setups)
    metrics["setup_s"] = (
        statistics.median(i * import_speed + g * speed for _, i, g in setups), "s")
    notes = [
        f"timed ops {n} (after {WARMUP_OPS} warm-up ops) in {wall:.3f} s",
        f"op_s_tail {tail:.6g} s is p{pct:.1f}: "
        f"{sum(d > tail for d in scaled)} of {n} ops took longer",
        f"fail_ratio {checker.failed / checker.attempted:.6g} "
        f"({checker.failed} of {checker.attempted} ops)",
        f"setup_s is the median of {len(setups)} set-ups; raw medians import "
        f"{statistics.median(i for _, i, _ in setups):.6g} s, input generation "
        f"{statistics.median(g for _, _, g in setups):.6g} s; import probe factor "
        f"{import_speed:.6g}",
        f"speed factor {speed:.6g} from {len(op_speed)} probes; probe part medians "
        + " ".join(f"{statistics.median(t) * 1e3:.4g}" for t in probe.times)
        + f" ms, geometric mean reference {machine.PROBE_REFERENCE_S * 1e3:.4g} ms",
        "raw (unscaled) " + "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items())
        + f"  setup_s {setup_raw:.6g} s",
    ]
    return metrics, notes


def measure_traced(wl, pkg, state, args, checker):
    op = _warm_up(wl, pkg, state, args.seed, checker)
    tracer = S.Tracer()
    untraced, traced = [], []
    end = time.perf_counter() + args.seconds * (1.0 - TRACE_MEMORY_SHARE)
    while time.perf_counter() < end:
        # one untraced op, then one traced op; each _loop call runs one op
        untraced += _loop(wl, pkg, state, args.seed, op, 0.0, checker)[0]
        with S.installed(tracer):
            traced += _loop(wl, pkg, state, args.seed, op + 1, 0.0, checker, tracer.op)[0]
        op += 2

    mem = S.Tracer(memory=True)
    tracemalloc.start()
    try:
        with S.installed(mem):
            with_memory, _, _ = _loop(wl, pkg, state, args.seed, op,
                                      args.seconds * TRACE_MEMORY_SHARE, checker, mem.op)
    finally:
        tracemalloc.stop()

    hooks = S.hook_report(tracer.spans, tracer.status, wl.kind)
    metrics, perm_ratios = S.layer_metrics(tracer.spans, mem.spans, hooks)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    metrics["simulation.valid_replicate_ratio"] = (checker.valid_replicate_ratio(), "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl")
    S.dump(tracer.spans + mem.spans, span_file)

    notes = [f"ops: {len(untraced)} untraced, {len(traced)} traced, "
             f"{len(with_memory)} with tracemalloc",
             f"spans written to {os.path.relpath(span_file, ROOT)}"]
    notes += [f"hook {name}: {state}" for name, state in hooks.items()]
    notes += [f"valid permutations {name}: {r:.6g}" for name, r in sorted(perm_ratios.items())]
    for name, state in hooks.items():
        if state in ("missing", "idle-expected"):
            sys.stderr.write(f"perfbench: trace hook {name} is {state} on {wl.name}\n")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pkg = _import_package()
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    reference = _load_reference(wl.name, args.seed)

    os.makedirs(OUT_DIR, exist_ok=True)
    checker = Checker(wl, pkg, reference)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as workdir:
        state, setup = _set_up(wl, pkg, args.seed, workdir)
        if args.trace:
            metrics, notes = measure_traced(wl, pkg, state, args, checker)
        else:
            metrics, notes = measure(wl, pkg, state, args, checker, workdir, setup)

    info = machine.machine_info(ROOT)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"reference check: {'on' if reference is not None else 'off (no reference for this seed)'}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit}")
    print("machine " + json.dumps(info, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
