"""Span tracing around the package's cross-module calls.

The traced run wraps, from outside the package, the names the pipeline calls
between its modules (``HOOKS``).  Each call records a span: name, start, end,
parent span and op id.  Spans stay in memory and are written out when the
benchmark ends.  A hook whose name no longer resolves is reported as
``missing``, and one that never fires where it should as ``idle-expected``;
the layer metrics of either read None, never zero time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

# (span name, module, attribute path); every module attribute of the package
# bound to the same function object is rebound, so the imported names in
# cli, simulation and inference are wrapped too.
HOOKS = (
    ("cli.main", "metricmanova.cli", "main"),
    ("cli.load_msd", "metricmanova.cli", "load_msd"),
    ("simulation.gen_scenario2", "metricmanova.simulation", "gen_scenario2"),
    ("inference.run_tests", "metricmanova.inference", "run_tests"),
    ("inference.permuted_labels", "metricmanova.inference", "permuted_labels"),
    ("StatEngine.__init__", "metricmanova.engine", "StatEngine.__init__"),
    ("StatEngine.group_profiles", "metricmanova.engine", "StatEngine.group_profiles"),
    ("StatEngine.moments", "metricmanova.engine", "StatEngine.moments"),
    ("inference._r_stack", "metricmanova.inference", "_r_stack"),
    ("inference._fa_stack", "metricmanova.inference", "_fa_stack"),
    ("inference._pillai_stack", "metricmanova.inference", "_pillai_stack"),
    ("inference._perm_p", "metricmanova.inference", "_perm_p"),
    ("inference.stack_airm_sq", "metricmanova.inference", "stack_airm_sq"),
    ("inference.stack_matrix_log", "metricmanova.inference", "stack_matrix_log"),
)

# hooks that must fire on every workload of a kind
_CLI_ONLY = {"cli.main", "cli.load_msd"}
_MC_ONLY = {"simulation.gen_scenario2"}


def expected_hooks(kind: str) -> List[str]:
    skip = _MC_ONLY if kind == "cli" else _CLI_ONLY
    return [name for name, _, _ in HOOKS if name not in skip]


def _note_labelings(arguments: dict) -> dict:
    return {"labelings": int(np.shape(arguments["codes"])[0])}


def _note_perm_p(arguments: dict) -> dict:
    """Valid replicates of one component, as ``_perm_p`` itself counts them."""
    values = arguments["values"]
    ok = int(np.sum(np.asarray(arguments["valid"]) & np.isfinite(values)))
    return {"component": arguments["name"], "valid": ok,
            "attempted": int(np.shape(values)[0])}


_NOTES: Dict[str, Callable] = {
    "StatEngine.moments": _note_labelings,
    "inference._perm_p": _note_perm_p,
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int
    note: Optional[dict] = None
    peak_bytes: Optional[int] = None


@dataclass
class _Open:
    span_id: int
    base: int = 0
    peak: int = 0


@dataclass
class Tracer:
    """Collects spans in memory; with ``memory`` set, also the tracemalloc
    peak above the starting level for every span (nested spans included)."""

    memory: bool = False
    spans: List[Span] = field(default_factory=list)
    status: Dict[str, str] = field(default_factory=dict)
    _stack: List[_Open] = field(default_factory=list)
    _op_id: int = -1
    _next_id: int = 0

    def _push(self) -> _Open:
        frame = _Open(self._next_id)
        self._next_id += 1
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            for f in self._stack:
                f.peak = max(f.peak, peak)
            tracemalloc.reset_peak()
            frame.base = frame.peak = cur
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Open, name: str, start: float, note) -> None:
        end = time.perf_counter()
        peak_bytes = None
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            for f in self._stack:
                f.peak = max(f.peak, peak)
            peak_bytes = frame.peak - frame.base
        self._stack.pop()
        parent = self._stack[-1].span_id if self._stack else None
        self.spans.append(
            Span(frame.span_id, name, start, end, parent, self._op_id, note, peak_bytes)
        )

    def call(self, name: str, fn, args, kwargs, note_fn=None):
        frame = self._push()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._pop(frame, name, start, {"raised": True})
            raise
        self._pop(frame, name, start, note_fn(args, kwargs) if note_fn else None)
        return result

    def op(self, op_id: int, fn, *args):
        """Run one op inside an ``op`` span."""
        self._op_id = op_id
        return self.call("op", fn, args, {})


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _wrap(tracer: Tracer, name: str, fn):
    note_fn = None
    if name in _NOTES:
        sig = inspect.signature(fn)

        def note_fn(args, kwargs):
            return _NOTES[name](sig.bind(*args, **kwargs).arguments)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note_fn)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for ``tracer`` and restore the originals on exit.

    ``tracer.status`` maps each hook to ``installed`` or ``missing``.
    """
    undo = []
    try:
        for name, module, path in HOOKS:
            try:
                owner, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                tracer.status[name] = "missing"
                continue
            wrapper = _wrap(tracer, name, fn)
            if isinstance(owner, type):
                targets = [(owner, path.rsplit(".", 1)[-1])]
            else:
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "metricmanova"
                    for key, value in list(vars(mod).items())
                    if value is fn
                ]
            for owner_obj, attr in targets:
                setattr(owner_obj, attr, wrapper)
                undo.append((owner_obj, attr, fn))
            tracer.status[name] = "installed"
        yield tracer
    finally:
        for owner_obj, attr, fn in reversed(undo):
            setattr(owner_obj, attr, fn)


# -- per-layer metrics ---------------------------------------------------------

# metric -> (hook, "total" | "self"); per-op time in ms, median over ops
_TIME_LAYERS = {
    "rng.labels_ms": ("inference.permuted_labels", "total"),
    "engine.profiles_ms": ("StatEngine.group_profiles", "total"),
    "engine.moments_self_ms": ("StatEngine.moments", "self"),
    "engine.init_ms": ("StatEngine.__init__", "total"),
    "inference.run_tests_self_ms": ("inference.run_tests", "self"),
    "inference.r_stack_self_ms": ("inference._r_stack", "self"),
    "spd.airm_ms": ("inference.stack_airm_sq", "total"),
    "spd.matrix_log_ms": ("inference.stack_matrix_log", "total"),
    "inference.fa_stack_ms": ("inference._fa_stack", "total"),
    "inference.pillai_stack_ms": ("inference._pillai_stack", "total"),
    "inference.perm_p_ms": ("inference._perm_p", "total"),
    "dataset.load_ms": ("cli.load_msd", "total"),
    "simulation.generate_ms": ("simulation.gen_scenario2", "total"),
}
_PEAK_LAYERS = {
    "engine.profiles_peak_mb": "StatEngine.group_profiles",
    "engine.moments_peak_mb": "StatEngine.moments",
}
# entry points whose self time is not attributed to any layer
_UNATTRIBUTED = {"op", "cli.main"}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.span_id: (s.end - s.start) - child.get(s.span_id, 0.0) for s in spans}


def layer_metrics(spans: List[Span], mem_spans: List[Span], hooks: Dict[str, str]) -> tuple:
    """({metric: (value, unit)}, {component: valid permutation ratio}).

    ``hooks`` is ``hook_report``'s verdict per hook.  A metric whose hook is
    missing, or never fired where it should have, has value None; only a
    hook that is not expected on the workload reads 0."""
    own = self_times(spans)
    ops = sorted({s.op_id for s in spans if s.name == "op"})
    per_op: Dict[tuple, Dict[int, float]] = {}
    calls: Dict[str, Dict[int, int]] = {}
    labelings: Dict[int, int] = {}
    for s in spans:
        for mode, value in (("total", s.end - s.start), ("self", own[s.span_id])):
            slot = per_op.setdefault((s.name, mode), {})
            slot[s.op_id] = slot.get(s.op_id, 0.0) + value
        calls.setdefault(s.name, {}).setdefault(s.op_id, 0)
        calls[s.name][s.op_id] += 1
        if s.name == "StatEngine.moments" and s.note:
            labelings[s.op_id] = labelings.get(s.op_id, 0) + s.note["labelings"]

    def med(values: Dict[int, float]) -> float:
        return statistics.median([values.get(op, 0.0) for op in ops]) if ops else 0.0

    def reported(hook: str, value):
        return None if hooks.get(hook, "missing") in ("missing", "idle-expected") else value

    out = {}
    for metric, (hook, mode) in _TIME_LAYERS.items():
        out[metric] = (reported(hook, 1e3 * med(per_op.get((hook, mode), {}))), "ms")
    labels_hook = "inference.permuted_labels"
    out["rng.labels_calls"] = (reported(labels_hook, med(calls.get(labels_hook, {}))),
                               "count")
    out["engine.labelings"] = (reported("StatEngine.moments", med(labelings)), "count")
    for metric, hook in _PEAK_LAYERS.items():
        peaks = [s.peak_bytes for s in mem_spans if s.name == hook]
        out[metric] = (reported(hook, max(peaks, default=0) / 2**20), "MB")

    valid: Dict[str, List[int]] = {}
    for s in spans:
        if s.name == "inference._perm_p" and s.note and "component" in s.note:
            tally = valid.setdefault(s.note["component"], [0, 0])
            tally[0] += s.note["valid"]
            tally[1] += s.note["attempted"]
    ratios = {name: ok / tried for name, (ok, tried) in valid.items() if tried}
    # the worst component; 1.0 when no replicate was attempted
    out["inference.valid_perm_ratio"] = (
        reported("inference._perm_p", min(ratios.values(), default=1.0)), "ratio")

    op_time = sum(s.end - s.start for s in spans if s.name == "op")
    covered = sum(own[s.span_id] for s in spans if s.name not in _UNATTRIBUTED)
    out["trace.coverage"] = (covered / op_time if op_time else 0.0, "ratio")
    return out, ratios


def hook_report(spans: List[Span], status: Dict[str, str], kind: str) -> Dict[str, str]:
    """Hook -> ok | idle (installed, never fired) | missing; expected hooks
    that are idle read ``idle-expected``."""
    fired = {s.name for s in spans}
    expected = set(expected_hooks(kind))
    report = {}
    for name, _, _ in HOOKS:
        state = status.get(name, "missing")
        if state == "installed":
            state = "ok" if name in fired else (
                "idle-expected" if name in expected else "idle")
        report[name] = state
    return report


def dump(spans: List[Span], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
