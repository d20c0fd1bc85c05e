"""Checks of the benchmark's trace hooks.

    python3 -m pytest perfbench/test_hooks.py

Every hook must resolve and fire on each workload that should reach it.  A
hook whose name is gone must read ``missing``, and one that is expected but
never fires ``idle-expected``; the layer metric of either is None, never 0 ms.
"""

import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402

PKG = run._import_package()


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_expected_hooks_fire(name):
    wl = W.WORKLOADS[name]
    tracer = S.Tracer()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        state = wl.setup(PKG, W.input_rng(name, 0), workdir)
        with S.installed(tracer):
            out = wl.collect(state, tracer.op(0, wl.op, PKG, state, W.op_seed(name, 0, 0)))
    assert wl.check(PKG, wl.records(out)) == []
    report = S.hook_report(tracer.spans, tracer.status, wl.kind)
    assert {h: report[h] for h in S.expected_hooks(wl.kind)} == {
        h: "ok" for h in S.expected_hooks(wl.kind)}
    metrics, _ = S.layer_metrics(tracer.spans, [], report)
    assert metrics["engine.profiles_ms"][0] > 0
    assert (metrics["simulation.generate_ms"][0] > 0) == (wl.kind == "mc")


def _bound_names():
    return (PKG.cli.main, PKG.cli.run_tests, PKG.simulation.run_tests,
            PKG.simulation.gen_scenario2,
            sys.modules["metricmanova.engine"].StatEngine.moments)


def test_hooks_are_removed_on_exit():
    before = _bound_names()
    with S.installed(S.Tracer()):
        assert PKG.cli.run_tests is not before[1]
        assert PKG.cli.run_tests is PKG.simulation.run_tests
    assert _bound_names() == before


def test_removed_or_idle_hook_never_reads_zero(monkeypatch):
    monkeypatch.delattr(sys.modules["metricmanova.inference"], "_fa_stack")
    monkeypatch.setattr(S, "HOOKS", S.HOOKS + (
        ("renamed.layer", "metricmanova.inference", "no_such_function"),))
    tracer = S.Tracer()
    with S.installed(tracer):
        pass  # installed, but no op runs: every expected hook stays idle
    report = S.hook_report(tracer.spans, tracer.status, "cli")
    assert report["inference._fa_stack"] == "missing"
    assert report["renamed.layer"] == "missing"
    assert report["StatEngine.group_profiles"] == "idle-expected"
    assert report["simulation.gen_scenario2"] == "idle"
    metrics, _ = S.layer_metrics(tracer.spans, [], report)
    assert metrics["inference.fa_stack_ms"][0] is None
    assert metrics["engine.profiles_ms"][0] is None
    assert metrics["engine.profiles_peak_mb"][0] is None
    # a layer the workload never reaches reads 0: it takes no time there
    assert metrics["simulation.generate_ms"][0] == 0.0
