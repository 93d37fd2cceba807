"""The benchmark's tracer and its traced gates, checked in tier-1.

perfbench/tracer.py lists the wrapped dtvertex functions in TRACED as
(module, attribute) pairs, and perfbench/run.py pins counts of their
spans per workload; a rename or a route change in the package would
break `perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load("tracer")
    missing = []
    for mod_name, attr, _, _ in tracer.TRACED:
        owner = importlib.import_module("dtvertex." + mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(mod_name + "." + attr)
    assert len(tracer.TRACED) > 0
    assert missing == []


def test_traced_gates_hold(monkeypatch, tmp_path):
    # one traced worker per workload, the warm cache filled first, checked
    # as run.py checks it: report, rows and cache (Runner.check), then the
    # per-layer metrics (layer_metrics) against the traced gates (check_trace)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports pace
    run = _load("run")
    layers = {m["name"] for m in run.load_spec()["per_layer"]} - {"trace.overhead_s"}
    runner = run.Runner(1, tmp_path)
    for name, wl in run.WORKLOADS.items():
        warm = runner.fill_warm_cache(wl) if wl.cache == "warm" else None
        inv = runner.invoke(wl, 0, True, warm)
        assert (name, inv["failure"]) == (name, None)
        assert set(inv["layers"]) == layers
