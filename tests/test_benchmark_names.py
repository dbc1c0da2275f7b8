"""A traced benchmark run must report exactly the per-layer names that
BENCHMARK.json declares.

perfbench reads those names from the program: check names through the
``verify._check_*`` callables, routes through ``grids.ROUTES``, and
operators through the arith classes' dunders.  So renaming, merging or
deleting a check, a route or an operator changes the set that
``perfbench/run.py --trace 1`` reports.  This test builds the set from
perfbench's own code, as that run does, but times nothing and writes
nothing.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_reports_the_declared_per_layer_names(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    grids = importlib.import_module("grids")
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(grids, "per_call_s", lambda fn, *args, **kwargs: 0.0)

    names = set(grids.arith_grid(0)) | set(grids.route_grid())
    check_times, outcomes = grids.verify_check_grid(0)
    assert all(outcome.ok for outcome in outcomes)
    names |= set(check_times)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    names |= set(tracer.metrics())
    names.add("trace_overhead_ratio")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    assert names == declared, (f"missing {sorted(declared - names)}, "
                               f"extra {sorted(names - declared)}")
