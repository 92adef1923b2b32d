"""Smoke test of the benchmark's tracer against the package it wraps.

``perfbench/tracing.py`` patches package functions by name; entering
``tracing.installed`` fails on any name that no longer exists, and a
renamed call path leaves its span empty.  Running ``kldescent run`` under
it keeps ``perfbench/run.py --trace 1`` working.
"""

import json
from pathlib import Path

import pytest

from kldescent.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_spans_a_run_of_each_solver(tmp_path, tracing):
    tracer = tracing.Tracer()
    tracer.round = 0
    with tracing.installed(tracer):
        for problem, algorithm in (("power4-1d", "pgenls"), ("lasso", "npg_major")):
            path = tmp_path / f"{problem}.json"
            path.write_text(json.dumps({
                "problem": problem, "params": {"seed": 0}, "algorithm": algorithm,
                "solver": {"m": 5, "max_outer": 200},
                "output_dir": str(tmp_path / problem)}))
            assert main(["run", str(path)]) == 0
    names = {s.name for s in tracer.spans}
    for name in ("catalog.make_problem", "npg.npg_solve", "pgenls.pgenls_solve",
                 "trace.write_trace_csv", "diagnostics.build_report",
                 "diagnostics.recompute_ell", "diagnostics.check_h4",
                 "diagnostics.check_prop_bound", "diagnostics.fit_rate",
                 "cli.execute"):
        assert name in names, name
    # the audit takes the Lipschitz constant from the hint or not at all
    assert "diagnostics.estimate_lipschitz" not in names

    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["npg.iterations"] > 0 and metrics["pgenls.iterations"] > 0
    assert metrics["oracles.gradient_calls_per_iter"] > 0
    assert metrics["trace.column_calls"] > 0
    assert metrics["diagnostics.audit_s"] > 0.0
    assert metrics["diagnostics.estimate_lipschitz_s"] == 0.0
