"""Shared fixtures: the canned benchmark suite, solved once per session."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import pytest

from kldescent import catalog, oracles
from kldescent.catalog import ProblemInstance, make_problem
from kldescent.diagnostics import DiagnosticsReport, build_report
from kldescent.npg import NpgConfig, npg_solve
from kldescent.pgenls import PgenlsConfig, pgenls_solve
from kldescent.trace import Trace

# problem -> algorithm assignment for the canned suite; the concave-term
# problem must run on the majorized solver, the others are split to cover
# both solvers' inner loops
SUITE_PLAN = (
    ("lasso", "pgenls"),
    ("quad-l1", "npg_major"),
    ("l0-ls", "npg_major"),
    ("l1-l2-dc", "npg_major"),
    ("power4-1d", "pgenls"),
)
SUITE_SEEDS = range(5)
SUITE_WINDOWS = (0, 5)


@dataclass
class SuiteRun:
    problem_id: str
    algorithm: str
    seed: int
    m: int
    instance: ProblemInstance
    trace: Trace
    report: DiagnosticsReport


@dataclass
class Suite:
    runs: list[SuiteRun]
    solve_seconds: float
    audit_seconds: float

    def npg(self) -> list[SuiteRun]:
        return [r for r in self.runs if r.algorithm == "npg_major"]

    def pgenls(self) -> list[SuiteRun]:
        return [r for r in self.runs if r.algorithm == "pgenls"]


def run_one(problem_id: str, algorithm: str, seed: int, m: int) -> SuiteRun:
    params = {"seed": seed}
    inst = make_problem(problem_id, params)
    if algorithm == "npg_major":
        cfg = NpgConfig(m=m, max_outer=3000)
        trace = npg_solve(inst.problem, inst.x0, cfg,
                          problem_id=problem_id, seed=seed)
    else:
        cfg = PgenlsConfig(m=m, max_outer=1500)
        trace = pgenls_solve(inst.problem, inst.x0, cfg,
                             problem_id=problem_id, seed=seed)
    return SuiteRun(problem_id, algorithm, seed, m, inst, trace, None)


@pytest.fixture(scope="session")
def suite() -> Suite:
    t0 = time.perf_counter()
    runs = [
        run_one(pid, alg, seed, m)
        for pid, alg in SUITE_PLAN
        for seed in SUITE_SEEDS
        for m in SUITE_WINDOWS
    ]
    t1 = time.perf_counter()
    for r in runs:
        r.report = build_report(r.trace, problem=r.instance.problem)
    t2 = time.perf_counter()
    return Suite(runs, t1 - t0, t2 - t1)


@pytest.fixture
def empty_memo(monkeypatch):
    """The catalog's memo of generated data starts empty, so that the first
    build of any generated data draws them, and it is put back on exit."""
    monkeypatch.setattr(catalog, "_memo", None)


@pytest.fixture
def counted(monkeypatch):
    """``counted(f) -> (f, calls)``: the smooth oracle ``f`` with its calls
    counted in ``calls["value"]`` and ``calls["gradient"]``, and every
    least-squares residual ``A x - b`` in ``calls["residual"]``.  A
    least-squares call makes one product with ``A`` per residual and one
    with ``A^T`` per gradient.  ``dataclasses.replace`` keeps the oracle's
    other fields."""
    calls = {"value": 0, "gradient": 0, "residual": 0}
    residual = oracles._residual

    def counting_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    monkeypatch.setattr(oracles, "_residual", counting_residual)

    def counting(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    def wrap(f):
        return replace(f, value=counting("value", f.value),
                       gradient=counting("gradient", f.gradient)), calls

    return wrap
