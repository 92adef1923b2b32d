"""Each output check of the benchmark passes on real outputs and bites on
doctored ones.  Run with ``python3 -m pytest perfbench/test_checks.py``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kldescent import (NpgConfig, PgenlsConfig, build_report, make_problem,  # noqa: E402
                       npg_solve, pgenls_solve, write_trace_csv)

import checks  # noqa: E402

SEED, ROWS, COLS = 3, 60, 120


def _solved(problem_id: str):
    inst = make_problem(problem_id, {"seed": SEED, "rows": ROWS, "cols": COLS})
    if problem_id == "l1-l2-dc":
        trace = npg_solve(inst.problem, inst.x0, NpgConfig(m=5))
    else:
        trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=5))
    return inst, trace


@pytest.mark.parametrize("problem_id", ["lasso", "l1-l2-dc"])
def test_stationarity_check_bites_on_a_perturbed_iterate(problem_id):
    inst, trace = _solved(problem_id)
    dc = problem_id == "l1-l2-dc"
    x, F = trace.records[-1].x, trace.records[-1].f_value
    ls = checks.least_squares_at(SEED, ROWS, COLS, x, block=16)
    assert checks.check_data_match(ls, trace.records[0].f_value, inst.params["lam"]) is None
    assert checks.check_stationary(ls, x, F, dc) is None

    bumped = x.copy()
    bumped[int(np.argmax(np.abs(x)))] += 1e-4
    at_bumped = checks.least_squares_at(SEED, ROWS, COLS, bumped, block=16)
    assert "stationarity violation" in checks.check_stationary(at_bumped, bumped, F, dc)
    assert "recomputes" in checks.check_stationary(ls, x, F * (1 + 1e-8), dc)


def test_blockwise_regeneration_matches_the_whole_matrix():
    A, b = checks.regression_data(SEED, ROWS, COLS)
    x = np.linspace(-1.0, 1.0, COLS)
    ls = checks.least_squares_at(SEED, ROWS, COLS, x, block=16)
    r = A @ x - b
    assert ls.half_bb == pytest.approx(0.5 * b @ b, rel=1e-13)
    assert ls.lam == pytest.approx(0.1 * np.max(np.abs(A.T @ b)), rel=1e-13)
    assert ls.half_rr == pytest.approx(0.5 * r @ r, rel=1e-13)
    assert np.allclose(ls.grad, A.T @ r, rtol=1e-12, atol=1e-12)


def test_data_check_bites_on_other_data():
    inst, trace = _solved("lasso")
    ls = checks.least_squares_at(SEED + 1, ROWS, COLS, trace.records[-1].x)
    why = checks.check_data_match(ls, trace.records[0].f_value, inst.params["lam"])
    assert why and "f(0)" in why


def test_sidecar_reader_matches_the_iterates(tmp_path):
    _, trace = _solved("lasso")
    write_trace_csv(trace, tmp_path / "trace.csv")
    X = checks.read_sidecar(tmp_path / "trace.bin")
    assert np.array_equal(X, trace.iterates())


@pytest.fixture(scope="module")
def quartic_csv(tmp_path_factory):
    inst = make_problem("power4-1d", {})
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=5, max_outer=400))
    path = tmp_path_factory.mktemp("quartic") / "trace.csv"
    write_trace_csv(trace, path)
    return path, trace


def _doctored(path: Path, tmp_path: Path, row: int, column: str, value: float) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(value)
    lines[row + 1] = ",".join(cells)
    out = tmp_path / "doctored.csv"
    out.write_text("\n".join(lines) + "\n")
    return checks.read_trace_columns(out)


def test_quartic_trace_check_passes_on_the_solver_output(quartic_csv):
    path, _ = quartic_csv
    cols = checks.read_trace_columns(path)
    assert checks.check_quartic_trace(cols, 5, PgenlsConfig().delta) is None


def test_quartic_trace_check_bites_on_a_doctored_F_column(quartic_csv, tmp_path):
    path, trace = quartic_csv
    F = trace.records[200].f_value
    cols = _doctored(path, tmp_path, 200, "F", F * (1 + 1e-9))
    assert "x^4/4" in checks.check_quartic_trace(cols, 5, PgenlsConfig().delta)


def test_quartic_trace_check_bites_on_a_rising_window_peak(quartic_csv, tmp_path):
    path, trace = quartic_csv
    r = trace.records[300]
    # keep merit = F + delta/2 step^2 consistent, so only the peak test can object
    F_new = r.f_value + 1.0
    lines = path.read_text().splitlines()
    cells = lines[301].split(",")
    cells[1], cells[2] = repr(F_new), repr(r.merit + 1.0)
    cells[9] = repr(float(np.sign(r.x[0]) * (4 * F_new) ** 0.25))
    lines[301] = ",".join(cells)
    out = tmp_path / "rising.csv"
    out.write_text("\n".join(lines) + "\n")
    why = checks.check_quartic_trace(checks.read_trace_columns(out), 5, PgenlsConfig().delta)
    assert why and "window-peak merit rises" in why


def test_report_comparison_bites_on_an_altered_report(quartic_csv):
    _, trace = quartic_csv
    text = build_report(trace).to_json()
    assert checks.check_same_report(text, text) is None
    fields = json.loads(text)
    fields["constants.b_cap_enforced"] = not fields["constants.b_cap_enforced"]
    altered = json.dumps(fields, sort_keys=True, indent=2) + "\n"
    assert "constants.b_cap_enforced" in checks.check_same_report(text, altered)
    assert checks.check_same_report(text, text[:-2]) is not None


def test_rate_check_bites_on_a_wrong_verdict_or_exponent():
    report = {"rate.verdict": "sublinear", "rate.theta": 0.76}
    assert checks.check_rate(report, ("sublinear",), 0.75) is None
    assert checks.check_rate(report, ("sublinear",), 0.70) is not None
    assert checks.check_rate(dict(report, **{"rate.verdict": "linear"}),
                             ("sublinear", "inconclusive")) is not None
    inconclusive = {"rate.verdict": "inconclusive", "rate.theta": None}
    assert checks.check_rate(inconclusive, ("sublinear", "inconclusive"), 0.75) is None


def test_failed_audits_lists_false_gates_only():
    report = {"h1.pass": True, "h3.pass": False, "series.pass": None, "h3.b": 1}
    assert checks.failed_audits(report) == ["h3"]


def test_known_faults_count_as_failed_without_making_the_run_incorrect():
    import workloads

    tally = workloads.Tally([workloads.RATE_FAULT])
    tally.record("a", [])
    tally.record("b", [(workloads.RATE_FAULT, "linear")])
    assert (tally.attempted, tally.failed, tally.errors) == (2, 1, [])
    tally.record("c", [("stationary", "violation")])
    assert tally.failed == 2 and tally.errors == ["c: stationary: violation"]


def _verify_tally(tmp_path: Path, report: str, verify_output: str):
    import workloads

    (tmp_path / "verify.json").write_text(verify_output)
    problems: list = []
    workloads._check_verify(problems, {"verify": (0, ""), "dir": tmp_path,
                                       "report_text": report})
    tally = workloads.Tally(workloads.LassoLarge.known_faults)
    tally.record("verify", problems)
    return tally


def _report_text(**changes) -> str:
    fields = {"constants.b_cap_enforced": False, "constants.l_f": 3.0, "h3.pass": True}
    return json.dumps(dict(fields, **changes), sort_keys=True, indent=2) + "\n"


def test_a_verify_output_that_differs_from_the_report_makes_the_run_incorrect(tmp_path):
    report = _report_text()
    tally = _verify_tally(tmp_path, report, report)
    assert (tally.failed, tally.errors) == (0, [])

    for doctored in (_report_text(**{"constants.l_f": 3.5}),
                     _report_text(**{"constants.b_cap_enforced": True}),
                     report[:-2]):
        tally = _verify_tally(tmp_path, report, doctored)
        assert tally.failed == 1 and len(tally.errors) == 1
        assert "same-report" in tally.errors[0]


@pytest.mark.parametrize("m, verdict, known", [(5, "linear", True), (0, "linear", False),
                                               (0, "inconclusive", False),
                                               (5, "superlinear", False)])
def test_only_a_linear_verdict_at_m5_counts_as_the_known_rate_fault(tmp_path, m, verdict, known):
    import workloads

    path = tmp_path / "report.json"
    path.write_text(json.dumps({"rate.verdict": verdict}))
    problems: list = []
    workloads._check_power4_rate(problems, path, m)
    assert [check for check, _ in problems] == [workloads.RATE_FAULT if known else "rate"]
