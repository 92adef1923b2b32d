"""Audit engine: series, descent conditions, path-length bound, rate fits."""

import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from kldescent import diagnostics, npg, pgenls
from kldescent import trace as trace_module
from kldescent.catalog import make_problem
from kldescent.cli import main
from kldescent.diagnostics import (
    AuditRecord,
    BbarEstimate,
    DiagnosticsReport,
    build_report,
    c_constant,
    check_acceptance,
    check_h1,
    check_h3,
    check_h4,
    check_prop_bound,
    derive_audit_inputs,
    estimate_bbar,
    estimate_lipschitz,
    fit_decay,
    fit_rate,
    recompute_ell,
    series_tails,
    theta_dc,
    verify_theta,
    xi_gamma,
    _phi,
    _phi_slack,
)
from kldescent.domains import check
from kldescent.errors import (
    FrameworkViolationError,
    InsufficientTraceError,
    InvalidInputError,
)
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import (
    CompositeProblem,
    l1_oracle,
    l2_norm_oracle,
    make_least_squares,
    zero_oracle,
)
from kldescent.pgenls import PgenlsConfig, pgenls_solve
from kldescent.trace import CSV_COLUMNS, Trace, read_trace_csv, write_trace_csv

# 10**400 as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"


def quad_1d():
    f = make_least_squares(np.array([[1.0]]), np.array([0.0]))
    return CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)


def halving_trace():
    cfg = NpgConfig(m=0, gamma_min=2.0, gamma_max=2.0, delta=0.5, alpha=1.0,
                    gamma_init_rule="constant", tol_step=1e-12,
                    tol_resid=1e-12, max_outer=200)
    return npg_solve(quad_1d(), np.array([4.0]), cfg), cfg


def npg_a(cfg: NpgConfig) -> float:
    """The decrease constant the audit derives for an ``npg_major`` config."""
    return npg.decrease_constant(cfg.alpha, cfg.delta, cfg.gamma_min, cfg.c)


def synth(phi, steps, *, gammas=None, m=0, ell=None, algorithm="npg_major",
          terminated="tolerance", config=None):
    """Hand-built trace whose merit and F columns both equal ``phi``."""
    phi = [float(v) for v in phi]
    steps = [float(v) for v in steps]
    if ell is None:
        ell = []
        for k in range(len(phi)):
            lo = max(0, k - m)
            best_v, best_i = phi[lo], lo
            for i in range(lo, k + 1):
                if phi[i] >= best_v:
                    best_v, best_i = phi[i], i
            ell.append(best_i)
    nan = float("nan")
    rows = [(k, phi[k], phi[k], nan if k == 0 else (gammas[k] if gammas else 2.0),
             nan if k == 0 else 0.0, -1 if k == 0 else 0, ell[k], steps[k],
             nan if k == 0 else 0.0) for k in range(len(phi))]
    return Trace(algorithm=algorithm, columns=dict(zip(CSV_COLUMNS, zip(*rows))),
                 X=np.zeros((len(phi), 1)), terminated=terminated,
                 config=dict(config or {}))


def with_column(trace: Trace, **columns) -> Trace:
    """``trace`` with the named columns replaced by the given values."""
    return replace(trace, columns=dict(trace.columns, **columns))


def with_cells(trace: Trace, name: str, rows, change) -> Trace:
    """``trace`` with ``change`` applied to rows ``rows`` of column ``name``."""
    col = trace.column(name).copy()
    col[rows] = change(col[rows])
    return with_column(trace, **{name: col})


# ---------------------------------------------------------------------------
# series


def test_xi_gamma_halving_closed_form():
    trace, _ = halving_trace()
    K = len(trace) - 1
    xi, gamma = xi_gamma(trace)
    # steps are 4 * 2^-k, window peaks are the iterates themselves
    expect_xi = np.concatenate([[0.0], 4.0 * 0.5 ** np.arange(1, K + 1)])
    np.testing.assert_array_equal(xi, expect_xi)
    # peak-merit gaps are 6 * 4^-k, all powers of two times 6
    expect_gamma = math.sqrt(6.0) * 0.5 ** np.arange(K)
    np.testing.assert_array_equal(gamma, expect_gamma)


def test_xi_gamma_rejects_increasing_peaks():
    trace = synth([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(FrameworkViolationError, match="k=0"):
        xi_gamma(trace)


def test_xi_gamma_clips_rounding_noise():
    trace = synth([1.0, 1.0 + 1e-13], [0.0, 1.0], ell=[0, 1])
    _, gamma = xi_gamma(trace)
    assert gamma[0] == 0.0


def test_series_tails():
    total, frac = series_tails(np.ones(100))
    assert total == 100.0 and frac == pytest.approx(0.1)
    total, frac = series_tails(np.array([]))
    assert (total, frac) == (0.0, 0.0)
    # 5 values, decile rounds up to one element
    total, frac = series_tails(np.array([4.0, 3.0, 2.0, 1.0, 0.5]))
    assert frac == pytest.approx(0.5 / 10.5)
    # geometric series concentrate their mass early
    _, frac = series_tails(0.5 ** np.arange(60))
    assert frac < 1e-15


@pytest.mark.parametrize("iterations, terminated, verdict", [
    (31, "tolerance", False),   # the peak-gap tail holds 4 points: gated
    (30, "tolerance", None),    # 3 points
    (3, "tolerance", None),
    (31, "stationary", None),
    (31, "max_outer", None),
])
def test_series_gates_the_tail_of_long_tolerance_runs_only(iterations, terminated, verdict):
    # unit steps and unit merit gaps: each tail carries a tenth of its sum
    trace = synth(np.arange(iterations, -1, -1.0), [0.0] + [1.0] * iterations,
                  terminated=terminated, config={"m": 0, "a": 0.5, "alpha": 1.0,
                                                 "delta": 0.5, "c": 1.0})
    f = build_report(trace).fields
    assert f["series.xi_tail_fraction"] > 0.01 and f["series.gamma_tail_fraction"] > 0.01
    assert f["series.pass"] is verdict
    assert "series.error" not in f


# ---------------------------------------------------------------------------
# descent conditions


def test_check_h1_halving_exact():
    trace, cfg = halving_trace()
    assert derive_audit_inputs(trace)["a"] == npg_a(cfg)
    rec = check_h1(trace)
    assert rec.passed is True
    K = len(trace) - 1
    # v_k = -4 * 4^-k exactly: worst at the last transition
    assert rec.max_violation == -4.0 * 4.0 ** (-(K - 1))


def test_check_h1_boundary_and_violation():
    # merit drop exactly equals a * step^2: boundary passes
    snapshot = {"m": 0, "a": 1.0}
    rec = check_h1(synth([1.0, 0.75], [0.0, 0.5], config=snapshot))
    assert rec.passed is True
    assert rec.max_violation == 0.0
    # merit increase fails and is located
    rec = check_h1(synth([1.0, 1.5], [0.0, 0.5], config=snapshot))
    assert rec.passed is False
    assert rec.max_violation == pytest.approx(0.75)
    assert rec.details["worst_k"] == 0
    with pytest.raises(InvalidInputError):
        check_h1(synth([1.0], [0.0], config={"m": 0, "a": -1.0}))


def test_check_acceptance_uses_per_iteration_weights():
    trace, cfg = halving_trace()
    rec = check_acceptance(trace)
    assert rec.passed is True
    # a snapshot without c cannot give the DC form: not evaluated
    no_c = replace(trace, config=dict(trace.config, c=None, a=npg_a(cfg)))
    assert check_acceptance(no_c) == AuditRecord("acceptance", None)

    bad = synth([1.0, 0.9], [0.0, 1.0], gammas=[float("nan"), 2.0],
                config={"m": 0, "a": 1.0, "alpha": 1.0, "delta": 0.5, "c": 1.0})
    rec = check_acceptance(bad)
    assert rec.passed is False
    assert rec.max_violation == pytest.approx(0.4)


def test_check_acceptance_two_block_form():
    # merit decrement uses this step and the previous one
    snapshot = {"m": 0, "a": 0.25, "alpha": 0.5, "delta": 1.0}
    trace = synth([1.0, 0.8, 0.6], [0.0, 0.5, 0.5], algorithm="pgenls", config=snapshot)
    rec = check_acceptance(trace)
    assert rec.passed is True
    # decrements were 0.125 and 0.1875; shrinking the drops below the second
    # decrement flips the verdict
    tight = synth([1.0, 0.8, 0.75], [0.0, 0.5, 0.5], algorithm="pgenls", config=snapshot)
    rec = check_acceptance(tight)
    assert rec.passed is False
    assert rec.max_violation == pytest.approx(0.75 + 0.1875 - 0.8)


def test_recompute_ell_tie_break():
    trace = synth([1.0, 2.0, 2.0, 0.0], [0.0, 1.0, 1.0, 1.0], m=3,
                  config={"m": 3, "a": 1.0})
    assert list(trace.column("ell")) == [0, 1, 2, 2]
    rec = recompute_ell(trace)
    assert rec.passed is True and rec.details["mismatches"] == 0
    trace = with_cells(trace, "ell", 2, lambda _: 1)  # smaller-index argmax is wrong under ties
    rec = recompute_ell(trace)
    assert rec.passed is False and rec.details["mismatches"] == 1
    with pytest.raises(InvalidInputError):
        recompute_ell(replace(trace, config={"m": -1, "a": 1.0}))


def test_theta_dc_worked_example():
    n2 = make_least_squares(np.eye(2), np.zeros(2))
    p = CompositeProblem(f=n2, g=l1_oracle(0.5), h=l2_norm_oracle(1.0),
                        dimension=2)
    x = np.array([3.0, 4.0])
    xi = np.array([-0.6, -0.8])          # minus the subgradient of ||.|| at x
    x_next = np.array([3.1, 4.0])
    # f(x') + g(x') - h(x) + <xi, x'-x> = 12.805 + 3.55 - 5 - 0.06
    assert theta_dc(p, x, x_next, xi) == pytest.approx(11.295, abs=1e-12)
    # with no concave term the merit is the plain objective
    p2 = CompositeProblem(f=n2, g=l1_oracle(0.5), h=None, dimension=2)
    assert theta_dc(p2, x, x_next, np.zeros(2)) == pytest.approx(
        12.805 + 3.55, abs=1e-12)


def test_verify_theta_on_real_run():
    inst = make_problem("l1-l2-dc", {"seed": 3})
    trace = npg_solve(inst.problem, inst.x0, NpgConfig(m=5, max_outer=200))
    rec = verify_theta(trace, inst.problem)
    assert rec.passed is True

    pg = pgenls_solve(quad_1d(), np.array([1.0]), PgenlsConfig(max_outer=5))
    with pytest.raises(InvalidInputError, match="DC traces"):
        verify_theta(pg, quad_1d())


@pytest.mark.parametrize("params", [{"seed": 3}, {"seed": 3, "rows": 8, "cols": 10}],
                         ids=["sidecar", "inline"])
def test_verify_theta_on_read_back_trace(tmp_path, params):
    inst = make_problem("l1-l2-dc", params)
    trace = npg_solve(inst.problem, inst.x0, NpgConfig(m=5, max_outer=200))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rec = verify_theta(read_trace_csv(path, algorithm="npg_major"), inst.problem)
    assert rec.passed is True
    assert rec.max_violation == verify_theta(trace, inst.problem).max_violation

    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)  # merit of row 2
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    doctored = read_trace_csv(path, algorithm="npg_major")
    assert verify_theta(doctored, inst.problem).passed is False


def test_verify_theta_needs_iterates(tmp_path):
    inst = make_problem("l1-l2-dc", {"seed": 3})
    trace = npg_solve(inst.problem, inst.x0, NpgConfig(max_outer=20))
    write_trace_csv(trace, tmp_path / "trace.csv").unlink()  # the sidecar
    back = read_trace_csv(tmp_path / "trace.csv", algorithm="npg_major")
    with pytest.raises(InsufficientTraceError, match="row 0 has no stored iterate"):
        verify_theta(back, inst.problem)


def test_check_h3_halving():
    trace, _ = halving_trace()
    rec = check_h3(trace, lipschitz=1.0)
    assert rec.passed is True
    assert rec.details["gamma_star"] == 2.0 and rec.details["degenerate"] is False
    # residual / step ratio is sqrt(2) on every transition
    assert rec.details["b_hat"] == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert rec.details["b_cap"] == 4.0
    assert rec.details["b_cap_enforced"] is True
    # no accepted stepsize weight, so no gamma_star: no cap, and the
    # sandwich alone gates
    rec = check_h3(with_column(trace, gamma=np.full(len(trace), np.nan)), lipschitz=1.0)
    assert rec.passed is True
    assert rec.details["gamma_star"] is None
    assert rec.details["b_cap"] is None and rec.details["b_cap_enforced"] is False
    # no curvature bound: the upper half cannot be evaluated
    rec = check_h3(trace, lipschitz=None)
    assert rec.passed is None
    assert rec.details["right_max_violation"] is None


def test_check_h3_two_block():
    cfg = PgenlsConfig(m=0, delta=1.0, alpha=0.5, gamma_min=2.0, gamma_max=2.0,
                      beta_max=0.5, gamma_init_rule="constant", max_outer=2)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    rec = check_h3(trace, lipschitz=1.0)
    assert rec.passed is True
    # worked ratios: 2 / 2 and sqrt(3.25) / 2.5
    assert rec.details["b_hat"] == 1.0
    assert rec.details["b_cap"] == pytest.approx(math.sqrt(2.0) * 5.0)
    assert rec.details["sigma_max"] == 0.0


def test_check_h3_cap_not_enforced():
    # proximity-free with extrapolation on, the degenerate case; tiny
    # accepted weights make a bogus cap of sqrt(2) * 2e-6 for ratios of 1
    trace = synth([1.0, 0.5, 0.25], [0.0, 1.0, 1.0], gammas=[math.nan, 1e-6, 1e-6],
                  algorithm="pgenls",
                  config={"m": 0, "a": 1.0, "delta": 0.0, "beta_max": 0.5})
    trace = with_column(trace, residual=[math.nan, 1.0, 1.0])
    rec = check_h3(trace, lipschitz=1e-6)
    # the ratio exceeds the bogus cap but does not gate
    assert rec.details["degenerate"] is True
    assert rec.details["b_hat"] > rec.details["b_cap"]
    assert rec.details["b_cap_enforced"] is False
    assert rec.passed is True
    # the same trace under a snapshot without extrapolation: the cap gates
    rec2 = check_h3(replace(trace, config=dict(trace.config, beta_max=0.0)), lipschitz=1e-6)
    assert rec2.details["b_cap_enforced"] is True
    assert rec2.passed is False


def test_estimate_bbar_cases():
    assert estimate_bbar(synth([2.0, 1.0, 0.5], [0.0, 1.0, 1.0])) == \
        BbarEstimate(0.0, False)
    est = estimate_bbar(synth([1.0, 1.5], [0.0, 1.0], ell=[0, 1]))
    assert est.value == pytest.approx(1.0) and not est.degenerate
    assert estimate_bbar(synth([1.0, 1.0], [0.0, 0.0], ell=[0, 1])).degenerate
    assert estimate_bbar(synth([1.0], [0.0])) == BbarEstimate(0.0, True)


def test_check_h4_vacuous_for_monotone_window():
    trace, _ = halving_trace()
    rec = check_h4(trace, tau=0.5, mu=0.5, kbar=2)
    assert rec.passed is True
    assert rec.details["vacuous"] is True and rec.details["checked"] == 0


def test_check_h4_worked_pass_with_clamped_violation():
    trace = synth([4.0, 3.0, 3.5, 1.0], [0.0, 1.0, 1.0, 1.0], m=1,
                  config={"m": 1, "a": 4.0})
    assert list(trace.column("ell")) == [0, 0, 2, 2]
    rec = check_h4(trace, tau=0.5, mu=0.0, kbar=2)
    # only (k=2, i=1): sqrt(0.5) <= 0.5 * 2 * 1; the true margin -0.293
    # is reported clamped to the merit-scale slack floor
    assert rec.passed is True
    assert rec.details["checked"] == 1
    assert rec.max_violation == pytest.approx(-5e-10)


def test_check_h4_locates_spikes():
    trace = synth([10.0, 9.0, 0.0, 8.9, 8.8], [0.0, 0.1, 0.1, 0.1, 0.1], m=1,
                  config={"m": 1, "a": 1.0})
    rec = check_h4(trace, tau=0.5, mu=0.5, kbar=2)
    assert rec.passed is False
    assert (rec.details["worst_k"], rec.details["worst_i"]) == (3, 2)
    assert rec.max_violation == pytest.approx(math.sqrt(8.9) - 0.1)


@pytest.mark.parametrize("kwargs", [
    {"tau": 0.0}, {"tau": 1.0}, {"tau": 1.5}, {"mu": -0.1}, {"kbar": 0},
    {"kbar": 1.5}, {"a": 0.0}, {"mu": math.inf}, {"mu": math.nan}, {"a": math.inf},
    {"tau": math.nan},
])
def test_check_h4_validation(kwargs):
    # a comes from the snapshot, the other constants are arguments
    args = {"tau": 0.5, "mu": 0.5, "kbar": 1, "a": 1.0}
    args.update(kwargs)
    with pytest.raises(InvalidInputError):  # a bad a fails as the trace is built
        check_h4(synth([1.0, 0.5], [0.0, 1.0], config={"m": 0, "a": args.pop("a")}), **args)


# ---------------------------------------------------------------------------
# path-length bound


def test_c_constant_worked_example():
    # mu_bar = 1: c = 2 * max(2, 2) = 4
    assert c_constant(0.5, 0.5, 1.0, 1) == 4.0
    # vanishing mu: c = (m+1) max(1/(sqrt(a)(1-tau)), 1)
    assert c_constant(0.0, 0.5, 4.0, 0) == 1.0
    assert c_constant(0.0, 0.5, 4.0, 3) == 4.0
    assert c_constant(0.0, 0.75, 1.0, 0) == 4.0


def test_c_constant_monotone_in_window_depth():
    for mu in (0.0, 0.3, 1.0):
        for tau in (0.25, 0.5, 0.9):
            for a in (0.25, 1.0, 4.0):
                vals = [c_constant(mu, tau, a, m) for m in range(6)]
                assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_c_constant_validation():
    with pytest.raises(InvalidInputError):
        c_constant(0.5, 1.0, 1.0, 1)
    with pytest.raises(InvalidInputError):
        c_constant(-1.0, 0.5, 1.0, 1)
    with pytest.raises(InvalidInputError):
        c_constant(0.5, 0.5, 0.0, 1)
    with pytest.raises(InvalidInputError):
        c_constant(0.5, 0.5, 1.0, -2)


def test_a_path_length_constant_past_the_float_range_bounds_nothing():
    # mu_bar = 2 at m = 1000, and 2e100 at m = 5: (1 + mu_bar)^(m - 1) overflows
    assert c_constant(1.0, 0.5, 1.0, 1000) == math.inf
    assert c_constant(1e100, 0.5, 1.0, 5) == math.inf
    # no gaps and no steps: inf * 0 is NaN, which must not fail the bound
    trace = synth([1.0] * 8, [0.0] * 8, m=5, config={"m": 5, "a": 1.0})
    rec = check_prop_bound(trace, tau=0.5, mu=1e100, kbar=6)
    assert rec.passed is None and rec.details["c"] == math.inf
    report = build_report(trace, mu=1e100, kbar=6)
    assert report.fields["prop_bound.pass"] is None
    assert report.fields["prop_bound.c"] is None


def test_prop_bound_trivial_pass():
    trace = synth([4.0, 3.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0], config={"m": 0, "a": 1.0})
    rec = check_prop_bound(trace, tau=0.5, mu=0.0, kbar=1)
    assert rec.passed is True
    assert rec.details["c"] == 2.0
    # every margin is far inside the bound; the report clamps at the floor
    assert rec.max_violation == pytest.approx(-5e-10)


def test_prop_bound_halving():
    trace, _ = halving_trace()
    rec = check_prop_bound(trace, tau=0.5, mu=0.0, kbar=1)
    assert rec.passed is True
    assert rec.details["checked"] == len(trace) - 1


def test_prop_bound_detects_uncovered_path():
    # the window peak jumps over a long step that the gap series cannot pay for
    trace = synth([1.0, 0.9, 0.95, 0.5], [0.0, 10.0, 0.01, 0.01], m=1,
                  config={"m": 1, "a": 1.0})
    assert list(trace.column("ell"))[:3] == [0, 0, 2]
    rec = check_prop_bound(trace, tau=0.5, mu=0.5, kbar=2)
    assert rec.passed is False
    assert rec.details["worst_k"] == 2
    lhs = 10.0 + 0.01
    rhs = 4.0 * (math.sqrt(0.05) + 0.01)
    assert rec.max_violation == pytest.approx(lhs - rhs, rel=1e-9)


def test_prop_bound_kbar_validation():
    trace = synth([1.0, 0.5], [0.0, 1.0], config={"m": 2, "a": 1.0})
    with pytest.raises(InvalidInputError, match="kbar"):
        check_prop_bound(trace, tau=0.5, mu=0.0, kbar=2)
    # the same rule as check_h4: booleans are not window indices
    with pytest.raises(InvalidInputError, match="kbar must be an integer, got True"):
        check_prop_bound(replace(trace, config={"m": 0, "a": 1.0}), tau=0.5, mu=0.0,
                         kbar=True)


def test_prop_bound_on_a_trace_shorter_than_kbar_is_null_as_in_the_report():
    trace = synth([4.0, 3.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0], m=2, config={"m": 2, "a": 1.0})
    rec = check_prop_bound(trace, tau=0.5, mu=0.0, kbar=4)
    assert rec == AuditRecord("prop_bound", None, None, {"c": c_constant(0.0, 0.5, 1.0, 2)})
    fields = build_report(trace, mu=0.0, kbar=4).fields
    assert fields["prop_bound.pass"] is None
    assert fields["prop_bound.c"] == rec.details["c"]


# ---------------------------------------------------------------------------
# column kernels against the row loops they replaced


def ref_recompute_ell(trace: Trace, m: int) -> AuditRecord:
    """Re-derive the window argmax column from merits and count mismatches."""
    check("audit", m=m)
    phi = _phi(trace)
    ell = trace.column("ell")
    mismatches = 0
    for k in range(len(trace)):
        lo = max(0, k - m)
        best_val, best_idx = phi[lo], lo
        for i in range(lo, k + 1):
            if phi[i] >= best_val:
                best_val, best_idx = phi[i], i
        if best_idx != ell[k]:
            mismatches += 1
    return AuditRecord("ell", mismatches == 0, float(mismatches),
                       {"mismatches": mismatches})


def ref_check_h4(trace: Trace, tau: float, mu: float, kbar: int, a: float) -> AuditRecord:
    check("audit", tau=tau, mu=mu, a=a, kbar=kbar)
    phi = _phi(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    csum = np.concatenate([[0.0], np.cumsum(s)])  # csum[i] = sum s[:i]
    slack = _phi_slack(phi)
    root_a = math.sqrt(a)
    worst = -math.inf
    worst_ki = (None, None)
    checked = 0
    K = len(trace) - 1
    for k in range(kbar, K + 1):
        peak = ell[k]
        for i in range(ell[k - 1] + 1, peak):
            gap = phi[peak] - phi[i] - slack
            lhs = math.sqrt(gap) if gap > 0.0 else 0.0
            rhs = tau * root_a * s[i] + mu * (csum[peak + 1] - csum[i + 1])
            v = lhs - rhs
            checked += 1
            if v > worst:
                worst, worst_ki = v, (int(k), int(i))
    if checked == 0:
        return AuditRecord("h4", True, 0.0,
                           {"checked": 0, "vacuous": True, "tau": tau, "mu": mu,
                            "kbar": kbar})
    return AuditRecord("h4", bool(worst <= slack), max(float(worst), -slack),
                       {"checked": checked, "vacuous": False, "slack": slack,
                        "worst_k": worst_ki[0], "worst_i": worst_ki[1],
                        "tau": tau, "mu": mu, "kbar": kbar})


def ref_check_prop_bound(trace: Trace, tau: float, mu: float, a: float, m: int,
                         kbar: int) -> AuditRecord:
    if not isinstance(kbar, int) or kbar < m + 1:
        raise InvalidInputError(
            f"kbar must be an integer greater than m={m}, got {kbar!r}"
        )
    c = c_constant(mu, tau, a, m)
    xi, gamma = xi_gamma(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    phi = _phi(trace)
    csum = np.concatenate([[0.0], np.cumsum(s)])
    gsum = np.concatenate([[0.0], np.cumsum(gamma)])
    worst = -math.inf
    worst_k = None
    checked = 0
    K = len(trace) - 1
    for k in range(kbar, K + 1):
        lhs = csum[ell[k] + 1] - csum[ell[k - 1] + 1]
        rhs = c * ((gsum[k] - gsum[k - m - 1]) + xi[k])
        v = lhs - rhs
        checked += 1
        if v > worst:
            worst, worst_k = v, int(k)
    if checked == 0:  # trace shorter than kbar
        return AuditRecord("prop_bound", None, None, {"c": c})
    slack = _phi_slack(phi)
    return AuditRecord("prop_bound", bool(worst <= slack),
                       max(float(worst), -slack),
                       {"checked": checked, "slack": slack, "c": c,
                        "worst_k": worst_k})


def random_window_trace(rng, m):
    """A short trace with heavy merit ties.  Half are window runs, each merit
    at most its window peak, so peak merits never rise; the rest draw merits
    freely from four levels.  A quarter get a stored ``ell`` column that is
    not the window argmax."""
    rows = int(rng.integers(1, 60))
    steps = np.round(rng.uniform(0.0, 2.0, rows), 1) * (rng.random(rows) < 0.8)
    if rng.random() < 0.5:
        phi = [float(rng.integers(8, 12))]
        for _ in range(rows - 1):
            phi.append(max(phi[-m - 1:]) - 0.25 * float(rng.integers(0, 4)))
    else:
        phi = [float(v) for v in rng.integers(0, 4, rows)]
    trace = synth(phi, np.concatenate([[0.0], steps[1:]]), m=m)
    if rng.random() < 0.25:
        trace = with_column(trace, ell=[int(rng.integers(0, k + 1)) for k in range(rows)])
    return trace


def same_record(new: AuditRecord, old: AuditRecord) -> bool:
    """Same verdict, same bits of every float, same types of every field."""
    return repr((new.name, new.passed, new.max_violation, new.details)) == \
        repr((old.name, old.passed, old.max_violation, old.details))


def test_column_kernels_match_the_row_loops():
    rng = np.random.default_rng(20251018)
    compared = 0
    for _ in range(300):
        m = int(rng.integers(0, 7))
        trace = random_window_trace(rng, m)
        for m_audit in {m, int(rng.integers(0, 7))}:
            assert same_record(recompute_ell(replace(trace, config={"m": m_audit, "a": 1.0})),
                               ref_recompute_ell(trace, m_audit))
            compared += 1
        tau = float(rng.choice([0.1, 0.5, 0.9]))
        mu = float(rng.choice([0.0, 0.3, 1.0]))
        a = float(rng.choice([0.25, 1.0, 4.0]))
        kbar = int(rng.integers(1, m + 4))
        trace = replace(trace, config={"m": m, "a": a})
        assert same_record(check_h4(trace, tau, mu, kbar),
                           ref_check_h4(trace, tau, mu, kbar, a))
        compared += 1
        kbar = max(kbar, m + 1)
        try:
            old = ref_check_prop_bound(trace, tau, mu, a, m, kbar)
        except FrameworkViolationError:
            with pytest.raises(FrameworkViolationError):
                check_prop_bound(trace, tau, mu, kbar)
            continue
        assert same_record(check_prop_bound(trace, tau, mu, kbar), old)
        compared += 1
    assert compared > 900


def test_nan_step_fails_h4_and_prop_bound():
    inst = make_problem("power4-1d", {"seed": 0})
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=5, max_outer=299))
    assert len(trace) == 300
    trace = with_cells(trace, "step_norm", 150, lambda _: float("nan"))
    fields = build_report(trace, problem=inst.problem).fields
    for check in ("h1", "h4", "prop_bound"):
        assert fields[f"{check}.pass"] is False, check
        assert fields[f"{check}.max_violation"] is None, check


def test_recompute_ell_memory_does_not_grow_with_m():
    K, m = 20000, 2000
    rows = [(k, float(k % 7), float(k % 7), 2.0, 0.0, 0, k, 1.0, 0.0) for k in range(K)]
    trace = Trace(algorithm="pgenls", columns=dict(zip(CSV_COLUMNS, zip(*rows))),
                  X=np.zeros((K, 0)), config={"m": m, "a": 1.0, "delta": 1.0})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = recompute_ell(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rec.passed is False
    assert peak < 16 * K * 8, peak


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_decay_geometric():
    ks = np.arange(1, 61, dtype=float)
    fits = fit_decay(ks, 0.7**ks)
    assert fits["rho"] == pytest.approx(0.7, abs=1e-12)
    assert fits["r2_lin"] == pytest.approx(1.0, abs=1e-12)
    assert fits["r2_pow"] < fits["r2_lin"]


def test_fit_decay_power():
    ks = np.arange(1, 61, dtype=float)
    fits = fit_decay(ks, ks**-2.0)
    assert fits["pow_slope"] == pytest.approx(-2.0, abs=1e-12)
    assert fits["r2_pow"] == pytest.approx(1.0, abs=1e-12)
    assert fits["r2_lin"] < fits["r2_pow"]


def test_fit_decay_validation():
    with pytest.raises(InvalidInputError):
        fit_decay(np.array([1.0]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        fit_decay(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(InvalidInputError):
        fit_decay(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_fit_rate_linear_tail():
    ks = np.arange(81)
    steps = np.concatenate([[0.0], 0.8 ** ks[1:]])
    trace = synth(4.0 - 0.01 * ks, steps)
    out = fit_rate(trace)
    assert out["verdict"] == "linear"
    assert out["rho"] == pytest.approx(0.8, abs=1e-9)
    assert out["theta"] is None


def test_fit_rate_sublinear_tail():
    ks = np.arange(301)
    steps = np.concatenate([[0.0], ks[1:] ** -2.0])
    trace = synth(4.0 - 0.01 * ks, steps, terminated="max_outer")
    out = fit_rate(trace)
    assert out["verdict"] == "sublinear"
    assert out["slope"] == pytest.approx(-1.0, abs=1e-3)
    # exponent map: slope s gives theta = (1-s)/(1-2s)
    assert out["theta"] == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_fit_rate_finite_termination():
    steps = np.concatenate([[0.0], 4.0 ** -np.arange(1.0, 26.0)])
    trace = synth(np.linspace(4, 3, 26), steps)
    assert steps[-1] <= 1e-13
    assert fit_rate(trace)["verdict"] == "finite-termination"


def test_fit_rate_short_unterminated_is_inconclusive():
    ks = np.arange(51)
    steps = np.concatenate([[0.0], 0.9 ** ks[1:]])
    trace = synth(4.0 - 0.01 * ks, steps, terminated="max_outer")
    out = fit_rate(trace)
    assert out["verdict"] == "inconclusive"
    # the same decay with tolerance termination is fittable
    trace = synth(4.0 - 0.01 * ks, steps, terminated="tolerance")
    assert fit_rate(trace)["verdict"] == "linear"


def test_fit_rate_poor_fit_is_inconclusive():
    # x^4/4 converges sublinearly; under the window rule the default-config
    # step lengths oscillate, and neither model fits them (R^2 about 0.46)
    inst = make_problem("power4-1d", {})
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=5, max_outer=1500))
    out = fit_rate(trace)
    assert out["verdict"] != "linear", out
    assert out["r2_lin"] is not None and out["r2_pow"] is not None
    assert out["rho"] is not None and out["slope"] is not None
    # the monotone run fits the power model and keeps its verdict
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=0, max_outer=1500))
    out = fit_rate(trace)
    assert out["verdict"] == "sublinear", out
    assert abs(out["theta"] - 0.75) <= 0.05, out


def test_fit_rate_on_halving_run():
    trace, _ = halving_trace()
    out = fit_rate(trace)
    assert out["verdict"] == "linear"
    assert out["rho"] == pytest.approx(0.5, abs=1e-12)


def test_estimate_lipschitz_quadratic():
    trace, _ = halving_trace()
    est = estimate_lipschitz(quad_1d(), trace)
    assert est == pytest.approx(1.0, abs=1e-12)
    # no stored iterates: nothing to estimate from
    bare = synth([1.0, 0.5], [0.0, 1.0])
    bare = replace(bare, X=np.empty((len(bare), 0)))
    assert estimate_lipschitz(quad_1d(), bare) is None


# ---------------------------------------------------------------------------
# report assembly


def test_derive_audit_inputs():
    trace, cfg = halving_trace()
    got = derive_audit_inputs(trace)
    assert got["m"] == 0 and got["a"] == npg_a(cfg)
    assert got["alpha"] == 1.0 and got["delta"] == 0.5 and got["c"] == 1.0
    # a snapshot's own a wins over the solver's decrease constant, and then
    # the constants that would derive it may be missing
    got = derive_audit_inputs(replace(trace, config=dict(trace.config, a=0.125)))
    assert got["a"] == 0.125 and got["c"] == 1.0
    got = derive_audit_inputs(replace(trace, config={"m": 3, "a": 0.25}))
    assert got == {"m": 3, "a": 0.25, "alpha": None, "delta": None, "c": None,
                   "beta_max": 0.0}
    # a null beta_max is a missing one: no extrapolation
    got = derive_audit_inputs(replace(trace, config={"m": 3, "a": 0.25, "beta_max": None}))
    assert got["beta_max"] == 0.0

    pg = pgenls_solve(quad_1d(), np.array([4.0]),
                      PgenlsConfig(m=2, delta=0.25, alpha=0.5, gamma_min=1.0,
                                   max_outer=5))
    got = derive_audit_inputs(pg)
    assert got["a"] == 0.5 * 0.5 * 0.25 and got["c"] is None

    # each value is checked as given, then converted
    got = derive_audit_inputs(replace(trace, config={"m": np.int64(3), "a": 1}))
    assert type(got["m"]) is int and type(got["a"]) is float
    with pytest.raises(InvalidInputError, match=r"^gamma_min must be a real number, got True$"):
        derive_audit_inputs(replace(trace, config=dict(trace.config, gamma_min=True)))

    with pytest.raises(InsufficientTraceError, match="missing"):
        derive_audit_inputs(Trace(algorithm="npg_major", config={"m": 1}))
    with pytest.raises(InsufficientTraceError, match="no config"):
        derive_audit_inputs(Trace(algorithm="npg_major"))


def test_a_trace_checks_only_the_snapshot_fields_the_audit_reads():
    trace, _ = halving_trace()
    # gamma_min only derives a missing a, and tau, mu and kbar are report arguments
    given = replace(trace, config={"m": 0, "a": 0.25, "gamma_min": 0, "mu": -1.0, "kbar": 0})
    assert given.config["gamma_min"] == 0 and given.config["mu"] == -1.0
    assert build_report(given, problem=quad_1d()).fields["constants.a"] == 0.25
    with pytest.raises(InvalidInputError, match=r"^gamma_min must be positive, got 0$"):
        replace(given, config=dict(given.config, a=None))
    # a derived a that underflows to 0 fails only when it is derived
    tiny = replace(trace, config=dict(trace.config, gamma_min=5e-324))
    with pytest.raises(InvalidInputError, match=r"^a must be positive, got 0\.0$"):
        derive_audit_inputs(tiny)


# each gate with the arguments no snapshot holds
GATES = {
    "h1": check_h1,
    "acceptance": check_acceptance,
    "ell": recompute_ell,
    "h3": lambda trace: check_h3(trace, 1.0),
    "h4": lambda trace: check_h4(trace, 0.5, 0.5, 2),
    "prop_bound": lambda trace: check_prop_bound(trace, 0.5, 0.5, 2),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_gate_on_a_trace_without_a_snapshot_raises(gate):
    trace = synth([4.0, 3.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0])
    with pytest.raises(InsufficientTraceError, match="no config snapshot"):
        GATES[gate](trace)


def test_a_gate_takes_its_constants_from_the_snapshot():
    trace = synth([1.0, 0.75], [0.0, 0.5], config={"m": 0, "a": 1.0})
    assert check_h1(trace).passed is True
    assert check_h1(replace(trace, config={"m": 0, "a": 2.0})).passed is False
    trace = synth([1.0, 2.0, 2.0, 0.0], [0.0, 1.0, 1.0, 1.0], m=3, config={"m": 3, "a": 1.0})
    assert recompute_ell(trace).passed is True
    assert recompute_ell(replace(trace, config={"m": 0, "a": 1.0})).passed is False


OUT_OF_DOMAIN = [
    ({"a": math.inf}, {}, "a must be finite, got inf"),
    ({"alpha": math.nan}, {}, "alpha must lie in [0, 1], got nan"),
    ({"alpha": 1.5}, {}, "alpha must lie in [0, 1], got 1.5"),
    ({"delta": -3.0}, {}, "delta must be nonnegative, got -3.0"),
    ({"c": 0.0}, {}, "c must be positive, got 0.0"),
    ({"beta_max": 2.0}, {}, "beta_max must lie in [0, 1], got 2.0"),
    ({}, {"lipschitz": math.nan}, "lipschitz must be nonnegative, got nan"),
    ({}, {"lipschitz": -1.0}, "lipschitz must be nonnegative, got -1.0"),
    ({}, {"lipschitz": math.inf}, "lipschitz must be finite, got inf"),
    ({}, {"mu": math.inf}, "mu must be finite, got inf"),
    ({}, {"tau": math.nan}, "tau must lie in (0, 1), got nan"),
    ({}, {"kbar": 3}, "kbar must be an integer greater than m=3, got 3"),
    # checked before conversion: no truncation, no boolean read as 1
    ({"m": 5.7}, {}, "m must be an integer, got 5.7"),
    ({}, {"kbar": 6.9}, "kbar must be an integer, got 6.9"),
    ({}, {"kbar": True}, "kbar must be an integer, got True"),
    ({"alpha": True}, {}, "alpha must be a real number, got True"),
    ({"a": 10**400}, {}, "a must be finite, got " + HUGE_SHOWN),
    ({"m": 10**30}, {}, f"m must fit in int64, got {10**30}"),
    ({}, {"kbar": 10**30}, f"kbar must fit in int64, got {10**30}"),
]
OUT_OF_DOMAIN_IDS = [
    "a-inf", "alpha-nan", "alpha-big", "delta-negative", "c-zero", "beta_max-big",
    "lipschitz-nan", "lipschitz-negative", "lipschitz-inf", "mu-inf", "tau-nan",
    "kbar-equals-m", "m-fraction", "kbar-fraction", "kbar-bool", "alpha-bool",
    "a-int-beyond-float", "m-beyond-int64", "kbar-beyond-int64"]
# a snapshot the out-of-domain cases change one field of
SNAPSHOT = {"m": 3, "a": 0.5, "alpha": 1.0, "delta": 0.5, "c": 1.0}


@pytest.mark.parametrize("snapshot, kwargs, message", OUT_OF_DOMAIN, ids=OUT_OF_DOMAIN_IDS)
def test_build_report_rejects_constants_outside_their_domain(snapshot, kwargs, message):
    # a constant that would give a wrong verdict fails before any check,
    # whatever the trace length: this trace is shorter than kbar; a snapshot
    # constant fails as the trace is built
    with pytest.raises(InvalidInputError) as exc:
        build_report(synth([4.0, 3.0], [0.0, 1.0], config={**SNAPSHOT, **snapshot}), **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("snapshot, message",
                         [(snapshot, message) for snapshot, _, message in OUT_OF_DOMAIN
                          if snapshot],
                         ids=[name for name, (snapshot, _, _) in
                              zip(OUT_OF_DOMAIN_IDS, OUT_OF_DOMAIN) if snapshot])
def test_building_a_trace_rejects_a_snapshot_outside_its_domain(snapshot, message):
    with pytest.raises(InvalidInputError) as exc:
        Trace(algorithm="npg_major", config={**SNAPSHOT, **snapshot})
    assert str(exc.value) == message


def test_the_snapshot_is_read_only_and_holds_the_checked_values():
    trace = synth([4.0, 3.0], [0.0, 1.0],
                  config={"m": np.int64(3), "a": 1, "beta_max": None, "rho": 2})
    with pytest.raises(TypeError):
        trace.config["m"] = 7
    # audit fields as the machine numbers they are used as; the rest as given
    assert trace.config == {"m": 3, "a": 1.0, "beta_max": None, "rho": 2}
    assert type(trace.config["m"]) is int and type(trace.config["a"]) is float


def test_build_report_rejects_an_empty_trace():
    with pytest.raises(InvalidInputError, match="^empty trace$"):
        build_report(Trace(algorithm="npg_major", config={"m": 0, "a": 1.0}))


def test_build_report_clean_dc_run():
    inst = make_problem("l1-l2-dc", {"seed": 7})
    cfg = NpgConfig(m=5, max_outer=3000, tol_step=1e-10, tol_resid=1e-6)
    trace = npg_solve(inst.problem, inst.x0, cfg, problem_id="l1-l2-dc", seed=7)
    report = build_report(trace, problem=inst.problem)
    f = report.fields
    assert report.passed(), report.failures()
    assert f["algorithm"] == "npg_major" and f["problem"] == "l1-l2-dc"
    assert f["h1.pass"] and f["acceptance.pass"] and f["ell.pass"]
    assert f["h3.pass"] and f["h4.pass"] and f["prop_bound.pass"]
    assert f["bbar_cap.pass"] in (True, None)
    assert f["series.pass"] is True  # tolerance-terminated run gates the tails
    assert f["h4.kbar"] == 7  # m + 2 by default
    assert f["constants.b_hat"] <= f["constants.b_cap"]
    assert f["rate.verdict"] in ("linear", "sublinear", "finite-termination",
                                 "inconclusive")


def test_build_report_without_a_finite_fitted_mu_skips_h4_and_prop_bound():
    # the two tiny steps square to 0, so the merit rise between them makes
    # b_bar, and the mu fitted from it, inf: no gate can use that mu
    trace = synth([1.0, 0.5, 0.6, 0.1], [0.0, 1e-170, 1e-170, 1.0], m=2,
                  config={"m": 2, "a": 0.1, "alpha": 1.0, "delta": 0.5, "c": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = build_report(trace).fields
    assert estimate_bbar(trace) == (math.inf, False)
    assert f["constants.b_bar"] is None
    assert f["h4.pass"] is None and f["h4.mu"] is None and f["h4.kbar"] == 4
    assert f["prop_bound.pass"] is None and f["prop_bound.c"] is None
    assert f["h1.pass"] is True
    # a finite mu given by the caller still gates
    f = build_report(trace, mu=1.0).fields
    assert f["h4.pass"] is not None and f["h4.mu"] == 1.0


@pytest.mark.parametrize("problem_id, solve", [("l1-l2-dc", npg_solve),
                                                ("lasso", pgenls_solve)],
                         ids=["npg_major", "pgenls"])
def test_the_snapshot_is_checked_once_when_the_trace_is_built(problem_id, solve):
    inst = make_problem(problem_id, {"seed": 1})
    cfg = NpgConfig(m=3) if solve is npg_solve else PgenlsConfig(m=3)
    with (mock.patch.object(trace_module, "check", wraps=check) as built,
          mock.patch.object(diagnostics, "check", wraps=check) as audited):
        trace = solve(inst.problem, inst.x0, cfg)
        assert built.call_count == 1
        # the fields the audit reads, gamma_min to derive a, in snapshot order
        read = {"m", "alpha", "delta", "c", "beta_max", "gamma_min"}
        assert list(built.call_args.kwargs) == [name for name in asdict(cfg) if name in read]
        assert audited.call_count == 0
        build_report(trace, problem=inst.problem)
        replace(trace, terminated="")
        assert built.call_count == 2  # one more Trace, one more check
    assert audited.call_count > 0
    snapshot_only = {"alpha", "delta", "c", "beta_max", "gamma_min"}
    for call in audited.call_args_list:
        assert not snapshot_only & call.kwargs.keys(), call


def test_reports_in_racing_threads_use_their_own_constants():
    # each thread audits its own trace, whose snapshot gives another a; the
    # constants one report holds must never reach another thread's gates
    trace, cfg = halving_trace()
    traces = [replace(trace, config=dict(trace.config, a=npg_a(cfg) * 2.0 ** -i))
              for i in range(6)]
    expected = [build_report(t, problem=quad_1d()).to_json() for t in traces]
    wrong = []

    def work(i):
        for _ in range(40):
            if build_report(traces[i], problem=quad_1d()).to_json() != expected[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and len(set(expected)) == 6


def test_build_report_json_contract():
    trace, _ = halving_trace()
    report = build_report(trace, problem=quad_1d())
    text = report.to_json()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {k: (None if isinstance(v, float) and not math.isfinite(v)
                          else v) for k, v in report.fields.items()}
    # keys are emitted sorted
    assert list(parsed) == sorted(parsed)
    assert parsed["version"]


def test_build_report_violation_floor():
    """Reported worst violations never sit below the slack floor."""
    inst = make_problem("lasso", {"seed": 2})
    trace = pgenls_solve(inst.problem, inst.x0,
                         PgenlsConfig(m=5, max_outer=500), problem_id="lasso")
    report = build_report(trace, problem=inst.problem)
    phi = _phi(trace)
    floor = -1e-10 * (1.0 + float(np.max(np.abs(phi)))) - 1e-15
    for key, val in report.fields.items():
        if key.endswith("max_violation") and val is not None:
            assert val >= floor, key


def test_build_report_flags_corrupted_merits():
    inst = make_problem("quad-l1", {"seed": 0})
    trace = npg_solve(inst.problem, inst.x0, NpgConfig(m=5, max_outer=200))
    # inflate one mid-run objective so the recorded window peaks increase
    mid = len(trace) // 2
    trace = with_cells(trace, "F", mid, lambda f: f + 10.0)
    report = build_report(trace, problem=inst.problem)
    assert not report.passed()
    fails = report.failures()
    assert "series" in fails and "prop_bound" in fails and "h1" in fails
    assert report.fields.get("series.error")


def test_build_report_flags_corrupted_objective_of_extrapolated_trace(tmp_path, capsys):
    # F is not the audited merit of a pgenls trace; h3 holds it to the
    # merit's definition F + (delta/2) step^2, in the API and in verify
    inst = make_problem("lasso", {"seed": 0})
    cfg = PgenlsConfig(m=5)
    trace = pgenls_solve(inst.problem, inst.x0, cfg, problem_id="lasso", seed=0)
    assert len(trace) == 32 and build_report(trace, problem=inst.problem).passed()
    trace = with_cells(trace, "F", [1, 22], lambda f: f + 1000.0)
    report = build_report(trace, problem=inst.problem)
    assert report.failures() == ["h3"]
    assert report.fields["h3.left_max_violation"] == pytest.approx(1000.0)

    write_trace_csv(trace, tmp_path / "trace.csv")
    a = pgenls.decrease_constant(cfg.alpha, cfg.delta, cfg.gamma_min)
    assert main(["verify", str(tmp_path / "trace.csv"), "--algorithm", "pgenls",
                 "--m", "5", "--a", repr(a), "--delta", repr(cfg.delta),
                 "--beta-max", repr(cfg.beta_max)]) == 3
    assert "h3" in capsys.readouterr().err.split("audit failure: ")[1]


def test_build_report_explicit_constants_only():
    trace = synth([4.0, 3.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0],
                  config={"m": 0, "a": 0.5, "alpha": 1.0, "delta": 0.5, "c": 1.0})
    report = build_report(trace)
    assert report.fields["h1.pass"] is True
    assert report.fields["constants.l_f"] is None
    # without any constants the audit cannot run
    with pytest.raises(InsufficientTraceError):
        build_report(synth([1.0, 0.5], [0.0, 1.0]))


def test_build_report_explicit_constants_match_snapshot():
    # the full solver snapshot and the one verify builds from its flags (the
    # decrease constant a given, gamma_min not) give the same report, the
    # proximity weight of the pgenls paired-state steps and h3 cap included
    pg, dc = PgenlsConfig(), NpgConfig()
    for pid, solve, cfg, own, a in (
            ("lasso", pgenls_solve, pg, "beta_max",
             pgenls.decrease_constant(pg.alpha, pg.delta, pg.gamma_min)),
            ("l1-l2-dc", npg_solve, dc, "c", npg_a(dc))):
        inst = make_problem(pid, {"seed": 0})
        trace = solve(inst.problem, inst.x0, cfg, problem_id=pid, seed=0)
        snapshot = build_report(trace, problem=inst.problem)
        flags = {name: getattr(cfg, name) for name in ("m", "alpha", "delta", own)}
        explicit = build_report(replace(trace, config=dict(flags, a=a)),
                                problem=inst.problem)
        assert snapshot.passed(), (pid, snapshot.failures())
        assert explicit.fields == snapshot.fields, pid


def test_build_report_degenerate_flag():
    with pytest.warns(UserWarning):
        cfg = PgenlsConfig(m=0, delta=0.0, beta_max=0.5, max_outer=100)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    report = build_report(trace, problem=quad_1d())
    assert report.fields["h1.degenerate_a"] is True
    assert report.fields["constants.b_cap_enforced"] is False

    plain = pgenls_solve(quad_1d(), np.array([4.0]),
                         PgenlsConfig(m=0, delta=0.5, beta_max=0.0,
                                      max_outer=100))
    report = build_report(plain, problem=quad_1d())
    assert report.fields["h1.degenerate_a"] is False


POWER4_SOLVES = {
    "npg_major": lambda p, x0: npg_solve(p, x0, NpgConfig(m=5, max_outer=1500)),
    "pgenls": lambda p, x0: pgenls_solve(p, x0, PgenlsConfig(m=5, max_outer=1500)),
    "pgnls": lambda p, x0: pgenls_solve(
        p, x0, PgenlsConfig(m=5, max_outer=1500, delta=0.0, beta_max=0.0),
        algorithm_label="pgnls"),
}


@pytest.mark.parametrize("algorithm", sorted(POWER4_SOLVES))
def test_problem_without_hint_has_no_lipschitz_constant(algorithm, counted):
    # x^4/4 has no global gradient Lipschitz constant and no hint: the
    # audit neither estimates one nor gates a cap on it
    inst = make_problem("power4-1d", {"seed": 0})
    trace = POWER4_SOLVES[algorithm](inst.problem, inst.x0)
    f, calls = counted(inst.problem.f)
    report = build_report(trace, problem=replace(inst.problem, f=f))
    fields = report.fields
    assert len(trace) == 1501
    assert calls["gradient"] == 0
    assert fields["constants.l_f"] is None and fields["constants.b_cap"] is None
    assert fields["constants.b_cap_enforced"] is False
    if algorithm == "npg_major":
        for key in ("h3.pass", "h3.right_max_violation", "h3.sigma_max",
                    "bbar_cap.pass"):
            assert fields[key] is None, key
    assert report.passed(), report.failures()


def test_report_verdict_helpers():
    rep = DiagnosticsReport({"a.pass": True, "b.pass": None, "c.value": 3})
    assert rep.passed() and rep.failures() == []
    rep = DiagnosticsReport({"a.pass": True, "b.pass": False, "z.pass": False})
    assert not rep.passed()
    assert rep.failures() == ["b", "z"]
