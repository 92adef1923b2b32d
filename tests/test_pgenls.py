"""Extrapolated proximal-gradient solver: worked steps, schedules, guards."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kldescent.catalog import make_problem
from kldescent.descent import Iterate, initial_gamma
from kldescent.diagnostics import build_report
from kldescent.errors import BacktrackingFailureError, InvalidInputError
from kldescent.oracles import (
    CompositeProblem,
    SmoothOracle,
    make_least_squares,
    zero_oracle,
)
from kldescent.pgenls import (
    PgenlsConfig,
    decrease_constant,
    degenerate_decrease,
    f_delta,
    inner_schedule,
    pg_residual,
    pgenls_solve,
)


def quad_1d():
    f = make_least_squares(np.array([[1.0]]), np.array([0.0]))
    return CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)


WORKED = PgenlsConfig(m=0, delta=1.0, alpha=0.5, gamma_min=2.0, gamma_max=2.0,
                      beta_max=0.5, rho=2.0, nu=0.25,
                      gamma_init_rule="constant", beta_init_rule="constant",
                      max_outer=50, tol_step=1e-10, tol_resid=1e-10)


def test_worked_two_steps():
    trace = pgenls_solve(quad_1d(), np.array([4.0]), WORKED)
    F, merit, resid = map(trace.column, ("F", "merit", "residual"))
    # bootstrap pair (4, 4): proximity term vanishes, merit = F
    assert F[0] == 8.0 and merit[0] == 8.0
    # step 1: inertia 0, cand = 4 - 4/2 = 2, merit = 2 + 0.5*4 = 4
    assert trace.X[1, 0] == 2.0
    assert F[1] == 2.0 and merit[1] == 4.0
    assert (trace.column("gamma")[1] == 2.0 and trace.column("beta")[1] == 0.5
            and trace.column("j_inner")[1] == 0)
    assert resid[1] == pytest.approx(2.0, abs=1e-15)
    # step 2: y = 2 + 0.5*(2-4) = 1, cand = 1 - 1/2 = 0.5
    assert trace.X[2, 0] == 0.5
    assert F[2] == 0.125 and merit[2] == pytest.approx(1.25, abs=1e-15)
    assert trace.column("step_norm")[2] == 1.5
    assert resid[2] == pytest.approx(math.sqrt(3.25), abs=1e-14)


def test_f_delta_value():
    p = quad_1d()
    assert f_delta(p, np.array([2.0]), np.array([4.0]), 1.0) == 4.0
    assert f_delta(p, np.array([2.0]), np.array([2.0]), 3.0) == 2.0
    with pytest.raises(InvalidInputError):
        f_delta(p, np.array([1.0]), np.array([1.0]), -0.5)


def test_inner_schedule_product_decays_exactly():
    gamma0, beta0 = 3.0, 0.8
    for j in range(12):
        gamma, beta = inner_schedule(gamma0, beta0, 2.0, 0.25, j)
        assert gamma == gamma0 * 2.0**j
        assert beta == beta0 * 0.25**j
        # rho = 2, nu = 1/4: every scaling is an exact power of two
        assert gamma * beta == gamma0 * beta0 * 0.5**j


def test_nu_must_be_strictly_inside_the_stability_range():
    with pytest.raises(InvalidInputError, match="nu"):
        PgenlsConfig(rho=2.0, nu=0.5)
    with pytest.raises(InvalidInputError, match="nu"):
        PgenlsConfig(rho=2.0, nu=0.0)
    PgenlsConfig(rho=2.0, nu=0.499)  # just inside
    with pytest.raises(InvalidInputError, match="nu"):
        PgenlsConfig(rho=4.0, nu=0.3)


def test_degenerate_proximity_weight_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        cfg = PgenlsConfig(delta=0.0, beta_max=0.5)
    assert degenerate_decrease(cfg.delta, cfg.beta_max)
    assert not degenerate_decrease(delta=0.0, beta_max=0.0)
    assert not degenerate_decrease(delta=1.0, beta_max=0.5)


def test_h1_constant_cases():
    assert decrease_constant(alpha=0.5, gamma_min=2.0, delta=1.0) == 0.25
    assert decrease_constant(alpha=0.5, gamma_min=0.5, delta=1.0) == 0.125
    # delta = 0: x-block fallback uses gamma_min
    assert decrease_constant(alpha=0.5, gamma_min=2.0, delta=0.0) == 0.5


def test_dc_problem_rejected():
    inst = make_problem("l1-l2-dc", {"seed": 0})
    with pytest.raises(InvalidInputError, match="concave"):
        pgenls_solve(inst.problem, inst.x0, PgenlsConfig())


def test_plain_pg_mode_halves_quadratic():
    cfg = PgenlsConfig(m=0, delta=0.0, beta_max=0.0, alpha=0.5, gamma_min=2.0,
                      gamma_max=2.0, gamma_init_rule="constant",
                      tol_step=1e-12, tol_resid=1e-12, max_outer=100)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    xs = trace.iterates()[:, 0]
    np.testing.assert_array_equal(xs, 4.0 * 0.5 ** np.arange(len(xs)))
    # with delta = 0 the merit column is just F
    np.testing.assert_array_equal(trace.column("merit"), trace.column("F"))
    assert np.all(trace.column("beta")[1:] == 0.0)


def test_nesterov_ramp_respects_cap():
    cfg = PgenlsConfig(m=0, delta=0.5, alpha=0.5, gamma_min=2.0, gamma_max=2.0,
                      beta_max=0.6, beta_init_rule="nesterov",
                      gamma_init_rule="constant", max_outer=30,
                      tol_step=1e-12, tol_resid=1e-12)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    beta = trace.column("beta")[1:]
    assert beta[0] == 0.0  # (t0 - 1) / t1 = 0
    assert np.all(beta >= 0.0) and np.all(beta <= 0.6)
    assert beta.max() > 0.0  # the ramp engages within the run


def test_window_acceptance_vs_recorded_quantities():
    inst = make_problem("lasso", {"seed": 4})
    cfg = PgenlsConfig(m=4, max_outer=200)
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    merit = trace.column("merit")
    s = trace.column("step_norm")
    g = trace.column("gamma")
    for k in range(1, len(trace)):
        lo = max(0, k - 1 - cfg.m)
        peak = merit[lo:k].max()
        dec = 0.5 * cfg.alpha * (g[k] * s[k] ** 2 + cfg.delta * s[k - 1] ** 2)
        assert merit[k] <= peak - dec + 1e-12 * (1.0 + abs(peak))


def test_pg_residual_validation():
    p = quad_1d()
    x = np.array([1.0])
    with pytest.raises(InvalidInputError, match="gamma_prev"):
        pg_residual(p, x, x, x, 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="delta"):
        pg_residual(p, x, x, x, 1.0, -1.0)
    # at an exact fixed point with no extrapolation the residual vanishes
    z = np.array([0.0])
    assert pg_residual(p, z, z, z, 2.0, 1.0) == 0.0


def test_stationary_exit():
    trace = pgenls_solve(quad_1d(), np.array([0.0]), WORKED)
    assert trace.terminated == "stationary"
    assert len(trace) == 2


def test_outer_cap_termination():
    cfg = PgenlsConfig(m=0, max_outer=3, tol_step=1e-300, tol_resid=1e-300)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    assert trace.terminated == "max_outer"
    assert len(trace) == 4


def test_tolerance_termination_on_sparse_regression():
    inst = make_problem("lasso", {"seed": 1})
    cfg = PgenlsConfig(m=5, max_outer=2000, tol_step=1e-8, tol_resid=1e-6)
    trace = pgenls_solve(inst.problem, inst.x0, cfg, problem_id="lasso", seed=1)
    assert trace.tolerance_terminated()
    assert trace.column("residual")[-1] <= 1e-6


def test_dimension_and_domain_guards():
    with pytest.raises(InvalidInputError, match="dimension"):
        pgenls_solve(quad_1d(), np.array([1.0, 2.0]), WORKED)


@pytest.mark.parametrize("kwargs", [
    {"m": -2}, {"delta": -0.1}, {"alpha": 0.0}, {"alpha": 1.0},
    {"beta_max": 1.5}, {"rho": 0.9}, {"max_outer": 0}, {"tol_resid": -1.0},
    {"gamma_init_rule": "x"}, {"beta_init_rule": "y"}, {"max_outer": 2.5},
    {"max_inner": 2.5}, {"m": True}, {"max_outer": True}, {"tol_step": True},
    {"alpha": True}, {"gamma_min": "0.1"},
])
def test_config_validation(kwargs):
    with pytest.raises(InvalidInputError):
        PgenlsConfig(**kwargs)


def test_backtracking_failure_carries_location():
    # f = x^2/2 whose gradient turns uphill below 3: the step from 4 to 2 is
    # accepted, then every trial from 2 moves away from the minimizer.
    lying = SmoothOracle(value=lambda x: 0.5 * float(x @ x),
                         gradient=lambda x: x if x[0] >= 3.0 else -10.0 * x)
    p = CompositeProblem(f=lying, g=zero_oracle(), h=None, dimension=1)
    cfg = PgenlsConfig(m=0, delta=0.0, beta_max=0.0, gamma_min=2.0, gamma_max=2.0,
                       gamma_init_rule="constant", max_inner=5)
    with pytest.raises(BacktrackingFailureError) as exc:
        pgenls_solve(p, np.array([4.0]), cfg)
    err = exc.value
    assert (err.k, err.j, err.gamma) == (1, 4, 2.0 * cfg.rho**4)
    assert str(err) == ("no acceptable step within 5 trials at outer iteration 1 "
                        "(last gamma 32)")


@pytest.mark.parametrize("beta_max, starts", [
    pytest.param(0.9, [1e-2, 0.5, 1.0], id="0.9-2"),
    pytest.param(0.0, [1e-2, 1.0, 1.0], id="0.0-1"),
])
def test_spectral_start_needs_a_known_previous_gradient(beta_max, starts):
    # An extrapolated first step never evaluates grad f(x^0), so the
    # Barzilai-Borwein start is gamma_min until k = 2; without extrapolation
    # it applies from k = 1.  For f = x^2/2 the estimate is exactly 1.  Step 1
    # rejects its first trial, so step 2 starts at delta/2 = 0.5 or above.
    cfg = PgenlsConfig(m=0, beta_max=beta_max, gamma_min=1e-2, max_outer=6,
                       tol_step=1e-300, tol_resid=1e-300)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    ks, gammas, js = (trace.column(name)[1:].tolist() for name in ("k", "gamma", "j_inner"))
    assert js[0] > 0
    assert len(ks) >= len(starts)
    for k, gamma, j in zip(ks, gammas, js):
        gamma0 = starts[min(k, len(starts)) - 1]
        assert gamma == gamma0 * cfg.rho**j, k


def spectral_starts(trace, problem, cfg):
    """The Barzilai-Borwein start :func:`initial_gamma` gives each row after
    row 0, rebuilt from the stored iterates: ``grad f(x^{k-1})`` is known from
    ``k = 2``, and at ``k = 1`` only when the first step did not extrapolate."""
    X = trace.X
    starts = []
    for row in trace.column("k")[1:].tolist():
        k = row - 1  # the outer iteration that made the row
        known = k >= 2 or (k == 1 and trace.column("beta")[1] == 0.0)
        step = X[k] - X[max(k - 1, 0)]
        it = Iterate(k=k, x=X[k], x_prev=X[max(k - 1, 0)], h=0.0,
                     step=step, step_sq=float(step @ step),
                     grad=problem.f.gradient(X[k]),
                     grad_prev=problem.f.gradient(X[k - 1]) if known else None)
        starts.append(initial_gamma(cfg, it))
    return starts


def floored_starts(trace, problem, cfg):
    """:func:`spectral_starts`, raised to ``delta/2`` (at most ``gamma_max``)
    on each row whose previous row rejected its first trial."""
    starts = spectral_starts(trace, problem, cfg)
    js = trace.column("j_inner")
    for i, k in enumerate(trace.column("k")[2:].tolist(), start=1):
        if js[k - 1] > 0:
            starts[i] = min(max(starts[i], 0.5 * cfg.delta), cfg.gamma_max)
    return starts


def assert_starts(trace, starts, cfg):
    rows = zip(*(trace.column(name)[1:].tolist() for name in ("k", "gamma", "j_inner")))
    for (k, gamma, j), gamma0 in zip(rows, starts, strict=True):
        assert gamma == gamma0 * cfg.rho**j, k


def test_start_is_floored_only_after_a_rejected_start():
    # On x^4/4 the spectral start clamps to gamma_min, far below delta/2; at
    # m = 5 the window accepts many of those small starts at j = 0, and the
    # start after such a row stays below delta/2.
    inst = make_problem("power4-1d")
    cfg = PgenlsConfig(m=5, max_outer=3000)
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    starts = floored_starts(trace, inst.problem, cfg)
    assert_starts(trace, starts, cfg)
    previous_j = trace.column("j_inner")[1:-1].tolist()
    after_accept = [s for j, s in zip(previous_j, starts[1:]) if j == 0]
    after_reject = [s for j, s in zip(previous_j, starts[1:]) if j > 0]
    assert min(after_accept) < 0.5 * cfg.delta
    assert min(after_reject) == 0.5 * cfg.delta


@pytest.mark.parametrize("problem_id, seed, m", [
    ("lasso", 0, 0), ("quad-l1", 0, 0), ("l0-ls", 0, 5), ("power4-1d", None, 0),
])
def test_plain_mode_starts_are_spectral(problem_id, seed, m):
    # At delta = 0 the floor delta/2 is inert: every row begins at the
    # Barzilai-Borwein value, after a rejected start too, so pgnls runs as
    # it did before the floor.
    inst = make_problem(problem_id, {} if seed is None else {"seed": seed})
    cfg = PgenlsConfig(m=m, delta=0.0, beta_max=0.0, max_outer=3000)
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    assert np.any(trace.column("j_inner")[1:-1] > 0)
    assert_starts(trace, spectral_starts(trace, inst.problem, cfg), cfg)


def test_floored_start_is_clamped_to_gamma_max():
    # gamma_max = 0.2 < delta/2: step 2 follows a rejected start and begins
    # at gamma_max, not at delta/2 nor at the spectral fallback gamma_min.
    cfg = PgenlsConfig(m=0, beta_max=0.9, gamma_min=1e-2, gamma_max=0.2, max_outer=4,
                       tol_step=1e-300, tol_resid=1e-300)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    (_, g1, g2), (_, j1, j2) = (trace.column(name)[:3].tolist() for name in ("gamma", "j_inner"))
    assert j1 > 0 and g1 == cfg.gamma_min * cfg.rho**j1
    assert g2 == cfg.gamma_max * cfg.rho**j2


def test_power4_monotone_run_rejects_few_trials():
    # From the spectral start gamma_min = 0.01 each step needs six rejections
    # to reach the accepted gamma = 0.64; from the floor delta/2 = 0.5 it
    # needs one.
    inst = make_problem("power4-1d")
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=0, max_outer=3000))
    js = trace.column("j_inner")[1:].tolist()
    assert len(js) == 3000
    assert sum(j + 1 for j in js) / len(js) <= 2.1


def test_extrapolated_trials_call_the_gradient_at_most_twice(counted):
    # For the quadratic least-squares f, grad f(y) comes from the gradients at
    # x and x_prev: only k = 0 and k = 1 call the oracle for it, once each.
    # The accepted candidate's gradient reuses the residual of its value call.
    inst = make_problem("lasso", {"seed": 0})
    f, calls = counted(inst.problem.f)
    trace = pgenls_solve(replace(inst.problem, f=f), inst.x0, PgenlsConfig(m=5))
    iterations = len(trace) - 1
    assert trace.terminated == "tolerance"
    assert calls["gradient"] <= iterations + 2
    assert calls["residual"] <= calls["value"] + 1


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("seed", range(5))
def test_extrapolated_gradient_agrees_with_the_computed_one(seed, m):
    inst = make_problem("lasso", {"seed": seed})
    computed = replace(inst.problem, f=replace(inst.problem.f, quadratic=False))
    traces = [pgenls_solve(problem, inst.x0, PgenlsConfig(m=m))
              for problem in (computed, inst.problem)]
    assert traces[0].terminated == traces[1].terminated
    F_computed, F_extrapolated = (t.column("F")[-1] for t in traces)
    assert F_extrapolated == pytest.approx(F_computed, rel=1e-10, abs=0.0)
    for trace in traces:
        report = build_report(trace, problem=inst.problem)
        assert report.passed(), report.failures()
