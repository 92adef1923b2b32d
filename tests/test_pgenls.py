"""Extrapolated proximal-gradient solver: worked steps, schedules, guards."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kldescent.catalog import make_problem
from kldescent.descent import initial_gamma, probe_gamma
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
    inner_schedule,
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
    # step 1: no inertia, so weight 0; cand = 4 - 4/2 = 2, merit = 2 + 0.5*4 = 4
    assert trace.X[1, 0] == 2.0
    assert F[1] == 2.0 and merit[1] == 4.0
    assert (trace.column("gamma")[1] == 2.0 and trace.column("beta")[1] == 0.0
            and trace.column("j_inner")[1] == 0)
    assert resid[1] == pytest.approx(2.0, abs=1e-15)
    # step 2: y = 2 + 0.5*(2-4) = 1, cand = 1 - 1/2 = 0.5
    assert trace.X[2, 0] == 0.5
    assert F[2] == 0.125 and merit[2] == pytest.approx(1.25, abs=1e-15)
    assert trace.column("step_norm")[2] == 1.5
    assert resid[2] == pytest.approx(math.sqrt(3.25), abs=1e-14)


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


def test_stationary_exit():
    trace = pgenls_solve(quad_1d(), np.array([0.0]), WORKED)
    assert trace.terminated == "stationary"
    assert len(trace) == 2


def test_outer_cap_termination():
    # from 4 the run reaches the minimizer 0 at step 1 and repeats it at
    # step 2, so a cap of 2 steps ends it first
    cfg = PgenlsConfig(m=0, max_outer=2, tol_step=1e-300, tol_resid=1e-300)
    trace = pgenls_solve(quad_1d(), np.array([4.0]), cfg)
    assert trace.terminated == "max_outer"
    assert len(trace) == 3


def test_tolerance_termination_on_sparse_regression():
    inst = make_problem("lasso", {"seed": 1})
    cfg = PgenlsConfig(m=5, max_outer=2000, tol_step=1e-8, tol_resid=1e-6)
    trace = pgenls_solve(inst.problem, inst.x0, cfg, problem_id="lasso", seed=1)
    assert trace.terminated in ("tolerance", "stationary")
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


@pytest.mark.parametrize("beta_max, gamma_min", [
    pytest.param(0.9, 0.4, id="0.9-2"),
    pytest.param(0.0, 0.4, id="0.0-1"),
    pytest.param(0.9, 1e-2, id="0.9-capped-1"),
])
def test_spectral_start_needs_a_known_previous_gradient(beta_max, gamma_min):
    # The Barzilai-Borwein start needs the gradient at a second point.  The
    # probe supplies it at k = 0, so neither an extrapolated first step nor a
    # gamma_min that caps the first weight at 0 delays it, as they once did
    # to k = 2 and k = 1 (the ids).  For f = x^2/2 the estimate is 1, exactly
    # from k = 1 and up to the rounding of x^0 + d at k = 0.  Step 0 rejects
    # its first trial; the floor delta/2 = 0.5 of step 1 is below 1.
    cfg = PgenlsConfig(m=0, beta_max=beta_max, gamma_min=gamma_min, max_outer=6,
                       tol_step=1e-300, tol_resid=1e-300)
    problem, x0 = quad_1d(), np.array([4.0])
    trace = pgenls_solve(problem, x0, cfg)
    probe = probe_gamma(cfg, problem.f.gradient, x0, problem.f.gradient(x0))
    assert probe == pytest.approx(1.0, rel=1e-9)
    starts = [probe, 1.0, 1.0]
    ks, gammas, js = (trace.column(name)[1:].tolist() for name in ("k", "gamma", "j_inner"))
    assert js[0] > 0
    assert len(ks) >= len(starts)
    for k, gamma, j in zip(ks, gammas, js):
        gamma0 = starts[min(k, len(starts)) - 1]
        assert gamma == gamma0 * cfg.rho**j, k


def spectral_starts(trace, problem, cfg):
    """The Barzilai-Borwein start of each row after row 0, rebuilt from the
    stored iterates: :func:`probe_gamma` at ``x^0`` for row 1, and
    :func:`initial_gamma` of the step ``x^k - x^{k-1}`` after it."""
    X, gradient = trace.X, problem.f.gradient
    starts = []
    for row in trace.column("k")[1:].tolist():
        k = row - 1  # the outer iteration that made the row
        if k == 0:
            starts.append(probe_gamma(cfg, gradient, X[0], gradient(X[0])))
            continue
        step = X[k] - X[k - 1]
        starts.append(initial_gamma(cfg, step, float(step @ step),
                                    gradient(X[k]) - gradient(X[k - 1])))
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
    ("lasso", 0, 0), ("quad-l1", 0, 0), ("l0-ls", 1, 5), ("lasso", 1, 0),
])
def test_plain_mode_starts_are_spectral(problem_id, seed, m):
    # At delta = 0 the floor delta/2 is inert: every row begins at the
    # Barzilai-Borwein value, after a rejected start too, so pgnls runs as
    # it did before the floor.  (From the probe's start, pgnls on power4-1d
    # rejects no start at all.)
    inst = make_problem(problem_id, {} if seed is None else {"seed": seed})
    cfg = PgenlsConfig(m=m, delta=0.0, beta_max=0.0, max_outer=3000)
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    assert np.any(trace.column("j_inner")[1:-1] > 0)
    assert_starts(trace, spectral_starts(trace, inst.problem, cfg), cfg)


def test_floored_start_is_clamped_to_gamma_max():
    # f = x^2/32 has curvature 1/16 and gamma_max = 0.2 < delta/2: step 1
    # follows a rejected start and begins at gamma_max, not at delta/2 nor
    # at the Barzilai-Borwein estimate 1/16.
    f = make_least_squares(np.array([[0.25]]), np.array([0.0]))
    problem = CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)
    cfg = PgenlsConfig(m=0, beta_max=0.9, gamma_min=1e-2, gamma_max=0.2, max_outer=4,
                       tol_step=1e-300, tol_resid=1e-300)
    trace = pgenls_solve(problem, np.array([4.0]), cfg)
    (_, g1, g2), (_, j1, j2) = (trace.column(name)[:3].tolist() for name in ("gamma", "j_inner"))
    assert j1 > 0 and g1 == pytest.approx(cfg.rho**j1 / 16.0, rel=1e-9)
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
    # x and x_prev, both known from the start: the trials never call the
    # oracle for it.  The gradient calls are grad f(x^0), the spectral probe's
    # at x^0 + d and the accepted candidates', which reuse the residual of
    # their value call; only the probe's computes its own.
    inst = make_problem("lasso", {"seed": 0})
    f, calls = counted(inst.problem.f)
    trace = pgenls_solve(replace(inst.problem, f=f), inst.x0, PgenlsConfig(m=5))
    iterations = len(trace) - 1
    assert trace.terminated == "tolerance"
    assert calls["gradient"] == iterations + 2
    assert calls["residual"] == calls["value"] + 1


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


def flat_cap(cfg, gamma):
    """``sqrt((1 - alpha) delta / (delta + alpha gamma))``: the largest weight
    whose all-inertia candidate passes the ``m = 0`` test on a flat ``F``."""
    return math.sqrt((1.0 - cfg.alpha) * cfg.delta / (cfg.delta + cfg.alpha * gamma))


def steady_cap(cfg, gamma):
    """``1 - alpha (delta + gamma) / (2 gamma)``: the largest weight whose
    candidate repeating the last step passes the ``m = 0`` test on an ``F``
    linear along it."""
    return 1.0 - 0.5 * cfg.alpha * (cfg.delta + gamma) / gamma


def capped(cfg, beta0, gamma):
    return max(min(beta0, flat_cap(cfg, gamma), steady_cap(cfg, gamma)), 0.0)


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("problem_id", ["lasso", "quad-l1", "l0-ls", "power4-1d"])
def test_first_step_records_no_extrapolation(problem_id, m):
    # At k = 0 there is no inertia, so y = x^0 whatever the weight: the first
    # trial weight is 0, and row 1 records the weight its step used.
    inst = make_problem(problem_id, {} if problem_id == "power4-1d" else {"seed": 0})
    trace = pgenls_solve(inst.problem, inst.x0, PgenlsConfig(m=m, max_outer=1))
    assert trace.column("beta")[1] == 0.0


def first_trial_rows(trace):
    """``(gamma, beta)`` of the rows accepted at their first trial, rows 0 and
    1 aside: row 1's step has no inertia to extrapolate."""
    gamma, beta, j = (trace.column(name)[2:] for name in ("gamma", "beta", "j_inner"))
    return gamma[j == 0].tolist(), beta[j == 0].tolist()


@pytest.mark.parametrize("problem_id", ["lasso", "quad-l1"])
@pytest.mark.parametrize("m", [0, 5])
def test_extrapolation_starts_at_the_window_caps(problem_id, m):
    inst = make_problem(problem_id, {"seed": 0})
    cfg = PgenlsConfig(m=m)
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    gammas, betas = first_trial_rows(trace)
    assert len(betas) >= 5
    for gamma, beta in zip(gammas, betas):
        assert beta == capped(cfg, cfg.beta_max, gamma)
    # at the defaults the caps bind: every start is below beta_max, and the
    # all-inertia cap is the smaller one on some rows
    assert max(betas) < cfg.beta_max
    assert any(flat_cap(cfg, gamma) < steady_cap(cfg, gamma) for gamma in gammas)


def test_steady_step_cap_binds_on_a_flat_tail():
    # power4-1d's gradient vanishes like x^3, so its curvature estimates and
    # the starts gamma0 are small: there the repeated-step cap is the smaller
    # one, and below gamma0 = alpha delta / (2 - alpha) it is 0
    inst = make_problem("power4-1d", {})
    cfg = PgenlsConfig(m=5, max_outer=1500)
    gammas, betas = first_trial_rows(pgenls_solve(inst.problem, inst.x0, cfg))
    for gamma, beta in zip(gammas, betas):
        assert beta == capped(cfg, cfg.beta_max, gamma)
    assert sum(0.0 < beta == steady_cap(cfg, gamma) for gamma, beta in zip(gammas, betas)) > 100
    assert sum(beta == 0.0 for beta in betas) > 100


def test_without_proximity_term_extrapolation_starts_at_beta_max():
    inst = make_problem("lasso", {"seed": 0})
    with pytest.warns(UserWarning, match="degenerate"):
        cfg = PgenlsConfig(m=5, delta=0.0, beta_max=0.9)
    _, betas = first_trial_rows(pgenls_solve(inst.problem, inst.x0, cfg))
    assert betas and set(betas) == {0.9}


def test_window_caps_bound_the_nesterov_start_too():
    # the caps belong to the acceptance test, not to the weight rule: each
    # first trial starts at the smallest of the Nesterov ramp and the caps
    inst = make_problem("lasso", {"seed": 0})
    cfg = PgenlsConfig(m=5, beta_init_rule="nesterov")
    trace = pgenls_solve(inst.problem, inst.x0, cfg)
    t_prev = t_curr = 1.0
    ramp_binds = cap_binds = 0
    for gamma, beta, j in zip(*(trace.column(name)[1:].tolist()
                                for name in ("gamma", "beta", "j_inner"))):
        ramp = min(max((t_prev - 1.0) / t_curr, 0.0), cfg.beta_max)
        if j == 0:
            cap = capped(cfg, cfg.beta_max, gamma)
            assert beta == min(ramp, cap)
            ramp_binds, cap_binds = ramp_binds + (ramp < cap), cap_binds + (cap < ramp)
        t_prev, t_curr = t_curr, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_curr**2))
    assert ramp_binds > 0 and cap_binds > 0
