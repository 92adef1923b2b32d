"""DC-majorization solver: worked steps, merit identities, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kldescent.errors import (
    BacktrackingFailureError,
    InvalidInputError,
    OracleInconsistencyError,
)
from kldescent.npg import NpgConfig, decrease_constant, npg_solve
from kldescent.oracles import (
    CompositeProblem,
    ProxOracle,
    SmoothOracle,
    l1_oracle,
    l2_norm_oracle,
    make_least_squares,
    zero_oracle,
)
from kldescent.catalog import make_problem


def quad_1d():
    """f(x) = x^2 / 2 as a 1-d least-squares instance."""
    f = make_least_squares(np.array([[1.0]]), np.array([0.0]))
    return CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)


def unit_box_indicator(x):
    """0 on the unit box [0, 1]^n, +inf outside it."""
    return 0.0 if np.all((x >= 0.0) & (x <= 1.0)) else math.inf


HALVING = NpgConfig(m=0, gamma_min=2.0, gamma_max=2.0, rho=2.0, delta=0.5,
                    alpha=1.0, gamma_init_rule="constant", tol_step=1e-12,
                    tol_resid=1e-12, max_outer=200)


def test_worked_halving_step():
    # x=4, gamma=2: cand = 4 - 4/2 = 2, accepted at j=0.
    trace = npg_solve(quad_1d(), np.array([4.0]), HALVING)
    F, gamma, j, step, resid = map(trace.column, ("F", "gamma", "j_inner", "step_norm",
                                                  "residual"))
    assert F[0] == 8.0 and step[0] == 0.0
    assert math.isnan(gamma[0]) and j[0] == -1 and math.isnan(resid[0])
    assert trace.X[1, 0] == 2.0
    assert F[1] == 2.0
    assert gamma[1] == 2.0 and j[1] == 0
    assert step[1] == 2.0
    # residual top block is -(x' - x) for this quadratic at gamma 2
    assert resid[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)


def test_halving_iterates_exact():
    trace = npg_solve(quad_1d(), np.array([4.0]), HALVING)
    xs = trace.iterates()[:, 0]
    ks = np.arange(len(xs))
    np.testing.assert_array_equal(xs, 4.0 * 0.5**ks)
    assert trace.terminated == "tolerance"


def test_worked_dc_step_with_linear_h_region():
    # F = x^2/2 - |x|; at x=4 the subgradient direction is exact, so the
    # surrogate merit equals F at the new point.
    p = CompositeProblem(f=quad_1d().f, g=zero_oracle(), h=l2_norm_oracle(1.0),
                        dimension=1)
    trace = npg_solve(p, np.array([4.0]), HALVING)
    # cand = 4 - (4 - 1)/2 = 2.5
    assert trace.X[1, 0] == 2.5
    assert trace.column("F")[1] == pytest.approx(0.625, abs=1e-15)
    assert trace.column("merit")[1] == pytest.approx(0.625, abs=1e-15)


def test_surrogate_merit_dominates_objective():
    inst = make_problem("l1-l2-dc", {"seed": 2})
    cfg = NpgConfig(m=5, max_outer=300)
    trace = npg_solve(inst.problem, inst.x0, cfg, problem_id="l1-l2-dc")
    F = trace.column("F")
    merit = trace.column("merit")
    assert np.all(merit[1:] >= F[1:] - 1e-12)


def test_monotone_when_memoryless():
    inst = make_problem("quad-l1", {"seed": 5})
    cfg = NpgConfig(m=0, max_outer=400)
    trace = npg_solve(inst.problem, inst.x0, cfg)
    F = trace.column("F")
    assert np.all(np.diff(F) <= 0.0)


def test_alpha_zero_uses_free_constant():
    # c = 3: decrement 6, candidate 2 == 8 - 6 accepted exactly at the boundary
    cfg = NpgConfig(m=0, gamma_min=2.0, gamma_max=2.0, delta=0.5, alpha=0.0,
                    c=3.0, gamma_init_rule="constant", max_outer=5)
    trace = npg_solve(quad_1d(), np.array([4.0]), cfg)
    assert trace.column("j_inner")[1] == 0 and trace.X[1, 0] == 2.0
    assert decrease_constant(cfg.alpha, cfg.delta, cfg.gamma_min, cfg.c) == 1.5
    # c = 3.5: decrement 7 rejects the first trial, gamma doubles to 4
    cfg = NpgConfig(m=0, gamma_min=2.0, gamma_max=4.0, delta=0.5, alpha=0.0,
                    c=3.5, gamma_init_rule="constant", max_outer=5)
    trace = npg_solve(quad_1d(), np.array([4.0]), cfg)
    assert trace.column("j_inner")[1] == 1 and trace.column("gamma")[1] == 4.0
    assert trace.X[1, 0] == 3.0


def test_sufficient_decrease_constant():
    assert decrease_constant(HALVING.alpha, HALVING.delta, HALVING.gamma_min,
                             HALVING.c) == pytest.approx(0.5)
    assert decrease_constant(alpha=0.5, delta=0.5, gamma_min=1.0, c=2.0) \
        == pytest.approx(0.5 * (0.5 * 0.5 * 1.0 + 0.5 * 2.0))


def test_spectral_restart_matches_quadratic_curvature():
    cfg = NpgConfig(m=0, gamma_min=1e-2, gamma_max=1e6, tol_step=1e-10,
                    tol_resid=1e-10, max_outer=50)
    trace = npg_solve(quad_1d(), np.array([4.0]), cfg)
    # the curvature estimate for f = x^2/2 is exactly 1 from iteration 2 on
    for gamma, j in zip(trace.column("gamma")[2:].tolist(), trace.column("j_inner")[2:].tolist()):
        assert gamma == pytest.approx(cfg.rho**j)


def test_spectral_start_applies_from_the_first_step():
    # The probe at x^0 gives step 0 (row 1) the Barzilai-Borwein estimate,
    # 1 for f = x^2/2 up to the rounding of x^0 + d, so it needs no doubling;
    # from step 1 (row 2) the carried step gives exactly 1.
    cfg = NpgConfig(m=0, gamma_min=1e-2, max_outer=3)
    trace = npg_solve(quad_1d(), np.array([4.0]), cfg)
    (_, g1, g2), (_, j1, j2) = (trace.column(name)[:3].tolist() for name in ("gamma", "j_inner"))
    assert j1 == 0 and g1 == pytest.approx(1.0, rel=1e-9)
    assert g2 == cfg.rho**j2


def test_stationary_exit_at_fixed_point():
    trace = npg_solve(quad_1d(), np.array([0.0]), HALVING)
    assert trace.terminated == "stationary"
    assert len(trace) == 2
    assert trace.column("step_norm")[1] == 0.0


def test_backtracking_failure_carries_location():
    lying = SmoothOracle(value=lambda x: 0.5 * float(x @ x),
                         gradient=lambda x: -10.0 * x)
    p = CompositeProblem(f=lying, g=zero_oracle(), h=None, dimension=1)
    cfg = NpgConfig(m=0, max_inner=5, gamma_min=1.0, gamma_init_rule="constant")
    with pytest.raises(BacktrackingFailureError) as exc:
        npg_solve(p, np.array([1.0]), cfg)
    err = exc.value
    assert err.k == 0
    assert err.j == 4
    assert err.gamma == pytest.approx(1.0 * cfg.rho**4)


def test_prox_leaving_domain_is_an_oracle_error():
    # a "prox" that ignores the box constraint it claims to model
    broken = ProxOracle(value=unit_box_indicator, prox=lambda v, gamma: v)
    f = make_least_squares(np.array([[1.0]]), np.array([5.0]))
    p = CompositeProblem(f=f, g=broken, h=None, dimension=1)
    with pytest.raises(OracleInconsistencyError, match="non-finite"):
        npg_solve(p, np.array([0.5]), NpgConfig(max_inner=3))


def test_infeasible_start_rejected():
    box = ProxOracle(value=unit_box_indicator, prox=lambda v, gamma: np.clip(v, 0.0, 1.0))
    p = CompositeProblem(f=quad_1d().f, g=box, h=None, dimension=1)
    with pytest.raises(InvalidInputError, match="domain"):
        npg_solve(p, np.array([2.0]), HALVING)


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInputError, match="dimension"):
        npg_solve(quad_1d(), np.array([1.0, 2.0]), HALVING)


@pytest.mark.parametrize("kwargs", [
    {"m": -1}, {"m": 1.5}, {"gamma_min": 0.0}, {"gamma_min": 2.0, "gamma_max": 1.0},
    {"rho": 1.0}, {"delta": 0.0}, {"delta": 1.0}, {"alpha": 1.2}, {"c": 0.0},
    {"max_outer": 0}, {"max_inner": 0}, {"tol_step": 0.0},
    {"gamma_init_rule": "bogus"}, {"max_outer": 2.5}, {"max_inner": 2.5},
    {"m": True}, {"max_outer": True}, {"tol_step": True}, {"alpha": True},
    {"gamma_min": "0.1"},
])
def test_config_validation(kwargs):
    with pytest.raises(InvalidInputError):
        NpgConfig(**kwargs)


def test_window_acceptance_vs_recorded_quantities():
    """Each accepted candidate respects the recorded window bound."""
    inst = make_problem("l0-ls", {"seed": 3})
    cfg = NpgConfig(m=4, max_outer=200)
    trace = npg_solve(inst.problem, inst.x0, cfg)
    F = trace.column("F")
    s = trace.column("step_norm")
    g = trace.column("gamma")
    for k in range(1, len(trace)):
        lo = max(0, k - 1 - cfg.m)
        peak = F[lo:k].max()
        dec = 0.5 * (cfg.alpha * cfg.delta * g[k]) * s[k] ** 2
        assert F[k] <= peak - dec + 1e-12 * (1.0 + abs(peak))


def test_l1_dc_run_reaches_stationarity():
    inst = make_problem("l1-l2-dc", {"seed": 7})
    cfg = NpgConfig(m=5, max_outer=3000, tol_step=1e-10, tol_resid=1e-6)
    trace = npg_solve(inst.problem, inst.x0, cfg, problem_id="l1-l2-dc", seed=7)
    assert trace.terminated in ("tolerance", "stationary")
    assert trace.column("residual")[-1] <= 1e-6
    # the sparsity pattern at the end is genuinely sparse
    nnz = int(np.count_nonzero(trace.X[-1]))
    assert 0 < nnz < inst.problem.dimension


def test_plain_l1_runs_without_h():
    inst = make_problem("lasso", {"seed": 0})
    p = CompositeProblem(f=inst.problem.f, g=l1_oracle(inst.params["lam"]),
                        h=None, dimension=inst.problem.dimension)
    trace = npg_solve(p, inst.x0, NpgConfig(m=3, max_outer=500))
    assert len(trace) > 2
    assert np.all(np.isfinite(trace.column("F")))


def test_one_gradient_per_iteration_from_the_cached_residual(counted):
    # one gradient at x^0 and one per accepted candidate, each right after
    # the value call at the same point, so none recomputes A x - b; the
    # spectral probe adds one gradient at x^0 + d, with its own residual
    inst = make_problem("l1-l2-dc", {"seed": 0})
    f, calls = counted(inst.problem.f)
    trace = npg_solve(replace(inst.problem, f=f), inst.x0, NpgConfig(m=5))
    assert trace.terminated == "tolerance"
    assert calls["gradient"] == len(trace) + 1  # iterations + 2
    assert calls["residual"] == calls["value"] + 1
