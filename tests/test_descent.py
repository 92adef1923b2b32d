"""The window line-search driver: the state it carries, its NaN screens and
the oracle work one outer iteration costs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kldescent import descent
from kldescent.catalog import make_problem
from kldescent.descent import descend
from kldescent.errors import InvalidInputError
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import CompositeProblem, make_least_squares, zero_oracle
from kldescent.pgenls import PgenlsConfig, pgenls_solve


def quad_1d():
    f = make_least_squares(np.array([[1.0]]), np.array([0.0]))
    return CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)


def scripted(trials_merits):
    """A trial generator that offers the ``(merit, decrement)`` pairs of
    ``trials_merits`` in turn, each at ``x - 1``, and on acceptance returns
    a row for that candidate."""
    def trials(it, gamma0):
        cand = it.x - 1.0
        step = cand - it.x
        for j, (merit, dec) in enumerate(trials_merits):
            grad_next = yield (float(j + 1), cand, merit, dec)
            if grad_next is not None:
                yield (merit, merit, math.nan, 1.0, 1.0, step, float(step @ step))
    return trials


def test_nan_merit_is_rejected_not_raised():
    # the driver screens a NaN merit before the window's test and goes on
    # to the next trial
    trace = descend(quad_1d(), np.array([4.0]), NpgConfig(m=0, max_outer=1),
                    scripted([(math.nan, 0.0), (1.0, 0.0)]),
                    algorithm="npg_major", problem_id="", seed=None)
    assert trace.column("j_inner").tolist() == [-1, 1]
    assert trace.column("gamma")[1] == 2.0


def test_nan_decrement_raises():
    with pytest.raises(InvalidInputError, match="NaN"):
        descend(quad_1d(), np.array([4.0]), NpgConfig(m=0, max_outer=1),
                scripted([(1.0, math.nan)]),
                algorithm="npg_major", problem_id="", seed=None)


def recomputed_gamma(config, x, x_prev, grad, grad_prev):
    """The Barzilai-Borwein start from operands computed afresh: the step
    ``x - x_prev``, its squared norm and ``grad - grad_prev``."""
    if config.gamma_init_rule == "constant" or grad_prev is None:
        return config.gamma_min
    dx = x - x_prev
    dg = grad - grad_prev
    denom = float(dx @ dx)
    if denom == 0.0:
        return config.gamma_min
    ratio = float(dx @ dg) / denom
    if not math.isfinite(ratio):
        return config.gamma_min
    return float(min(max(ratio, config.gamma_min), config.gamma_max))


RULES = {
    "default": {},
    "constant": {"gamma_init_rule": "constant"},
    "nesterov": {"beta_init_rule": "nesterov"},
}
CARRY_RUNS = [
    (pid, alg, rule)
    for alg, pids in (("npg_major", ("quad-l1", "l0-ls", "l1-l2-dc", "power4-1d")),
                      ("pgenls", ("lasso", "l0-ls", "power4-1d")),
                      ("pgnls", ("lasso", "quad-l1", "power4-1d")))
    for pid in pids
    for rule in RULES
    if not (alg == "npg_major" and rule == "nesterov")
]


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("problem_id, algorithm, rule", CARRY_RUNS)
def test_carried_step_is_the_recomputed_one(monkeypatch, problem_id, algorithm, rule, m):
    # The driver hands each iteration the accepted step and its squared norm
    # instead of computing them again; both, and the start they give, must
    # be bit for bit what the recomputation gives.
    seen = []
    start = descent.initial_gamma

    def recording(config, it):
        gamma0 = start(config, it)
        seen.append((it.k, it.step, it.step_sq, it.x, it.x_prev, it.grad, it.grad_prev,
                     gamma0))
        return gamma0

    monkeypatch.setattr(descent, "initial_gamma", recording)
    inst = make_problem(problem_id, {"seed": 1})
    if algorithm == "npg_major":
        config = NpgConfig(m=m, max_outer=400, **RULES[rule])
        trace = npg_solve(inst.problem, inst.x0, config)
    else:
        plain = {"delta": 0.0, "beta_max": 0.0} if algorithm == "pgnls" else {}
        config = PgenlsConfig(m=m, max_outer=400, **plain, **RULES[rule])
        trace = pgenls_solve(inst.problem, inst.x0, config)
    xs = trace.X
    assert [s[0] for s in seen] == list(range(len(xs) - 1))
    for k, step, step_sq, x, x_prev, grad, grad_prev, gamma0 in seen:
        d = xs[k] - xs[max(k - 1, 0)]
        assert step.tobytes() == d.tobytes(), k
        assert np.float64(step_sq).tobytes() == np.float64(float(d @ d)).tobytes(), k
        again = recomputed_gamma(config, x, x_prev, grad, grad_prev)
        assert np.float64(gamma0).tobytes() == np.float64(again).tobytes(), k


def first_iterations(solve, problem, x0, config, calls, k):
    """Oracle calls of the first ``k`` outer iterations: the same solve
    stopped after ``k`` steps takes the same path up to there."""
    before = dict(calls)
    solve(problem, x0, replace(config, max_outer=k))
    return {name: calls[name] - before[name] for name in calls}


def test_power4_gradient_once_per_trial_and_once_per_step(counted):
    # x^4/4 is not quadratic: each extrapolated trial needs grad f(y), and
    # the accepted candidate's gradient is one more call.  The trials of an
    # iteration whose weight is capped at 0 share grad f(x), known from k = 1
    # and computed once at k = 0.
    inst = make_problem("power4-1d")
    f, calls = counted(inst.problem.f)
    trace = pgenls_solve(replace(inst.problem, f=f), inst.x0, PgenlsConfig(m=0, max_outer=500))
    iterations = len(trace) - 1
    betas, js = trace.column("beta")[1:], trace.column("j_inner")[1:]
    trials = sum(j + 1 for j in js)
    extrapolated = sum(j + 1 for beta, j in zip(betas, js) if beta > 0.0)
    assert 0 < extrapolated < trials
    assert calls["gradient"] == extrapolated + iterations + (betas[0] == 0.0)
    assert calls["value"] == trials + 1  # and once at x^0


@pytest.mark.parametrize("m", [0, 5])
def test_lasso_value_once_per_trial_gradient_once_per_step(counted, m):
    # A quadratic f extrapolates grad f(y), so from k = 2 on the only
    # gradient call of an iteration is the accepted candidate's.
    inst = make_problem("lasso", {"seed": 0})
    f, calls = counted(inst.problem.f)
    problem, config = replace(inst.problem, f=f), PgenlsConfig(m=m)
    trace = pgenls_solve(problem, inst.x0, config)
    iterations = len(trace) - 1
    trials = sum(j + 1 for j in trace.column("j_inner")[1:])
    assert iterations > 2
    assert calls["value"] == trials + 1  # and once at x^0
    total = dict(calls)
    early = first_iterations(pgenls_solve, problem, inst.x0, config, calls, 2)
    assert total["gradient"] - early["gradient"] <= iterations - 2
