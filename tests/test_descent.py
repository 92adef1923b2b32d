"""The window line-search driver: the state it carries, its NaN screens and
the oracle work one outer iteration costs."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from kldescent import descent
from kldescent.catalog import make_problem
from kldescent.descent import descend
from kldescent.errors import BacktrackingFailureError, InvalidInputError
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import CompositeProblem, SmoothOracle, make_least_squares, zero_oracle
from kldescent.pgenls import PgenlsConfig, pgenls_solve
from kldescent.trace import write_trace_csv


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


def recomputed_gamma(config, dx, dg):
    """The Barzilai-Borwein start from a step ``dx`` and a gradient
    difference ``dg``, its squared norm computed afresh."""
    if config.gamma_init_rule == "constant":
        return config.gamma_min
    denom = float(dx @ dx)
    if denom == 0.0:
        return config.gamma_min
    ratio = float(dx @ dg) / denom
    if not math.isfinite(ratio):
        return config.gamma_min
    return float(min(max(ratio, config.gamma_min), config.gamma_max))


def probe_step(x0, g0):
    """The probe step ``-1e-6 (1 + ||x^0||) g0 / ||g0||`` at ``x^0``."""
    return (-1e-6 * (1.0 + math.sqrt(float(x0 @ x0))) / math.sqrt(float(g0 @ g0))) * g0


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


def config_for(algorithm, **fields):
    if algorithm == "npg_major":
        return NpgConfig(**fields)
    plain = {"delta": 0.0, "beta_max": 0.0} if algorithm == "pgnls" else {}
    return PgenlsConfig(**plain, **fields)


def run(problem, x0, config):
    return (npg_solve if isinstance(config, NpgConfig) else pgenls_solve)(problem, x0, config)


def catalog_run(problem_id, algorithm, m, params=None, **fields):
    """``(instance, config, trace)`` of a catalog run, at seed 1 by default."""
    inst = make_problem(problem_id, {"seed": 1} if params is None else params)
    config = config_for(algorithm, m=m, **fields)
    return inst, config, run(inst.problem, inst.x0, config)


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("problem_id, algorithm, rule", CARRY_RUNS)
def test_carried_step_is_the_recomputed_one(monkeypatch, problem_id, algorithm, rule, m):
    # The driver hands each iteration the accepted step, its squared norm and
    # the gradient change along it instead of computing them again; all
    # three, and the start they give, must be bit for bit what the
    # recomputation from fresh gradients gives.  Under the spectral rule the
    # start of k = 0 comes from the probe pair at x^0, rebuilt here too.
    seen = []
    start = descent.initial_gamma

    def recording(config, dx, dx_sq, dg):
        gamma0 = start(config, dx, dx_sq, dg)
        seen.append((dx, dx_sq, dg, gamma0))
        return gamma0

    monkeypatch.setattr(descent, "initial_gamma", recording)
    inst, config, trace = catalog_run(problem_id, algorithm, m, max_outer=400, **RULES[rule])
    xs, f = trace.X, inst.problem.f
    if config.gamma_init_rule == "spectral":
        d, d_sq, dg, gamma0 = seen.pop(0)
        g0 = f.gradient(xs[0])
        assert d.tobytes() == probe_step(xs[0], g0).tobytes()
        assert np.float64(d_sq).tobytes() == np.float64(float(d @ d)).tobytes()
        fresh = f.gradient(xs[0] + d) - g0
        assert dg.tobytes() == fresh.tobytes()
        again = recomputed_gamma(config, d, fresh)
        assert np.float64(gamma0).tobytes() == np.float64(again).tobytes()
    assert len(seen) == len(xs) - 2
    for k, (step, step_sq, dg, gamma0) in enumerate(seen, start=1):
        d = xs[k] - xs[k - 1]
        assert step.tobytes() == d.tobytes(), k
        assert np.float64(step_sq).tobytes() == np.float64(float(d @ d)).tobytes(), k
        fresh = f.gradient(xs[k]) - f.gradient(xs[k - 1])
        assert dg.tobytes() == fresh.tobytes(), k
        again = recomputed_gamma(config, d, fresh)
        assert np.float64(gamma0).tobytes() == np.float64(again).tobytes(), k


def first_iterations(solve, problem, x0, config, calls, k):
    """Oracle calls of the first ``k`` outer iterations: the same solve
    stopped after ``k`` steps takes the same path up to there."""
    before = dict(calls)
    solve(problem, x0, replace(config, max_outer=k))
    return {name: calls[name] - before[name] for name in calls}


def test_power4_gradient_once_per_trial_and_once_per_step(counted):
    # x^4/4 is not quadratic: each extrapolated trial from k = 1 on needs
    # grad f(y), and the accepted candidate's gradient is one more call.  The
    # trials of k = 0, which has no inertia and so weight 0, and those of an
    # iteration whose weight is capped at 0 share grad f(x).  The driver computes grad f(x^0)
    # once, and the spectral probe makes one more call, at x^0 + d.
    inst = make_problem("power4-1d")
    f, calls = counted(inst.problem.f)
    trace = pgenls_solve(replace(inst.problem, f=f), inst.x0, PgenlsConfig(m=0, max_outer=500))
    iterations = len(trace) - 1
    betas, js = trace.column("beta")[1:], trace.column("j_inner")[1:]
    trials = sum(j + 1 for j in js)
    extrapolated = sum(j + 1 for beta, j in zip(betas, js) if beta > 0.0)
    assert betas[0] == 0.0
    assert 0 < extrapolated < trials
    assert calls["gradient"] == extrapolated + iterations + 2
    assert calls["value"] == trials + 1  # and once at x^0


@pytest.mark.parametrize("m", [0, 5])
def test_lasso_value_once_per_trial_gradient_once_per_step(counted, m):
    # A quadratic f extrapolates grad f(y), so the only gradient call of an
    # iteration is the accepted candidate's.
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


LEAST_SQUARES_RUNS = [
    (pid, algorithm)
    for algorithm, pids in (("npg_major", ("lasso", "quad-l1", "l0-ls", "l1-l2-dc")),
                            ("pgenls", ("lasso", "quad-l1", "l0-ls")))
    for pid in pids
]


@pytest.mark.parametrize("problem_id, algorithm", LEAST_SQUARES_RUNS)
def test_first_step_starts_at_the_probed_curvature(problem_id, algorithm):
    # From gamma_min = 0.01 row 1 backtracked through 7 to 10 doublings on
    # each of these runs; the probe's start needs at most one.
    for m in (0, 5):
        for seed in range(5):
            _, _, trace = catalog_run(problem_id, algorithm, m, {"seed": seed}, max_outer=1)
            assert trace.column("j_inner")[1] <= 1, (m, seed)


def no_probe(*args):
    raise AssertionError("the constant rule makes no probe")


# Constant-rule runs from gamma_min: oracle calls, and the SHA-256 of the
# trace CSV where it holds no BLAS result.  Both are those of the start
# before the probe existed.
CONSTANT_RUNS = [
    ("power4-1d", "npg_major", 5, {"value": 314, "gradient": 301, "residual": 0},
     "c40895ad6e3f38022283bdfcd9253609f5163ef01fd71bc7cd85fbff6cd7013d"),
    ("power4-1d", "pgenls", 0, {"value": 624, "gradient": 884, "residual": 0},
     "79e32f4a36c69686c1fcada942bcd401429c46ddf24e8d635cad284067a87377"),
    ("lasso", "npg_major", 5, {"value": 2006, "gradient": 301, "residual": 2006}, None),
    ("lasso", "pgenls", 5, {"value": 1038, "gradient": 301, "residual": 1038}, None),
    ("l1-l2-dc", "npg_major", 0, {"value": 267, "gradient": 35, "residual": 267}, None),
]


@pytest.mark.parametrize("problem_id, algorithm, m, expected, digest", CONSTANT_RUNS)
def test_constant_rule_makes_no_probe(monkeypatch, tmp_path, counted, problem_id, algorithm,
                                      m, expected, digest):
    monkeypatch.setattr(descent, "probe_gamma", no_probe)
    inst = make_problem(problem_id, {"seed": 0})
    f, calls = counted(inst.problem.f)
    config = config_for(algorithm, m=m, gamma_init_rule="constant", max_outer=300)
    trace = run(replace(inst.problem, f=f), inst.x0, config)
    assert calls == expected
    assert trace.column("gamma")[1] == config.gamma_min * config.rho ** trace.column("j_inner")[1]
    if digest is not None:
        path = write_trace_csv(trace, tmp_path / "trace.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("problem_id, algorithm", [
    ("lasso", "npg_major"), ("l1-l2-dc", "npg_major"), ("lasso", "pgenls"),
    ("quad-l1", "pgenls"), ("lasso", "pgnls"),
])
def test_spectral_rule_costs_one_gradient_call(problem_id, algorithm):
    # Each solve computes grad f(x^0) once and one gradient per accepted
    # step; the spectral rule adds exactly the probe's call, at x^0 + d.
    inst = make_problem(problem_id, {"seed": 0})
    points = []

    def gradient(x):
        points.append(x.copy())
        return inst.problem.f.gradient(x)

    problem = replace(inst.problem, f=replace(inst.problem.f, gradient=gradient))
    extra = {}
    for rule in ("constant", "spectral"):
        points.clear()
        trace = run(problem, inst.x0, config_for(algorithm, m=5, max_outer=300,
                                                  gamma_init_rule=rule))
        assert sum(p.tobytes() == inst.x0.tobytes() for p in points) == 1, rule
        extra[rule] = len(points) - (len(trace) - 1)
    assert extra == {"constant": 1, "spectral": 2}


@pytest.mark.parametrize("algorithm", ["npg_major", "pgenls"])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # trial steps
def test_probe_falls_back_to_gamma_min(counted, algorithm):
    # grad f(0) = 0 on x^4/4: no probe call, and the first trial from
    # gamma_min is the fixed point 0
    inst = make_problem("power4-1d", {"x0": 0.0})
    f, calls = counted(inst.problem.f)
    config = config_for(algorithm)
    trace = run(replace(inst.problem, f=f), inst.x0, config)
    assert trace.terminated == "stationary" and len(trace) == 2
    assert trace.column("gamma")[1] == config.gamma_min
    assert calls["gradient"] == 2  # at x^0 and at x^1
    # at 1e100 the squared norm of grad f = 1e300 overflows: the start is
    # gamma_min, and 60 doublings of it still step far past the minimizer
    inst = make_problem("power4-1d", {"x0": 1e100})
    with pytest.raises(BacktrackingFailureError) as exc:
        run(inst.problem, inst.x0, config)
    err = exc.value
    assert (err.k, err.j, err.gamma) == (0, 59, config.gamma_min * config.rho**59)
    assert str(err) == ("no acceptable step within 60 trials at outer iteration 0 "
                        "(last gamma 5.76461e+15)")


def test_negative_probe_curvature_clamps_to_gamma_min():
    # The value is x^2/2, but the gradient jumps up by 1 just below x^0 = 4,
    # so the probe's ratio <d, dg> / <d, d> is about -2e5.  A truthful
    # gradient gives the start 1 instead.
    truthful = make_least_squares(np.array([[1.0]]), np.array([0.0]))
    lying = SmoothOracle(value=truthful.value,
                         gradient=lambda x: x if x[0] >= 4.0 else x + 1.0)
    config = NpgConfig(m=0, max_outer=1)
    for f, gamma0 in ((lying, config.gamma_min), (truthful, 1.0)):
        problem = CompositeProblem(f=f, g=zero_oracle(), h=None, dimension=1)
        trace = npg_solve(problem, np.array([4.0]), config)
        j = trace.column("j_inner")[1]
        assert trace.column("gamma")[1] == pytest.approx(gamma0 * config.rho**j, rel=1e-9)
    assert j == 0
