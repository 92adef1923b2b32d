"""Nonmonotone proximal gradient with extrapolation for ``F = f + g``.

The method tracks the paired state ``z^k = (x^k, x^{k-1})`` and the
proximity-augmented merit ``F_delta(z) = F(x) + (delta/2) ||x - u||^2``.
Each outer iteration extrapolates ``y = x + beta (x - u)``, takes a proximal
gradient step at ``y``, and accepts when

    F_delta(cand, x) <= max window F_delta
                        - (alpha*gamma/2) ||cand - x||^2
                        - (alpha*delta/2) ||x - u||^2.

On rejection the stepsize weight grows (``gamma *= rho``) while the
extrapolation weight shrinks (``beta *= nu``); requiring ``nu < 1/rho`` makes
the product ``gamma_j * beta_j`` decay geometrically, which keeps the inertial
term harmless in the limit.  Setting ``delta = 0``, ``beta_max = 0`` and
``m = 0`` recovers the classical monotone backtracking proximal gradient
method.

The first trial weight ``gamma0`` comes from
:func:`kldescent.descent.initial_gamma`.  Its Barzilai-Borwein estimate
(the default ``spectral`` rule) sees the curvature of ``f`` alone, while
the acceptance test charges every candidate the proximity term
``(delta/2) ||cand - x||^2`` in full.  So after an iteration that rejected
its first trial, the next one starts at
``min(max(gamma0, delta/2), gamma_max)``; after one accepted at its first
trial it keeps ``gamma0``, so the window can still accept long steps from a
small ``gamma``.  The convergence theory admits any start in
``[gamma_min, gamma_max]``, and at ``delta = 0`` (``pgnls``) the floor is
inert.

For a quadratic ``f`` (``SmoothOracle.quadratic``) the gradient at ``y`` is
extrapolated as ``grad f(x) + beta (grad f(x) - grad f(u))``, as in SpaRSA,
instead of computed: the trials of an iteration call the gradient oracle at
most once, and not at all once ``grad f(u)`` is known (from ``k = 2``).

This module owns the extrapolated step: its config, the trial schedule of
``(gamma, beta)``, the extrapolated candidates with their decrement, the
proximity-augmented merit and the stationarity residual.  The window line
search around it is :func:`kldescent.descent.descend`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .descent import Iterate, checked_penalty, descend
from .domains import check
from .errors import InvalidInputError
from .oracles import CompositeProblem, Vector, as_vector
from .trace import Trace

__all__ = ["PgenlsConfig", "decrease_constant", "decrement", "degenerate_decrease",
           "f_delta", "inner_schedule", "pgenls_solve", "pg_residual"]


def decrease_constant(alpha: float, delta: float, gamma_min: float) -> float:
    """Audited sufficient-decrease constant.

    ``(alpha/2) * min(gamma_min, delta)`` for the paired state; with
    ``delta = 0`` the audit covers the x-block only, where the acceptance
    test still forces ``(alpha/2) * gamma_min``.
    """
    if delta > 0.0:
        return 0.5 * alpha * min(gamma_min, delta)
    return 0.5 * alpha * gamma_min


def decrement(alpha: float, delta: float, gamma, step_sq, inertia_sq):
    """Forcing decrement ``(alpha/2) (gamma ||cand - x||^2 + delta ||x - u||^2)``
    of a trial with weight ``gamma``; elementwise on arrays."""
    return 0.5 * alpha * (gamma * step_sq + delta * inertia_sq)


def degenerate_decrease(delta: float, beta_max: float) -> bool:
    """True when extrapolation is on without a proximity term, so the
    paired-state decrease constant degenerates to the x-block one."""
    return delta == 0.0 and beta_max > 0.0


@dataclass(frozen=True)
class PgenlsConfig:
    m: int = 5
    delta: float = 1.0
    alpha: float = 0.5
    gamma_min: float = 1e-2
    gamma_max: float = 1e10
    beta_max: float = 0.9
    rho: float = 2.0
    nu: float = 0.25
    max_outer: int = 10000
    max_inner: int = 60
    tol_step: float = 1e-8
    tol_resid: float = 1e-8
    gamma_init_rule: str = "spectral"
    beta_init_rule: str = "constant"

    def __post_init__(self):
        check("pgenls", **vars(self))
        if degenerate_decrease(self.delta, self.beta_max):
            warnings.warn(
                "delta=0 with beta_max>0: the paired-state decrease constant is "
                "degenerate; audits fall back to the x-block only",
                UserWarning, stacklevel=2,
            )


def f_delta(problem: CompositeProblem, x: Vector, u: Vector, delta: float) -> float:
    """Proximity-augmented objective ``F(x) + (delta/2) ||x - u||^2``."""
    x = as_vector(x, "x")
    u = as_vector(u, "u")
    check("residual", delta=delta)
    d = x - u
    return problem.objective(x) + 0.5 * float(delta) * float(d @ d)


def inner_schedule(gamma0: float, beta0: float, rho: float, nu: float, j: int):
    """Trial pair ``(gamma0 * rho^j, beta0 * nu^j)`` for inner trial ``j``."""
    return gamma0 * rho**j, beta0 * nu**j


def _residual(grad_x: Vector, grad_y: Vector, gamma: float, x_minus_y: Vector,
              delta: float, dxp: Vector, step_norm: float) -> float:
    top = grad_x - grad_y - gamma * x_minus_y + delta * dxp
    return math.sqrt(float(top.dot(top)) + (delta * step_norm) ** 2)


def _gradient_and_step(problem: CompositeProblem, it: Iterate,
                       inertia: Vector) -> tuple[Vector, Vector]:
    """``(grad f(x), grad f(x) - grad f(u))`` at the paired state ``(x, u)``.

    Calls the oracle only for a gradient ``it`` does not know, and stores
    neither in ``it``: the Barzilai-Borwein start must see only the gradients
    of accepted steps.  With no inertia, ``u = x`` and the difference is 0.
    """
    grad_x = it.grad if it.grad is not None else problem.f.gradient(it.x)
    if it.grad_prev is not None:
        grad_u = it.grad_prev
    elif inertia.any():
        grad_u = problem.f.gradient(it.x_prev)
    else:
        grad_u = grad_x
    return grad_x, grad_x - grad_u


def pg_residual(problem: CompositeProblem, x_curr: Vector, y_curr: Vector,
                x_prev: Vector, gamma_prev: float, delta: float) -> float:
    """Stationarity residual of the paired state after an extrapolated step.

    Norm of the exhibited merit subgradient
    ``(grad f(x) - grad f(y) - gamma (x - y) + delta (x - x_prev),
    delta (x_prev - x))``.
    """
    x_curr = as_vector(x_curr, "x_curr")
    y_curr = as_vector(y_curr, "y_curr")
    x_prev = as_vector(x_prev, "x_prev")
    check("residual", gamma_prev=gamma_prev, delta=delta)
    dxp = x_curr - x_prev
    return _residual(problem.f.gradient(x_curr), problem.f.gradient(y_curr), gamma_prev,
                     x_curr - y_curr, delta, dxp, math.sqrt(float(dxp @ dxp)))


def pgenls_solve(problem: CompositeProblem, x0: Vector,
                 config: PgenlsConfig | None = None, *, problem_id: str = "",
                 seed: Optional[int] = None, algorithm_label: str = "pgenls") -> Trace:
    """Run the extrapolated proximal gradient from the bootstrap pair
    ``(x^0, x^0)``; see :func:`kldescent.descent.descend` for the stopping
    rules.

    Problems carrying a concave ``-h`` term are rejected; use the DC solver
    for those.
    """
    config = config or PgenlsConfig()
    if problem.h is not None:
        raise InvalidInputError(
            "the extrapolated solver handles objectives f + g only; "
            "this problem has a concave term"
        )
    delta = config.delta
    alpha = config.alpha
    nesterov = config.beta_init_rule == "nesterov"
    t_prev = t_curr = 1.0  # Nesterov counters
    quadratic = problem.f.quadratic
    gradient, value, prox = problem.f.gradient, problem.f.value, problem.g.prox
    rejected_start = False  # did the last iteration reject its first trial?

    def trials(it: Iterate, gamma0: float):
        nonlocal t_prev, t_curr, rejected_start
        if rejected_start:
            gamma0 = min(max(gamma0, 0.5 * delta), config.gamma_max)
        x, inertia, inertia_sq = it.x, it.step, it.step_sq
        if nesterov:
            beta0 = float(min(max((t_prev - 1.0) / t_curr, 0.0), config.beta_max))
        else:
            beta0 = config.beta_max
        grad_step = None  # grad f(x) - grad f(x_prev), once a quadratic f needs it
        for j in itertools.count():
            gamma, beta = inner_schedule(gamma0, beta0, config.rho, config.nu, j)
            if beta == 0.0:
                y = x
                if it.grad is None:
                    it.grad = gradient(x)
                grad_y = it.grad
            else:
                y = x + beta * inertia
                if quadratic:
                    if grad_step is None:
                        grad_x, grad_step = _gradient_and_step(problem, it, inertia)
                    grad_y = grad_x + beta * grad_step
                else:
                    grad_y = gradient(y)
            cand = prox(y - grad_y / gamma, gamma)
            g_cand = checked_penalty(problem, cand, it.k)
            F_cand = float(value(cand) + g_cand)
            diff = cand - x
            step_sq = float(diff.dot(diff))
            merit = F_cand + 0.5 * delta * step_sq
            grad_next = yield (gamma, cand, merit,
                               decrement(alpha, delta, gamma, step_sq, inertia_sq))
            if grad_next is not None:
                rejected_start = j > 0
                if nesterov:
                    t_prev, t_curr = t_curr, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_curr**2))
                step_norm = math.sqrt(step_sq)
                yield (F_cand, merit, beta, step_norm,
                       _residual(grad_next, grad_y, gamma, cand - y, delta, diff, step_norm),
                       diff, step_sq)

    return descend(problem, x0, config, trials, algorithm=algorithm_label,
                   problem_id=problem_id, seed=seed)
