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
:func:`kldescent.descent.initial_gamma`: under the default ``spectral`` rule
from the curvature probe at ``x^0`` for ``k = 0`` and from the last step
after it, ``gamma_min`` under the ``constant`` rule.  This Barzilai-Borwein
estimate sees the curvature of ``f`` alone, while the acceptance test
charges every candidate the proximity term ``(delta/2) ||cand - x||^2`` in
full.  So after an iteration that rejected its first trial, the next one
starts at ``min(max(gamma0, delta/2), gamma_max)``; after one accepted at
its first trial it keeps ``gamma0``, so the window can still accept long
steps from a small ``gamma``.  The convergence theory admits any start in
``[gamma_min, gamma_max]``, and at ``delta = 0`` (``pgnls``) the floor is
inert.

The first trial's extrapolation weight ``beta0`` (``beta_max``, or the
Nesterov ramp capped at it) is then capped, for ``delta > 0``, at the largest
weight for which two model candidates pass the ``m = 0`` test

    F(cand) + (delta/2) ||d||^2 <= F(x) + (delta/2) ||s||^2
                                   - (alpha/2) (gamma0 ||d||^2 + delta ||s||^2)

with ``d = cand - x`` and ``s = x - u``.  A candidate that is all inertia,
``d = beta s`` with ``F`` flat, passes when ``beta^2 (delta + alpha gamma0)
<= (1 - alpha) delta``, so ``beta0 <= sqrt((1 - alpha) delta / (delta + alpha
gamma0))``; this cap binds for a large ``gamma0``.  A candidate that repeats
the last step, ``d = s`` with ``F`` linear along it (so ``grad f = -gamma0
(1 - beta) s``), passes when ``gamma0 (1 - beta) >= (alpha/2) (gamma0 +
delta)``, so ``beta0 <= 1 - alpha (delta + gamma0) / (2 gamma0)``, and 0 when
that is negative; this cap binds for a small ``gamma0``, as on the flat tail
of ``power4-1d``.  A larger start passes only through window slack, and its
momentum costs iterations (2000x4000 ``lasso``, seed 1, ``m = 5``: 141
iterations from ``beta0 = 0.9``, 51 from the caps).  The convergence theory
admits any extrapolation weight the backtracking accepts; at ``delta = 0``
there is no cap.

At ``k = 0`` there is no inertia (``u = x^0``), so the first trial weight
is 0: ``y = x^0`` for every trial, the trials reuse ``grad f(x^0)``, and
row 1 records ``beta = 0``.  For a quadratic ``f``
(``SmoothOracle.quadratic``) the gradient at ``y`` is extrapolated as
``grad f(x) + beta (grad f(x) - grad f(u))``, as in SpaRSA, from the
gradient change the driver carries, instead of computed: the trials never
call the gradient oracle.

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

from .descent import DescentConfig, Iterate, check_decrease, checked_penalty, descend
from .domains import check
from .errors import InvalidInputError
from .oracles import CompositeProblem, Vector
from .trace import Trace

__all__ = ["PgenlsConfig", "decrease_constant", "decrement", "degenerate_decrease",
           "inner_schedule", "pgenls_solve"]


def decrease_constant(alpha: float, delta: float, gamma_min: float) -> float:
    """Audited sufficient-decrease constant: the smaller :func:`decrement` at
    weight ``gamma_min`` of a unit step and of a unit inertia for the paired
    state; with ``delta = 0`` the audit covers the x-block only, where the
    acceptance test still forces the unit step's."""
    x_block = decrement(alpha, delta, gamma_min, 1.0, 0.0)
    return min(x_block, decrement(alpha, delta, gamma_min, 0.0, 1.0)) if delta > 0.0 else x_block


def decrement(alpha: float, delta: float, gamma, step_sq, inertia_sq):
    """Forcing decrement ``(alpha/2) (gamma ||cand - x||^2 + delta ||x - u||^2)``
    of a trial with weight ``gamma``; elementwise on arrays."""
    return 0.5 * alpha * (gamma * step_sq + delta * inertia_sq)


def degenerate_decrease(delta: float, beta_max: float) -> bool:
    """True when extrapolation is on without a proximity term, so the
    paired-state decrease constant degenerates to the x-block one."""
    return delta == 0.0 and beta_max > 0.0


@dataclass(frozen=True)
class PgenlsConfig(DescentConfig):
    delta: float = 1.0
    alpha: float = 0.5
    beta_max: float = 0.9
    nu: float = 0.25
    beta_init_rule: str = "constant"

    def __post_init__(self):
        check("pgenls", **vars(self))
        fields = dict(alpha=self.alpha, delta=self.delta, gamma_min=self.gamma_min)
        check_decrease(decrease_constant(**fields), **fields)
        if degenerate_decrease(self.delta, self.beta_max):
            warnings.warn(
                "delta=0 with beta_max>0: the paired-state decrease constant is "
                "degenerate; audits fall back to the x-block only",
                UserWarning, stacklevel=2,
            )


def inner_schedule(gamma0: float, beta0: float, rho: float, nu: float, j: int):
    """Trial pair ``(gamma0 * rho^j, beta0 * nu^j)`` for inner trial ``j``."""
    return gamma0 * rho**j, beta0 * nu**j


def _residual(grad_x: Vector, grad_y: Vector, gamma: float, x_minus_y: Vector,
              delta: float, dxp: Vector, step_norm: float) -> float:
    """Stationarity residual after an extrapolated step, ``dxp = x - x_prev``:
    the norm of the merit subgradient
    ``(grad_x - grad_y - gamma (x - y) + delta dxp, -delta dxp)``."""
    top = grad_x - grad_y - gamma * x_minus_y + delta * dxp
    return math.sqrt(float(top.dot(top)) + (delta * step_norm) ** 2)


def pgenls_solve(problem: CompositeProblem, x0: Vector,
                 config: PgenlsConfig | None = None, *, problem_id: str = "",
                 seed: Optional[int] = None, algorithm_label: str = "pgenls") -> Trace:
    """Run the extrapolated proximal gradient from the bootstrap pair
    ``(x^0, x^0)``; see :func:`kldescent.descent.descend` for the stopping
    rules.

    Problems carrying a concave ``-h`` term are rejected, in a message that
    names ``algorithm_label`` and ``problem_id`` (when given); use the DC
    solver for those.
    """
    config = config or PgenlsConfig()
    if problem.h is not None:
        named = f" problem {problem_id!r}" if problem_id else ""
        raise InvalidInputError(f"algorithm {algorithm_label!r} cannot handle{named}: "
                                "the objective has a concave term; use npg_major")
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
        if it.k == 0:  # no inertia yet: x^{-1} = x^0
            beta0 = 0.0
        elif nesterov:
            beta0 = float(min(max((t_prev - 1.0) / t_curr, 0.0), config.beta_max))
        else:
            beta0 = config.beta_max
        if delta > 0.0:  # the two window caps of the module docstring
            beta0 = max(min(beta0, math.sqrt((1.0 - alpha) * delta / (delta + alpha * gamma0)),
                            1.0 - 0.5 * alpha * (delta + gamma0) / gamma0), 0.0)
        for j in itertools.count():
            gamma, beta = inner_schedule(gamma0, beta0, config.rho, config.nu, j)
            if beta == 0.0:
                y, grad_y = x, it.grad
            else:
                y = x + beta * inertia
                grad_y = it.grad + beta * it.grad_step if quadratic else gradient(y)
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
