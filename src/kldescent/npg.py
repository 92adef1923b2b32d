"""Nonmonotone proximal descent for objectives ``F = f + g - h``.

Each outer iteration linearizes the concave part ``-h`` at the current point
through one deterministic subgradient, then backtracks a proximal-gradient
step on the majorized model until the candidate passes a GLL-window
acceptance test

    F(cand) <= max window F  -  ((alpha*delta*gamma + (1-alpha)*c)/2) ||cand - x||^2

with the trial weight ``gamma`` doubled (factor ``rho``) on every rejection.
The guaranteed sufficient-decrease constant of an accepted run is
:func:`decrease_constant`.

This module owns the majorized step: its config, the linearization, the
trial candidates with their decrement, the surrogate-duality merit recorded
in the trace and the stationarity residual.  The window line search around
it is :func:`kldescent.descent.descend`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .descent import Iterate, checked_penalty, descend
from .domains import check
from .oracles import CompositeProblem, Vector
from .trace import Trace

__all__ = ["NpgConfig", "decrease_constant", "decrement", "npg_solve"]


def decrease_constant(alpha: float, delta: float, gamma_min: float, c: float) -> float:
    """Sufficient-decrease constant guaranteed for every accepted majorized
    step: the :func:`decrement` of a unit step at weight ``gamma_min``."""
    return decrement(alpha, delta, c, gamma_min, 1.0)


def decrement(alpha: float, delta: float, c: float, gamma, step_sq):
    """Forcing decrement ``((alpha*delta*gamma + (1-alpha)*c)/2) ||cand - x||^2``
    of a trial with weight ``gamma``; elementwise on arrays."""
    return 0.5 * (alpha * delta * gamma + (1.0 - alpha) * c) * step_sq


@dataclass(frozen=True)
class NpgConfig:
    m: int = 5
    gamma_min: float = 1e-2
    gamma_max: float = 1e10
    rho: float = 2.0
    delta: float = 0.5
    alpha: float = 1.0
    c: float = 1.0
    max_outer: int = 10000
    max_inner: int = 60
    tol_step: float = 1e-8
    tol_resid: float = 1e-8
    gamma_init_rule: str = "spectral"

    def __post_init__(self):
        check("npg_major", **vars(self))


def _residual(grad_next: Vector, grad: Vector, gamma: float, diff: Vector,
              step_norm: float) -> float:
    """Stationarity residual after a majorized step ``diff`` at weight ``gamma``:
    the norm of the merit subgradient ``(grad_next - grad - gamma diff, diff)``."""
    top = grad_next - grad - gamma * diff
    return math.sqrt(float(top.dot(top)) + step_norm**2)


def npg_solve(problem: CompositeProblem, x0: Vector, config: NpgConfig | None = None,
              *, problem_id: str = "", seed: Optional[int] = None) -> Trace:
    """Run the majorized proximal descent from ``x0``; see
    :func:`kldescent.descent.descend` for the stopping rules."""
    config = config or NpgConfig()

    def trials(it: Iterate, gamma0: float):
        x = it.x
        if problem.h is not None:
            xi = -problem.h.subgradient(x)
        else:
            xi = np.zeros_like(x)
        direction = it.grad + xi
        for j in itertools.count():
            gamma = gamma0 * config.rho**j
            cand = problem.g.prox(x - direction / gamma, gamma)
            g_cand = checked_penalty(problem, cand, it.k)
            f_cand = problem.f.value(cand)
            h_cand = problem.h.value(cand) if problem.h is not None else 0.0
            F_cand = float(f_cand + g_cand - h_cand)
            diff = cand - x
            step_sq = float(diff.dot(diff))
            grad_next = yield (gamma, cand, F_cand,
                               decrement(config.alpha, config.delta, config.c, gamma, step_sq))
            if grad_next is not None:
                theta = float(f_cand + g_cand - it.h + xi @ diff)
                it.h = float(h_cand)
                step_norm = math.sqrt(step_sq)
                yield (F_cand, theta, math.nan, step_norm,
                       _residual(grad_next, it.grad, gamma, diff, step_norm), diff, step_sq)

    return descend(problem, x0, config, trials, algorithm="npg_major",
                   problem_id=problem_id, seed=seed)
