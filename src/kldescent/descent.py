"""Window line-search driver shared by ``npg_major`` and ``pgenls``.

Both solvers are instances of one GLL-type scheme.  From the current iterate
they try stepsize weights ``gamma0 * rho**j`` for ``j = 0, 1, ...`` and accept
the first candidate whose merit sits below the maximum of the last ``m + 1``
merits minus a forcing decrement.  This module owns what the two share:

- the Barzilai-Borwein start ``gamma0`` of each trial loop
  (:func:`initial_gamma`);
- the penalty check on each prox output (:func:`checked_penalty`);
- the solve loop (:func:`descend`): the start point and ``F(x^0)``, the merit
  window, the row-0 trace record, the acceptance test and its
  :class:`~kldescent.errors.BacktrackingFailureError`, the trace rows, the
  rotation of the :class:`Iterate` and the three stopping rules.

A solver supplies its own parts as a trial generator for one outer
iteration, ``trials(it, gamma0)``.  Its body up to the first trial is the
per-iteration setup.  Each ``next()`` returns the next trial as
``(gamma, candidate, merit, decrement)``, where ``merit`` is the value the
window tests and stores.  ``send(grad_next)``, with ``grad_next`` the gradient
of ``f`` at the candidate, accepts the last trial and returns the rest of its
trace row, ``(f_value, merit, beta, step_norm, residual)``, followed by the
accepted step ``candidate - x`` and its squared norm.

What the driver carries across iterations, in the :class:`Iterate`, is what
the next iteration would otherwise compute again: the gradients at ``x^k``
and ``x^{k-1}``, and the accepted step with its squared norm, which the
Barzilai-Borwein start and the inertia of ``pgenls`` read.  The step and its
norm are the very array and float the accepted trial computed, from the
operands a recomputation would use (``x^{k+1} - x^k`` is the trial's
``candidate - x``), so carrying them changes no bit of any trace.  Nor does
any other saving here: the stopping scale ``1 + ||x^k||`` is formed only
once the residual passes its tolerance, a merit is screened for NaN once,
before the window's test, and ``a.dot(b)`` reaches the same float64 dot
kernel as ``a @ b``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Generator, Optional

import numpy as np

from .errors import BacktrackingFailureError, InvalidInputError, OracleInconsistencyError
from .memory import MemoryWindow
from .oracles import CompositeProblem, Vector, as_vector
from .trace import CSV_COLUMNS, Trace

__all__ = ["Iterate", "initial_gamma", "checked_penalty", "descend"]


@dataclass(slots=True)
class Iterate:
    """The paired state ``(x^k, x^{k-1})`` an outer iteration starts from.

    :func:`descend` rotates ``x``, the step and the gradients; the trial
    generator computes ``grad`` where it first needs it and, for a concave
    term, updates ``h`` when its candidate is accepted.
    """

    k: int
    x: Vector
    x_prev: Vector                       # x^{k-1}; x^0 itself at k = 0
    h: float                             # h(x); 0 without a concave term
    step: Vector                         # x - x_prev; zeros at k = 0
    step_sq: float                       # float(step @ step); 0.0 at k = 0
    grad: Optional[Vector] = None        # grad f(x), once computed
    grad_prev: Optional[Vector] = None   # grad f(x_prev), if it was computed


Trials = Callable[[Iterate, float], Generator[tuple, Optional[Vector], None]]


def initial_gamma(config, it: Iterate) -> float:
    """First trial weight: the Barzilai-Borwein curvature estimate
    ``<dx, dg> / <dx, dx>`` clamped to ``[gamma_min, gamma_max]``, where
    ``dx = x - x_prev`` is the carried step, ``<dx, dx>`` its carried squared
    norm and ``dg = grad - grad_prev``.

    It needs the gradient at the previous iterate, so it falls back to
    ``gamma_min`` until one is known: ``npg_major`` knows it from ``k = 1``,
    ``pgenls`` from ``k = 1`` only when its first step did not extrapolate
    (``beta = 0``), else from ``k = 2``.  Also ``gamma_min`` under the
    constant rule and when the estimate is undefined.  ``pgenls`` raises this
    start to ``delta/2`` after a rejected first trial, and caps its first
    extrapolation weight for the resulting start ``gamma0`` at
    ``sqrt((1 - alpha) delta / (delta + alpha gamma0))`` and at
    ``1 - alpha (delta + gamma0) / (2 gamma0)`` (0 when negative): past either
    weight the ``m = 0`` test rejects a model candidate, one that is all
    inertia on a flat ``F`` (``beta^2 (delta + alpha gamma0) <= (1 - alpha)
    delta``) or one that repeats the last step on an ``F`` linear along it
    (``gamma0 (1 - beta) >= (alpha/2) (gamma0 + delta)``).  The floor and the
    caps live in :mod:`kldescent.pgenls`, since ``npg_major`` shares this
    function.
    """
    if config.gamma_init_rule == "constant" or it.grad_prev is None or it.step_sq == 0.0:
        return config.gamma_min
    ratio = float(it.step.dot(it.grad - it.grad_prev)) / it.step_sq
    if not math.isfinite(ratio):
        return config.gamma_min
    return float(min(max(ratio, config.gamma_min), config.gamma_max))


def checked_penalty(problem: CompositeProblem, cand: Vector, k: int):
    """``g(cand)`` for a prox output, which must lie in the domain of ``g``."""
    g_cand = problem.g.value(cand)
    if not math.isfinite(g_cand):
        raise OracleInconsistencyError(
            f"prox output has non-finite penalty value at outer iteration {k}"
        )
    return g_cand


def descend(problem: CompositeProblem, x0: Vector, config, trials: Trials, *,
            algorithm: str, problem_id: str, seed: Optional[int]) -> Trace:
    """Run the window line search from ``z^0 = (x^0, x^0)``.

    Stops when ``||x^{k+1} - x^k|| <= tol_step * (1 + ||x^k||)`` and the
    residual is at most ``tol_resid`` (``tolerance``), when an iterate repeats
    exactly (``stationary``), or after ``max_outer`` steps (``max_outer``).
    """
    x0 = as_vector(x0, "x0")
    if problem.dimension != x0.shape[0]:
        raise InvalidInputError(
            f"x0 has dimension {x0.shape[0]}, problem expects {problem.dimension}"
        )
    g0 = problem.g.value(x0)
    if not math.isfinite(g0):
        raise InvalidInputError("x0 lies outside the domain of the penalty term")
    f0 = problem.f.value(x0)
    h0 = problem.h.value(x0) if problem.h is not None else 0.0
    F0 = float(f0 + g0 - h0)

    window = MemoryWindow(config.m)
    window.push(0, F0)  # every merit of the bootstrap pair equals F(x^0)
    _, ell = window.window_max()
    rows = [(0, F0, F0, math.nan, math.nan, -1, ell, 0.0, math.nan)]  # CSV order
    xs = [x0]

    it = Iterate(k=0, x=x0, x_prev=x0, h=float(h0), step=np.zeros_like(x0), step_sq=0.0)
    gradient, accept = problem.f.gradient, window.accept
    terminated = "max_outer"
    for k in range(config.max_outer):
        steps = trials(it, initial_gamma(config, it))
        for j in range(config.max_inner):
            gamma, cand, merit, decrement = next(steps)
            if merit == merit and accept(merit, decrement):  # a NaN merit is rejected
                break
        else:
            raise BacktrackingFailureError(
                f"no acceptable step within {config.max_inner} trials at outer "
                f"iteration {k} (last gamma {gamma:.6g})",
                k=k, j=j, gamma=gamma,
            )
        grad_next = gradient(cand)
        f_value, row_merit, beta, step_norm, residual, step, step_sq = steps.send(grad_next)

        window.push(k + 1, merit)
        _, ell = window.window_max()
        rows.append((k + 1, f_value, row_merit, gamma, beta, j, ell, step_norm, residual))
        xs.append(cand)

        it.k = k + 1
        it.x_prev, it.x = it.x, cand
        it.step, it.step_sq = step, step_sq
        it.grad_prev, it.grad = it.grad, grad_next

        if step_norm == 0.0:
            terminated = "stationary"
            break
        if residual <= config.tol_resid and step_norm <= config.tol_step * (
                1.0 + math.sqrt(float(it.x_prev.dot(it.x_prev)))):
            terminated = "tolerance"
            break
    return Trace(algorithm=algorithm, columns=dict(zip(CSV_COLUMNS, zip(*rows))), X=np.array(xs),
                 problem_id=problem_id, config=asdict(config), seed=seed,
                 terminated=terminated)
