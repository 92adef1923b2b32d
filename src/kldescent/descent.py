"""Window line-search driver shared by ``npg_major`` and ``pgenls``.

Both solvers are instances of one GLL-type scheme.  From the current iterate
they try stepsize weights ``gamma0 * rho**j`` for ``j = 0, 1, ...`` and accept
the first candidate whose merit sits below the maximum of the last ``m + 1``
merits minus a forcing decrement.  This module owns what the two share:

- the config fields of the line search (:class:`DescentConfig`);
- the Barzilai-Borwein start ``gamma0`` of each trial loop
  (:func:`initial_gamma`), at ``k = 0`` from one curvature probe at ``x^0``
  (:func:`probe_gamma`);
- the penalty check on each prox output (:func:`checked_penalty`);
- the solve loop (:func:`descend`): the start point, ``F(x^0)`` and
  ``grad f(x^0)``, the merit window, the row-0 trace record, the acceptance
  test and its :class:`~kldescent.errors.BacktrackingFailureError`, the trace
  rows, the rotation of the :class:`Iterate` and the three stopping rules,
  all under one error state in which a value past the float range is inf,
  with no warning.

A solver supplies its own parts as a trial generator for one outer
iteration, ``trials(it, gamma0)``.  Its body up to the first trial is the
per-iteration setup.  Each ``next()`` returns the next trial as
``(gamma, candidate, merit, decrement)``, where ``merit`` is the value the
window tests and stores.  ``send(grad_next)``, with ``grad_next`` the gradient
of ``f`` at the candidate, accepts the last trial and returns the rest of its
trace row, ``(f_value, merit, beta, step_norm, residual)``, followed by the
accepted step ``candidate - x`` and its squared norm.

Under the ``spectral`` rule the first start is measured, not ``gamma_min``:
with ``g0 = grad f(x^0)`` and ``d = -PROBE_SCALE (1 + ||x^0||) g0 / ||g0||``
the probe calls the gradient once more, at ``x^0 + d``, and ``k = 0`` starts
at the Barzilai-Borwein ratio ``<d, grad f(x^0 + d) - g0> / <d, d>``, clamped
(Barzilai & Borwein 1988; SpaRSA, Wright, Nowak & Figueiredo 2009).  It falls
back to ``gamma_min``, without the call, when ``g0`` is 0 or not finite, and
the constant rule makes no probe at all.

What the driver carries across iterations, in the :class:`Iterate`, is what
the next iteration reads: ``x^k``, the gradient at ``x^k`` (``grad f(x^0)``
from the start, so the gradient at ``x^0`` is computed once), the gradient
change ``grad f(x^k) - grad f(x^{k-1})``, formed once per accepted step, and
the accepted step with its squared norm.  The Barzilai-Borwein start reads
the step and the gradient change, ``pgenls`` its inertia and, for a
quadratic ``f``, its extrapolated gradient.  The step and its norm are the
very array and float the accepted trial computed, from the operands a
recomputation would use (``x^{k+1} - x^k`` is the trial's ``candidate -
x``), so carrying them changes no bit of any trace.  Nor does any other
saving here: the stopping scale ``1 + ||x^k||`` is formed only once the
residual passes its tolerance, a merit is screened for NaN once, before the
window's test, and ``a.dot(b)`` reaches the same float64 dot kernel as
``a @ b``.
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

__all__ = ["DescentConfig", "Iterate", "PROBE_SCALE", "initial_gamma", "probe_gamma",
           "check_decrease", "checked_penalty", "descend"]

# Length of the curvature probe at x^0 relative to 1 + ||x^0||.  A probe of
# 1e-3 measured worse off quadratics (lasso under pgenls at m = 0).
PROBE_SCALE = 1e-6


@dataclass(frozen=True)
class DescentConfig:
    """The fields :func:`descend` reads, in ``domains._SOLVER``'s order; each
    solver's config adds its own and checks them all against its ``RULES``."""

    m: int = 5
    gamma_min: float = 1e-2
    gamma_max: float = 1e10
    rho: float = 2.0
    max_outer: int = 10000
    max_inner: int = 60
    tol_step: float = 1e-8
    tol_resid: float = 1e-8
    gamma_init_rule: str = "spectral"


@dataclass(slots=True)
class Iterate:
    """The state outer iteration ``k`` starts from, at ``x^k``.

    :func:`descend` rotates ``x``, the step, the gradient and its change;
    the trial generator, for a concave term, updates ``h`` when its candidate
    is accepted.
    """

    k: int
    x: Vector
    h: float                             # h(x); 0 without a concave term
    step: Vector                         # x^k - x^{k-1}; zeros at k = 0
    step_sq: float                       # float(step @ step); 0.0 at k = 0
    grad: Vector                         # grad f(x)
    grad_step: Optional[Vector] = None   # grad f(x^k) - grad f(x^{k-1}); None at k = 0


Trials = Callable[[Iterate, float], Generator[tuple, Optional[Vector], None]]


def initial_gamma(config, dx: Vector, dx_sq: float, dg: Vector) -> float:
    """First trial weight: the Barzilai-Borwein curvature estimate
    ``<dx, dg> / <dx, dx>`` clamped to ``[gamma_min, gamma_max]``, where
    ``dg`` is the gradient change along ``dx`` and ``dx_sq`` the squared norm
    of ``dx``.

    :func:`descend` passes the probe pair of :func:`probe_gamma` at ``k = 0``
    and, from ``k = 1``, the carried step ``x^k - x^{k-1}`` with ``grad
    f(x^k) - grad f(x^{k-1})``, so both solvers start every iteration at a
    measured curvature.  ``gamma_min`` under the constant rule and when the
    estimate is undefined.
    """
    if config.gamma_init_rule == "constant" or dx_sq == 0.0:
        return config.gamma_min
    ratio = float(dx.dot(dg)) / dx_sq
    if not math.isfinite(ratio):
        return config.gamma_min
    return float(min(max(ratio, config.gamma_min), config.gamma_max))


def probe_gamma(config, gradient: Callable[[Vector], Vector], x0: Vector, g0: Vector) -> float:
    """First trial weight of ``k = 0``: :func:`initial_gamma` of the probe pair
    ``(x^0 + d, x^0)``, one gradient call at ``x^0 + d`` for the step
    ``d = -PROBE_SCALE (1 + ||x^0||) g0 / ||g0||`` against ``g0 = grad f(x^0)``.

    ``gamma_min``, with no call, when ``||g0||`` is 0 or either norm is not
    finite in float64.
    """
    with np.errstate(over="ignore"):  # an overflowing square is not finite
        g0_sq, x0_sq = float(g0.dot(g0)), float(x0.dot(x0))
    if not (0.0 < g0_sq < math.inf and x0_sq < math.inf):
        return config.gamma_min
    d = (-PROBE_SCALE * (1.0 + math.sqrt(x0_sq)) / math.sqrt(g0_sq)) * g0
    return initial_gamma(config, d, float(d.dot(d)), gradient(x0 + d) - g0)


def check_decrease(a: float, **fields) -> None:
    """Reject a solver config whose decrease constant ``a``, derived from
    ``fields``, is not positive (it underflows to 0 at a subnormal
    ``gamma_min``, say), naming the fields, before any solve."""
    if not a > 0.0:
        given = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        raise InvalidInputError(f"decrease constant a must be positive, got {a!r} from {given}")


def checked_penalty(problem: CompositeProblem, cand: Vector, k: int):
    """``g(cand)`` for a prox output, which must lie in the domain of ``g``."""
    g_cand = problem.g.value(cand)
    if not math.isfinite(g_cand):
        raise OracleInconsistencyError(
            f"prox output has non-finite penalty value at outer iteration {k}"
        )
    return g_cand


def descend(problem: CompositeProblem, x0: Vector, config: DescentConfig, trials: Trials, *,
            algorithm: str, problem_id: str, seed: Optional[int]) -> Trace:
    """Run the window line search from ``z^0 = (x^0, x^0)`` under ``config``, a
    solver's :class:`DescentConfig`, all of whose fields make the trace's snapshot.

    Stops when ``||x^{k+1} - x^k|| <= tol_step * (1 + ||x^k||)`` and the
    residual is at most ``tol_resid`` (``tolerance``), when an iterate repeats
    exactly (``stationary``), or after ``max_outer`` steps (``max_outer``).
    """
    x0 = as_vector(x0, "x0")
    if problem.dimension != x0.shape[0]:
        raise InvalidInputError(
            f"x0 has dimension {x0.shape[0]}, problem expects {problem.dimension}"
        )
    # a trial value past the float range is inf, which the window rejects
    with np.errstate(over="ignore"):
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

        gradient, accept = problem.f.gradient, window.accept
        it = Iterate(k=0, x=x0, h=float(h0), step=np.zeros_like(x0), step_sq=0.0,
                     grad=gradient(x0))
        gamma0 = config.gamma_min
        if config.gamma_init_rule == "spectral":
            gamma0 = probe_gamma(config, gradient, x0, it.grad)
        terminated = "max_outer"
        for k in range(config.max_outer):
            if k > 0:
                gamma0 = initial_gamma(config, it.step, it.step_sq, it.grad_step)
            steps = trials(it, gamma0)
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

            if step_norm == 0.0:
                terminated = "stationary"
                break
            if residual <= config.tol_resid and step_norm <= config.tol_step * (
                    1.0 + math.sqrt(float(it.x.dot(it.x)))):
                terminated = "tolerance"
                break

            it.k, it.x = k + 1, cand
            it.step, it.step_sq = step, step_sq
            it.grad_step, it.grad = grad_next - it.grad, grad_next
    return Trace(algorithm=algorithm, columns=dict(zip(CSV_COLUMNS, zip(*rows))), X=np.array(xs),
                 problem_id=problem_id, config=asdict(config), seed=seed,
                 terminated=terminated)
