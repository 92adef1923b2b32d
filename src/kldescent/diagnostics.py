"""Trace audits for the nonmonotone descent framework, plus rate fitting.

Every check here consumes a :class:`~kldescent.trace.Trace` (columns only, no
oracles) and returns a small record with a worst-case violation.  Each reads
the solver constants from the trace's config snapshot through
:func:`derive_audit_inputs`, which looks them up and derives a missing
``a``: the snapshot is checked when the :class:`~kldescent.trace.Trace` is
built and is read-only.  A check takes no more than the Lipschitz bound,
``tau``, ``mu`` and ``kbar``.
Checks use plain floating-point comparisons with a scale-aware slack
``1e-10 * (1 + max |merit|)`` so that exact-by-construction inequalities
pass and corrupted traces fail.

Audited conditions, in the order they strengthen each other:

* ``h1``   - window sufficient decrease: each new merit sits below the window
  maximum by at least ``a * step^2``.
* ``acceptance`` - the per-iteration form of h1 with the accepted stepsize
  weight instead of the worst-case constant.
* ``ell``  - the stored window argmax column is the one the merits give,
  ties going to the latest index.
* ``h3``   - the solver's merit sandwich: objective <= merit <= window max
  plus a curvature slack (for extrapolated traces the merit is the objective
  plus the proximity term), and the residual/step ratio stays under an
  explicit cap.
* ``bbar_cap`` - the worst upward merit move per squared step stays under
  the Lipschitz bound (DC traces only).
* ``h4``   - window gap control: merits inside a window stay within a
  combination of one step length and the path length to the window peak.
* ``series`` - window-peak merits never rise, and once a run stops on its
  tolerance the last decile of each of the series from :func:`xi_gamma`
  carries at most 1% of its sum; the tail test is not applied (``null``)
  at a ``stationary`` stop, where the series are finite sums, or when that
  decile holds fewer than 4 points.
* ``prop_bound`` - path length between consecutive window peaks is bounded by
  the peak-gap series, with an explicit constant from :func:`c_constant`.

``rate`` is no gate: :func:`fit_rate` classifies the tail of the step-length
sequence as linear, sublinear or finite termination.  The checks
:func:`build_report` runs work on whole columns, with no loop over the rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import npg, pgenls
from ._version import __version__
from .domains import check
from .errors import (
    FrameworkViolationError,
    InsufficientTraceError,
    InvalidInputError,
)
from .oracles import CompositeProblem, Vector, as_vector
from .trace import Trace

__all__ = [
    "xi_gamma", "check_h1", "check_acceptance", "recompute_ell", "theta_dc",
    "verify_theta", "check_h3", "estimate_bbar", "BbarEstimate", "check_h4",
    "c_constant", "check_prop_bound", "fit_decay", "fit_rate",
    "estimate_lipschitz", "series_tails", "AuditRecord", "DiagnosticsReport",
    "derive_audit_inputs", "build_report",
]

_RADICAND_FLOOR = -1e-12

# The share of each series, at its end, that the tail test reads: the last decile.
_SERIES_TAIL = 0.1
# The fewest points the last decile of each series must hold for the tail
# test to gate, so runs of 30 iterations or fewer get no verdict.  Over
# 1688 catalog runs stopped on their tolerance (default configs at m 0 to
# 8, seeds 0 to 9, and other alpha, delta and c at m 1, 3 and 5), every
# run whose tail held 4 points or more carried at most 7e-5 of each sum in
# it; with 1 to 3 points the largest passing tail was 0.8% and 14 correct
# runs carried more than 1%.
_SERIES_MIN_TAIL = 4

def _phi_slack(phi: np.ndarray) -> float:
    return 1e-10 * (1.0 + float(np.max(np.abs(phi))))


def _phi(trace: Trace) -> np.ndarray:
    """Merit audited by the descent framework: F for the DC solver, the
    proximity-augmented objective (merit column) otherwise."""
    return trace.column("F" if trace.algorithm == "npg_major" else "merit")


def _framework_steps(trace: Trace, delta: float) -> np.ndarray:
    """Per-row step of the audited sequence: for the extrapolated solver,
    whose framework runs on the paired state ``(x^k, x^{k-1})``, two
    consecutive x-moves combined, unless its proximity weight ``delta`` is 0."""
    s = trace.column("step_norm")
    if trace.algorithm == "npg_major" or delta == 0.0:
        return s
    prev = np.concatenate([[0.0], s[:-1]])
    return np.sqrt(s * s + prev * prev)


@dataclass
class AuditRecord:
    name: str
    passed: Optional[bool]      # None when the check could not be evaluated
    max_violation: Optional[float] = None
    details: dict = field(default_factory=dict)


class BbarEstimate(NamedTuple):
    value: float
    degenerate: bool  # every step in the trace was zero


# ---------------------------------------------------------------------------
# series


def xi_gamma(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Window-peak step series ``Xi`` and peak-gap series ``Gamma``.

    ``Xi[k]`` is the step length into the window peak at iterate ``k``
    (``||x^{l(k)} - x^{l(k)-1}||``); ``Gamma[k] = sqrt(merit(peak_k) -
    merit(peak_{k+1}))``.  Peak merits are nonincreasing by construction, so
    a radicand below ``-1e-12`` means the trace violates the framework and
    raises; tiny negatives are clipped to 0.
    """
    if len(trace) == 0:
        raise InvalidInputError("empty trace")
    phi = _phi(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    xi = s[ell]
    gaps = phi[ell[:-1]] - phi[ell[1:]]
    if gaps.size and float(np.min(gaps)) < _RADICAND_FLOOR:
        k_bad = int(np.argmin(gaps))
        raise FrameworkViolationError(
            f"window-peak merit increases at k={k_bad}: gap {float(np.min(gaps)):.3e}"
        )
    gamma = np.sqrt(np.maximum(gaps, 0.0))
    return xi, gamma


def _tail_points(size: int) -> int:
    """Points in the last decile of a series of ``size`` points (at least one)."""
    return max(1, math.ceil(_SERIES_TAIL * size))


def series_tails(values: np.ndarray) -> tuple[float, float]:
    """Total of ``values`` and the fraction contributed by its last decile
    (``_SERIES_TAIL``, at least one point)."""
    total = float(np.sum(values))
    if values.size == 0 or total <= 0.0:
        return total, 0.0
    return total, float(np.sum(values[-_tail_points(values.size):])) / total


# ---------------------------------------------------------------------------
# descent conditions


def _window_decrease(trace: Trace, name: str, decrement) -> AuditRecord:
    """Test ``merit_{k+1} + decrement_k <= merit(peak_k)`` within the audit slack;
    ``decrement`` maps the step-norm column to the decrements of rows ``1..K``."""
    phi = _phi(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    if len(trace) < 2:
        return AuditRecord(name, True, 0.0, {"checked": 0})
    v = phi[1:] + decrement(s) - phi[ell[:-1]]
    worst = float(np.max(v))
    slack = _phi_slack(phi)
    return AuditRecord(name, bool(worst <= slack), max(worst, -slack),
                       {"checked": int(v.size), "slack": slack,
                        "worst_k": int(np.argmax(v))})


def check_h1(trace: Trace) -> AuditRecord:
    """Window sufficient decrease with the guaranteed constant ``a``."""
    a = derive_audit_inputs(trace)["a"]
    return _window_decrease(trace, "h1", lambda s: a * s[1:] ** 2)


def check_acceptance(trace: Trace) -> AuditRecord:
    """Re-check the accepted inequality with each iteration's own stepsize
    weight; not evaluated (``None``) when the snapshot lacks ``alpha``,
    ``delta`` or, for the DC solver, ``c``."""
    inputs = derive_audit_inputs(trace)
    alpha, delta, c = inputs["alpha"], inputs["delta"], inputs["c"]
    dc = trace.algorithm == "npg_major"
    if alpha is None or delta is None or (dc and c is None):
        return AuditRecord("acceptance", None)
    gam = trace.column("gamma")[1:]
    if not dc:
        return _window_decrease(trace, "acceptance", lambda s: pgenls.decrement(
            alpha, delta, gam, s[1:] ** 2, s[:-1] ** 2))
    return _window_decrease(trace, "acceptance",
                            lambda s: npg.decrement(alpha, delta, c, gam, s[1:] ** 2))


def recompute_ell(trace: Trace) -> AuditRecord:
    """Re-derive the window argmax column from merits and count mismatches.

    Walks the window offsets oldest first, so that ``>=`` hands ties to the
    latest index; every pass is one column wide, so memory does not grow
    with ``m``.
    """
    m = derive_audit_inputs(trace)["m"]
    phi = _phi(trace)
    n = len(phi)
    pos = np.arange(n)
    best_idx = np.maximum(pos - m, 0)
    best_val = phi[best_idx]
    for d in range(min(m, n - 1), -1, -1):  # candidate i = k - d for k >= d
        take = phi[: n - d] >= best_val[d:]
        best_val[d:] = np.where(take, phi[: n - d], best_val[d:])
        best_idx[d:] = np.where(take, pos[: n - d], best_idx[d:])
    mismatches = int(np.count_nonzero(best_idx != trace.column("ell")))
    return AuditRecord("ell", mismatches == 0, float(mismatches),
                       {"mismatches": mismatches})


def theta_dc(problem: CompositeProblem, x_prev: Vector, x_curr: Vector,
             xi: Vector) -> float:
    """Surrogate-duality merit of the paired state ``(x_curr, xi)``.

    Evaluates ``f(x_curr) + g(x_curr) - h(x_prev) + <xi, x_curr - x_prev>``
    where ``-xi`` is the subgradient of ``h`` selected at ``x_prev``; with no
    ``h`` term this reduces to the plain objective.
    """
    x_prev = as_vector(x_prev, "x_prev")
    x_curr = as_vector(x_curr, "x_curr")
    xi = as_vector(xi, "xi")
    val = problem.f.value(x_curr) + problem.g.value(x_curr)
    if problem.h is not None:
        val -= problem.h.value(x_prev)
    return float(val + xi @ (x_curr - x_prev))


def verify_theta(trace: Trace, problem: CompositeProblem) -> AuditRecord:
    """Recompute the stored merit column of a DC trace from oracles; ``xi`` is
    minus the subgradient of ``h`` at the previous iterate, as in the solver."""
    if trace.algorithm != "npg_major":
        raise InvalidInputError("theta verification applies to DC traces only")
    if trace.dimension == 0:
        raise InsufficientTraceError("row 0 has no stored iterate")
    worst = 0.0
    for x_prev, x_curr, merit in zip(trace.X, trace.X[1:], trace.column("merit")[1:].tolist()):
        xi = (-problem.h.subgradient(x_prev) if problem.h is not None
              else np.zeros_like(x_prev))
        recomputed = theta_dc(problem, x_prev, x_curr, xi)
        worst = max(worst, abs(recomputed - merit))
    phi = _phi(trace)
    slack = _phi_slack(phi)
    return AuditRecord("theta", worst <= slack, worst, {"slack": slack})


def check_h3(trace: Trace, lipschitz: Optional[float]) -> AuditRecord:
    """Merit sandwich plus the residual/step ratio cap.

    For DC traces: ``F(x^{k+1}) <= merit^{k+1} <= F(peak_k) + (L/2) step^2``
    and ``b_hat <= 1 + L + gamma_star``.  For extrapolated traces the merit is
    the audited objective itself, so the right side needs no curvature slack;
    the left side is the merit's definition ``|merit - F - (delta/2) step^2|``
    and the cap is ``sqrt(2) * (L + gamma_star + 2 delta)``, with ``delta`` the
    run's proximity weight and ``gamma_star`` the largest accepted stepsize
    weight.  ``lipschitz`` is taken as an upper bound; without it, or without
    ``gamma_star``, there is no cap.  In the degenerate proximity-free case
    with extrapolation on (``details["degenerate"]``) the step does not
    control the extrapolation offset the residual was built from: the ratio
    is still reported but does not gate.
    """
    inputs = derive_audit_inputs(trace)
    delta = inputs["delta"] or 0.0
    is_dc = trace.algorithm == "npg_major"
    degenerate = not is_dc and pgenls.degenerate_decrease(delta, inputs["beta_max"])
    gam = trace.column("gamma")
    gamma_star = float(np.nanmax(gam)) if np.any(np.isfinite(gam)) else None
    phi = _phi(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    fsteps = _framework_steps(trace, delta)
    merit = trace.column("merit")
    resid = trace.column("residual")
    slack = _phi_slack(phi)

    details: dict = {"gamma_star": gamma_star, "degenerate": degenerate}
    if len(trace) < 2:
        return AuditRecord("h3", True, 0.0, {"checked": 0, **details})

    if is_dc:
        left = phi[1:] - merit[1:]  # phi is F
    else:
        left = np.abs(merit[1:] - trace.column("F")[1:] - 0.5 * delta * s[1:] ** 2)
    if is_dc and lipschitz is not None:
        sigma = 0.5 * lipschitz * s[1:] ** 2
        right = merit[1:] - phi[ell[:-1]] - sigma
        details["sigma_max"] = float(np.max(sigma))
    elif is_dc:
        right = None  # needs a curvature bound
    else:
        right = merit[1:] - phi[ell[:-1]]
        details["sigma_max"] = 0.0

    mask = fsteps[1:] > 0.0
    ratios = resid[1:][mask] / fsteps[1:][mask]
    b_hat = float(np.max(ratios)) if ratios.size else 0.0
    details["b_hat"] = b_hat

    cap = None
    if lipschitz is not None and gamma_star is not None:
        if is_dc:
            cap = 1.0 + lipschitz + gamma_star
        else:
            cap = math.sqrt(2.0) * (lipschitz + gamma_star + 2.0 * delta)
    details["b_cap"] = cap
    details["b_cap_enforced"] = not degenerate and cap is not None

    worst_left = max(float(np.max(left)) if len(left) else 0.0, -slack)
    details["left_max_violation"] = worst_left
    if right is None:
        details["right_max_violation"] = None
        return AuditRecord("h3", None, worst_left, details)
    worst_right = max(float(np.max(right)), -slack)
    details["right_max_violation"] = worst_right
    ok = worst_left <= slack and worst_right <= slack
    if details["b_cap_enforced"]:
        ok = ok and b_hat <= cap * (1.0 + 1e-10)
    return AuditRecord("h3", bool(ok), max(worst_left, worst_right), details)


def estimate_bbar(trace: Trace) -> BbarEstimate:
    """Worst upward merit move per squared step: ``max(0, max 2 dPhi / step^2)``.

    Merit increases below the column's floating-point resolution
    (``1e-13 * (1 + max |merit|)``, ~500x the rounding noise of a stored
    float64 difference) are measurement artifacts, not real moves: near
    convergence the squared step shrinks past that resolution and the ratio
    of pure noise to ``step^2`` diverges.  Genuine window-permitted increases
    sit well above the floor and enter the max unchanged.
    """
    phi = _phi(trace)
    s = trace.column("step_norm")
    if len(trace) < 2:
        return BbarEstimate(0.0, True)
    mask = s[1:] > 0.0
    if not np.any(mask):
        return BbarEstimate(0.0, True)
    dphi = (phi[1:] - phi[:-1])[mask]
    resolvable = dphi > 1e-13 * (1.0 + float(np.max(np.abs(phi))))
    if not np.any(resolvable):
        return BbarEstimate(0.0, False)
    with np.errstate(divide="ignore", over="ignore"):  # a square that underflows: inf
        ratios = 2.0 * dphi[resolvable] / s[1:][mask][resolvable] ** 2
    return BbarEstimate(max(0.0, float(np.max(ratios))), False)


def check_h4(trace: Trace, tau: float, mu: float, kbar: int) -> AuditRecord:
    """Window gap control between consecutive window peaks.

    For each ``k >= kbar`` and interior index ``i`` strictly between the
    previous and current window peaks, require

        sqrt(peak merit - merit_i) <= tau sqrt(a) step_i
                                      + mu * (path length from i to the peak).

    The measured gap carries the merit column's rounding noise, which the
    square root amplifies far above the linear audit slack (a slack-sized
    gap of ``1e-10 * scale`` turns into ``1e-5 * sqrt(scale)``), so the
    slack is deducted inside the radical before comparing.  With ``m = 0``
    every interior range is empty and the check passes vacuously.  A NaN
    margin is the worst one, so a NaN step fails the check.
    """
    a = derive_audit_inputs(trace)["a"]
    check("audit", tau=tau, mu=mu, kbar=kbar)
    phi = _phi(trace)
    ell = trace.column("ell")
    s = trace.column("step_norm")
    csum = np.concatenate([[0.0], np.cumsum(s)])  # csum[i] = sum s[:i]
    slack = _phi_slack(phi)
    # the (k, i) pairs in row order: k from kbar up, i inside each window
    ks = np.arange(kbar, len(trace))
    counts = np.maximum(ell[ks] - ell[ks - 1] - 1, 0)
    k = np.repeat(ks, counts)
    first = np.cumsum(counts) - counts
    i = ell[k - 1] + 1 + np.arange(k.size) - np.repeat(first, counts)
    if k.size == 0:
        return AuditRecord("h4", True, 0.0,
                           {"checked": 0, "vacuous": True, "tau": tau, "mu": mu,
                            "kbar": kbar})
    peak = ell[k]
    gap = phi[peak] - phi[i] - slack
    lhs = np.sqrt(gap, out=np.zeros_like(gap), where=gap > 0.0)
    v = lhs - (tau * math.sqrt(a) * s[i] + mu * (csum[peak + 1] - csum[i + 1]))
    w = int(np.argmax(v))
    return AuditRecord("h4", bool(v[w] <= slack), max(float(v[w]), -slack),
                       {"checked": int(k.size), "vacuous": False, "slack": slack,
                        "worst_k": int(k[w]), "worst_i": int(i[w]),
                        "tau": tau, "mu": mu, "kbar": kbar})


def c_constant(mu: float, tau: float, a: float, m: int) -> float:
    """Path-length constant ``c(mu, tau, a, m)``.

    With ``mu_bar = mu / (sqrt(a) (1 - tau))``::

        c = (m+1) (1+mu_bar)^(m-1)
            * max( 1 / (sqrt(a) (1 - tau)),  (1+mu_bar)^(1-m) + mu_bar )

    ``inf`` when ``c`` is beyond the float range, as long windows make it.
    """
    check("audit", tau=tau, mu=mu, a=a, m=m)
    denom = math.sqrt(a) * (1.0 - tau)
    mu_bar = mu / denom
    try:
        grow = (1.0 + mu_bar) ** (m - 1)
        return (m + 1) * grow * max(1.0 / denom, 1.0 / grow + mu_bar)
    except (OverflowError, ZeroDivisionError):  # grow beyond the float range, or 0
        return math.inf


def check_prop_bound(trace: Trace, tau: float, mu: float, kbar: int) -> AuditRecord:
    """Path length between consecutive window peaks versus the peak-gap series.

    For each ``k >= kbar``::

        sum of steps over rows (peak_{k-1}, peak_k]
            <= c * ( sum_{j=k-m-1}^{k-1} Gamma_j  +  Xi_k )

    A NaN margin is the worst one, so a NaN step fails the check.  The check
    is not evaluated on a trace shorter than ``kbar``, nor when ``c`` is
    beyond the float range, where it bounds nothing.
    """
    inputs = derive_audit_inputs(trace)
    m = check("audit", m=inputs["m"], kbar=kbar)["m"]  # the rule kbar > m
    c = c_constant(mu, tau, inputs["a"], m)
    if not math.isfinite(c):
        return AuditRecord("prop_bound", None, None, {"c": c})
    xi, gamma = xi_gamma(trace)
    k = np.arange(kbar, len(trace))
    if k.size == 0:
        return AuditRecord("prop_bound", None, None, {"c": c})
    ell = trace.column("ell")
    csum = np.concatenate([[0.0], np.cumsum(trace.column("step_norm"))])
    gsum = np.concatenate([[0.0], np.cumsum(gamma)])
    v = (csum[ell[k] + 1] - csum[ell[k - 1] + 1]) - c * ((gsum[k] - gsum[k - m - 1]) + xi[k])
    w = int(np.argmax(v))
    slack = _phi_slack(_phi(trace))
    return AuditRecord("prop_bound", bool(v[w] <= slack), max(float(v[w]), -slack),
                       {"checked": int(k.size), "slack": slack, "c": c,
                        "worst_k": int(k[w])})


# ---------------------------------------------------------------------------
# rate fitting


def fit_decay(ks: np.ndarray, values: np.ndarray) -> dict:
    """Least-squares fits of ``log values`` against ``k`` and ``log k``.

    Returns the geometric ratio ``rho = exp(slope)`` of the linear model and
    the raw slope of the power model, each with its R^2.
    """
    ks = np.asarray(ks, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if ks.size != values.size or ks.size < 2:
        raise InvalidInputError("need at least two (k, value) pairs to fit")
    if np.any(values <= 0.0) or np.any(ks <= 0.0):
        raise InvalidInputError("decay fitting needs positive indices and values")
    y = np.log(values)

    def ols(x):
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_res = float(resid @ resid)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        return float(slope), r2

    lin_slope, r2_lin = ols(ks)
    pow_slope, r2_pow = ols(np.log(ks))
    return {"rho": math.exp(lin_slope), "r2_lin": r2_lin,
            "pow_slope": pow_slope, "r2_pow": r2_pow}


_STEP_FLOOR = 1e-13
# least R^2 of the chosen model for a linear or sublinear verdict; the rate
# fits of the canned suite reach 0.92 or more, oscillating tails 0.46-0.70
_R2_FLOOR = 0.8


def fit_rate(trace: Trace) -> dict:
    """Classify the tail decay of a trace: finite / linear / sublinear.

    Fits the per-iteration step-length sequence rather than distances to the
    final iterate: the final iterate is itself short of the limit, which
    systematically steepens distance-based fits on slowly converging runs,
    while step lengths are free of that bias.  For a geometric tail the step
    ratio equals the error ratio; for a power tail ``step ~ k^p`` the error
    behaves like ``k^(p+1)``, so the reported ``slope`` is the power-model
    slope plus one.  The first 20% of iterations are dropped as transient and
    steps at the floating-point floor are excluded; the fit uses the last
    contiguous stretch of usable points.  When the chosen model's R^2 is
    below 0.8 the verdict is ``inconclusive``, with the fits still reported.
    """
    out = {"verdict": "inconclusive", "rho": None, "slope": None, "theta": None,
           "r2_lin": None, "r2_pow": None, "points": 0}
    K = len(trace) - 1
    if K < 1:
        return out
    s = trace.column("step_norm")[1:]
    ks = np.arange(1, K + 1, dtype=np.float64)

    if s[-1] <= _STEP_FLOOR:
        out["verdict"] = "finite-termination"
        return out
    if trace.terminated not in ("tolerance", "stationary") and len(trace) < 100:
        return out  # short, never converged

    start = max(1, math.ceil(0.2 * K))
    usable = (ks >= start) & (s > _STEP_FLOOR)
    if not np.any(usable):
        return out
    # last contiguous stretch of usable points: the last start and end of a run
    begin, end = np.flatnonzero(np.diff(np.concatenate(([0], usable, [0]))))[-2:]
    ks_fit, s_fit = ks[begin:end], s[begin:end]
    out["points"] = int(ks_fit.size)
    if ks_fit.size < 10:
        return out

    fits = fit_decay(ks_fit, s_fit)
    out["rho"] = fits["rho"]
    out["r2_lin"] = fits["r2_lin"]
    out["r2_pow"] = fits["r2_pow"]
    out["slope"] = fits["pow_slope"] + 1.0
    # calling a tail polynomial needs the power model to win clearly;
    # anything closer is reported as the geometric fit, and a model that
    # explains the tail poorly gives no verdict
    if fits["r2_pow"] >= fits["r2_lin"] + 0.02:
        if fits["r2_pow"] >= _R2_FLOOR:
            out["verdict"] = "sublinear"
            if out["slope"] < 0.0:
                out["theta"] = (1.0 - out["slope"]) / (1.0 - 2.0 * out["slope"])
    elif fits["r2_lin"] >= _R2_FLOOR:
        out["verdict"] = "linear"
    return out


def estimate_lipschitz(problem: CompositeProblem, trace: Trace) -> Optional[float]:
    """Largest gradient-difference ratio over consecutive trace iterates.

    A lower bound on the Lipschitz constant of the gradient, not an upper
    one, so :func:`build_report` does not call it: no audit gates on it.
    """
    if trace.dimension == 0:
        return None
    best = 0.0
    seen = False
    grad_prev = None
    for x, step in zip(trace.X, trace.column("step_norm").tolist()):
        grad = problem.f.gradient(x)
        if grad_prev is not None and step > 0.0:
            best = max(best, float(np.linalg.norm(grad - grad_prev)) / step)
            seen = True
        grad_prev = grad
    return best if seen else None


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class DiagnosticsReport:
    fields: dict

    def passed(self) -> bool:
        return all(v is not False for k, v in self.fields.items()
                   if k.endswith(".pass"))

    def failures(self) -> list[str]:
        return sorted(k[: -len(".pass")] for k, v in self.fields.items()
                      if k.endswith(".pass") and v is False)

    def to_json(self) -> str:
        return json.dumps(self.fields, sort_keys=True, indent=2) + "\n"


def _clean(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    v = float(v)
    return v if math.isfinite(v) else None


def _put(fields: dict, prefix: str, rec: AuditRecord, *keys: str) -> None:
    """Write ``rec`` into ``fields`` under ``prefix``: its verdict as ``pass``
    and each named key, ``max_violation`` or a detail (null when absent)."""
    values = {"max_violation": rec.max_violation, **rec.details}
    fields[f"{prefix}.pass"] = rec.passed
    for key in keys:
        fields[f"{prefix}.{key}"] = _clean(values.get(key))


def derive_audit_inputs(trace: Trace) -> dict:
    """Look up the audit constants of ``trace`` in its config snapshot, the
    only place they are read.

    The snapshot was checked when the trace was built (``gamma_min`` only
    when it has no ``a``).  ``a`` is the snapshot's own ``a`` when it has
    one, else the solver's :func:`~kldescent.npg.decrease_constant` or
    :func:`~kldescent.pgenls.decrease_constant` of the snapshot's ``alpha``,
    ``delta``, ``gamma_min`` and (``npg_major``) ``c``, derived and checked
    here, since it can underflow to 0.  ``m`` and ``a`` must resolve, and
    ``delta`` too for traces not made by ``npg_major``; ``alpha``, ``c`` and
    a DC trace's ``delta`` stay ``None`` when the snapshot lacks them, and
    ``beta_max`` is then 0 (no extrapolation).  To audit with other
    constants, give the trace another snapshot, e.g.
    ``dataclasses.replace(trace, config=...)``.
    """
    cfg = trace.config
    if not cfg:
        raise InsufficientTraceError(
            "audit constants unavailable: the trace has no config snapshot")

    def require(name):
        if cfg.get(name) is None:
            raise InsufficientTraceError(f"config snapshot is missing {name!r}")
        return cfg[name]

    dc = trace.algorithm == "npg_major"
    a = cfg.get("a")
    if a is None:
        names = ("alpha", "delta", "gamma_min") + (("c",) if dc else ())
        a = (npg if dc else pgenls).decrease_constant(*map(require, names))
    inputs = {"m": require("m"), "a": a, "alpha": cfg.get("alpha"),
              "delta": cfg.get("delta") if dc else require("delta"), "c": cfg.get("c"),
              "beta_max": 0.0 if cfg.get("beta_max") is None else cfg["beta_max"]}
    if cfg.get("a") is None:
        inputs["a"] = check("audit", a=a)["a"]
    return inputs


def build_report(trace: Trace, *, problem: Optional[CompositeProblem] = None,
                 lipschitz: Optional[float] = None,
                 tau: float = 0.5, mu: Optional[float] = None,
                 kbar: Optional[int] = None) -> DiagnosticsReport:
    """Run every applicable audit on ``trace`` and assemble the flat report.

    The solver constants (``m``, ``a``, ``alpha``, ``delta``, ``c``,
    ``beta_max``) come from the trace's config snapshot alone, through
    :func:`derive_audit_inputs`.  The snapshot was checked when the trace
    was built and is read-only, so no check the report runs checks its
    ``alpha``, ``delta``, ``c``, ``beta_max`` or ``gamma_min`` again; ``a``,
    derived from a solver's snapshot, is checked at each derivation and in
    :func:`c_constant`, and ``m`` goes through the rule ``kbar > m``.
    The Lipschitz constant of the gradient of ``f`` is ``lipschitz`` if
    given, else the problem's ``lipschitz_hint``; either is taken as an upper
    bound.  With neither, ``constants.l_f`` and ``constants.b_cap`` are null
    and the checks that need them report ``pass = null``.  The ``h3`` ratio
    cap gates except in the degenerate proximity-free case.  When no ``mu``
    is given and the one fitted from ``b_bar`` is not finite, ``h4`` and
    ``prop_bound`` report ``pass = null``.  Checks that cannot be evaluated
    get ``pass = null`` and do not gate the overall verdict.  An empty
    trace, or a constant outside its domain (``kbar <= m`` included,
    whatever the trace length), raises ``InvalidInputError`` before any
    check runs.
    """
    if len(trace) == 0:
        raise InvalidInputError("empty trace")
    inputs = derive_audit_inputs(trace)
    m, a = inputs["m"], inputs["a"]

    if lipschitz is None and problem is not None:
        hint = problem.f.lipschitz_hint  # one read: a hand-built lipschitz_fn may not cache
        lipschitz = None if hint is None else float(hint)
    if kbar is None:
        kbar = m + 2
        check("audit", "the default m + 2 for ", kbar=kbar)  # names m + 2 if past int64
    optional = {"mu": mu, "lipschitz": lipschitz}
    kbar_eff = check("audit", tau=tau, m=m, kbar=kbar,
                     **{name: v for name, v in optional.items() if v is not None})["kbar"]

    fields: dict = {
        "version": __version__,
        "algorithm": trace.algorithm,
        "problem": trace.problem_id,
        "iterations": len(trace) - 1,
        "terminated": trace.terminated,
        "final_f": _clean(trace.column("F")[-1]),
        "final_residual": _clean(trace.column("residual")[-1]),
    }
    j_col = trace.column("j_inner")
    fields["constants.j_max"] = int(np.max(j_col)) if len(trace) > 1 else 0
    fields["constants.a"] = _clean(a)
    fields["constants.l_f"] = _clean(lipschitz)

    _put(fields, "h1", check_h1(trace), "max_violation")
    fields["h1.a"] = _clean(a)
    _put(fields, "acceptance", check_acceptance(trace), "max_violation")
    _put(fields, "ell", recompute_ell(trace), "mismatches")

    rec = check_h3(trace, lipschitz)
    _put(fields, "h3", rec, "left_max_violation", "right_max_violation", "sigma_max")
    fields["h1.degenerate_a"] = rec.details["degenerate"]
    fields["constants.gamma_star"] = _clean(rec.details["gamma_star"])
    fields["constants.b_hat"] = _clean(rec.details.get("b_hat"))
    fields["constants.b_cap"] = _clean(rec.details.get("b_cap"))
    fields["constants.b_cap_enforced"] = rec.details.get("b_cap_enforced", False)

    bbar = estimate_bbar(trace)
    fields["constants.b_bar"] = _clean(bbar.value)
    fields["constants.b_bar_degenerate"] = bool(bbar.degenerate)
    # The curvature cap on merit increases is a property of the majorized
    # scheme's objective sequence; the paired-state merit of the extrapolated
    # solver carries proximity terms it does not apply to.
    if (trace.algorithm == "npg_major" and lipschitz is not None
            and not bbar.degenerate):
        fields["bbar_cap.pass"] = bool(bbar.value <= lipschitz + 1e-8)
    else:
        fields["bbar_cap.pass"] = None

    mu_eff = mu if mu is not None else math.sqrt(0.5 * bbar.value)
    finite_mu = math.isfinite(mu_eff)  # b_bar is inf when a step's square underflows
    h4 = (check_h4(trace, tau, mu_eff, kbar_eff) if finite_mu
          else AuditRecord("h4", None, None, {"tau": tau, "mu": mu_eff, "kbar": kbar_eff}))
    _put(fields, "h4", h4, "max_violation", "vacuous", "worst_k", "worst_i", "tau", "mu",
         "kbar")

    try:
        xi, gamma_series = xi_gamma(trace)
    except FrameworkViolationError as exc:
        fields["series.error"] = str(exc)
        series = AuditRecord("series", False)
        prop = AuditRecord("prop_bound", False)  # no peak-gap series to bound by
    else:
        xi_sum, xi_tail = series_tails(xi)
        g_sum, g_tail = series_tails(gamma_series)
        concentrated = xi_tail <= 0.01 and g_tail <= 0.01
        # Gamma has one point fewer than Xi, so its tail is the shorter
        judged = (trace.terminated == "tolerance"
                  and _tail_points(gamma_series.size) >= _SERIES_MIN_TAIL)
        series = AuditRecord("series", concentrated if judged else None,
                             None, {"xi_sum": xi_sum, "gamma_sum": g_sum,
                                    "xi_tail_fraction": xi_tail,
                                    "gamma_tail_fraction": g_tail})
        prop = (check_prop_bound(trace, tau, mu_eff, kbar_eff) if finite_mu
                else AuditRecord("prop_bound", None))
    _put(fields, "series", series, "xi_sum", "gamma_sum", "xi_tail_fraction",
         "gamma_tail_fraction")
    _put(fields, "prop_bound", prop, "c", "max_violation")

    rate = fit_rate(trace)
    for key in ("verdict", "rho", "slope", "theta", "r2_lin", "r2_pow", "points"):
        fields[f"rate.{key}"] = _clean(rate[key])

    return DiagnosticsReport(fields)
