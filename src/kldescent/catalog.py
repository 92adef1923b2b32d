"""Canned problem catalog addressable by string identifiers.

Randomized instances draw every random quantity from a single
``numpy.random.default_rng(seed)`` generator (PCG64), so a given
``(id, params)`` pair always produces bit-identical data.  Matrices and
right-hand sides can instead be loaded from headerless CSV files via the
``A_csv`` / ``b_csv`` parameters.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidInputError
from .oracles import (
    CompositeProblem,
    Vector,
    l0_oracle,
    l1_oracle,
    l2_norm_oracle,
    make_least_squares,
    make_power4_1d,
    zero_oracle,
)

__all__ = ["ProblemInstance", "make_problem", "problem_ids", "describe_problems"]


@dataclass(frozen=True)
class ProblemInstance:
    """A catalog problem together with its suggested start point and metadata."""

    problem_id: str
    problem: CompositeProblem
    x0: Vector
    params: dict = field(default_factory=dict)


def _load_csv(path: str, what: str) -> np.ndarray:
    """The ``what`` ("matrix" or "vector") in the headerless CSV at ``path``,
    as a 2-D array; it must load and have finite entries."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"could not load {what} from {path!r}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise InvalidInputError(f"{what} loaded from {path!r} has non-finite entries")
    return data


_NOUNS = {numbers.Integral: "an integer", numbers.Real: "a real number", str: "a string"}


def _param(params: dict, name: str, kind: type, default=None):
    """``params[name]``, or ``default`` when absent; it must be an integer
    (``kind`` is ``numbers.Integral``), a real number (``numbers.Real``, returned
    as a float) or a string (``str``), and booleans are none of these."""
    value = params.get(name, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInputError(f"params.{name} must be {_NOUNS[kind]}, got {value!r}")
    if kind is numbers.Real:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise InvalidInputError(f"params.{name} must be finite, got {value!r}") from None
    return value


def _sparse_regression_data(params: dict, rows_default: int, cols_default: int):
    """Shared data generator: A (scaled Gaussian), b = A x_true + small noise."""
    if "A_csv" in params or "b_csv" in params:
        if not ("A_csv" in params and "b_csv" in params):
            raise InvalidInputError("A_csv and b_csv must be given together")
        A = _load_csv(_param(params, "A_csv", str), "matrix")
        b = _load_csv(_param(params, "b_csv", str), "vector").reshape(-1)
        if b.shape[0] != A.shape[0]:
            raise InvalidInputError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        return A, b
    if "seed" not in params:
        raise InvalidInputError("randomized problems require a 'seed' parameter")
    seed = int(_param(params, "seed", numbers.Integral))
    rows = int(_param(params, "rows", numbers.Integral, rows_default))
    cols = int(_param(params, "cols", numbers.Integral, cols_default))
    if rows <= 0 or cols <= 0:
        raise InvalidInputError(f"rows and cols must be positive, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols)) / np.sqrt(rows)
    x_true = np.zeros(cols)
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    b = A @ x_true + 0.01 * rng.standard_normal(rows)
    return A, b


def _lam_from(params: dict, A: np.ndarray, b: np.ndarray, factor_default: float) -> float:
    if "lam" in params:
        lam = _param(params, "lam", numbers.Real)
    else:
        lam = _param(params, "lam_factor", numbers.Real, factor_default) * float(
            np.max(np.abs(A.T @ b))
        )
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"penalty weight must be positive, got {lam!r}")
    return lam


# the penalized least-squares problems ``0.5 ||Ax - b||^2 + g - h``:
# id -> (default rows, default cols, oracle g of lam, oracle h of lam or None)
_PENALIZED_LS = {
    "lasso": (50, 100, l1_oracle, None),
    "l0-ls": (20, 40, l0_oracle, None),
    "l1-l2-dc": (20, 40, l1_oracle, l2_norm_oracle),
}


def _make_penalized_ls(problem_id: str, params: dict) -> ProblemInstance:
    rows, cols, g, h = _PENALIZED_LS[problem_id]
    A, b = _sparse_regression_data(params, rows_default=rows, cols_default=cols)
    lam = _lam_from(params, A, b, 0.1)
    problem = CompositeProblem(
        f=make_least_squares(A, b),
        g=g(lam),
        h=h(lam) if h is not None else None,
        dimension=A.shape[1],
    )
    return ProblemInstance(problem_id, problem, np.zeros(A.shape[1]), dict(params, lam=lam))


def _make_power4_1d(params: dict) -> ProblemInstance:
    x0 = _param(params, "x0", numbers.Real, 1.0)
    if not np.isfinite(x0):
        raise InvalidInputError("x0 must be finite")
    problem = CompositeProblem(f=make_power4_1d(), g=zero_oracle(), h=None, dimension=1)
    return ProblemInstance("power4-1d", problem, np.array([x0]), dict(params))


def _make_quad_l1(params: dict) -> ProblemInstance:
    """Strongly convex quadratic plus l1: least squares with a ridge block stacked on."""
    mu = _param(params, "mu", numbers.Real, 1.0)
    if not np.isfinite(mu) or mu <= 0.0:
        raise InvalidInputError(f"mu must be positive, got {mu!r}")
    A, b = _sparse_regression_data(params, rows_default=30, cols_default=30)
    n = A.shape[1]
    A_full = np.vstack([A, np.sqrt(mu) * np.eye(n)])
    b_full = np.concatenate([b, np.zeros(n)])
    lam = _lam_from(params, A_full, b_full, 0.1)
    problem = CompositeProblem(
        f=make_least_squares(A_full, b_full), g=l1_oracle(lam), h=None, dimension=n
    )
    return ProblemInstance("quad-l1", problem, np.zeros(n), dict(params, lam=lam, mu=mu))


# the params fields of the least-squares problems; every problem takes a seed
_LS_FIELDS = ("seed", "rows", "cols", "lam", "lam_factor", "A_csv", "b_csv")

# id -> (builder taking the params, description, accepted params fields)
_REGISTRY = {
    "lasso": (partial(_make_penalized_ls, "lasso"), "least squares + l1 penalty (convex)",
              _LS_FIELDS),
    "l0-ls": (partial(_make_penalized_ls, "l0-ls"),
              "least squares + l0 cardinality penalty (nonconvex prox term)", _LS_FIELDS),
    "l1-l2-dc": (partial(_make_penalized_ls, "l1-l2-dc"),
                 "least squares + l1 minus l2 (difference of convex terms)", _LS_FIELDS),
    "power4-1d": (_make_power4_1d, "scalar x^4/4, flat minimizer at 0 (sublinear benchmark)",
                  ("seed", "x0")),
    "quad-l1": (_make_quad_l1, "strongly convex quadratic + l1 (linear-rate benchmark)",
                _LS_FIELDS + ("mu",)),
}


def problem_ids() -> list[str]:
    return sorted(_REGISTRY)


def describe_problems() -> list[tuple[str, str]]:
    return [(pid, _REGISTRY[pid][1]) for pid in problem_ids()]


def make_problem(problem_id: str, params: dict | None = None) -> ProblemInstance:
    """Build a catalog problem; unknown identifiers and params fields the
    problem does not take raise ``InvalidInputError``."""
    if problem_id not in _REGISTRY:
        raise InvalidInputError(
            f"unknown problem id {problem_id!r}; known ids: {', '.join(problem_ids())}"
        )
    builder, _, accepted = _REGISTRY[problem_id]
    params = dict(params or {})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise InvalidInputError(
            f"unknown params field(s) for {problem_id}: {', '.join(unknown)}"
        )
    return builder(params)
