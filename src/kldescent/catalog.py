"""Canned problem catalog addressable by string identifiers.

Randomized instances draw every random quantity from a single
``numpy.random.default_rng(seed)`` generator (PCG64), so a given
``(id, params)`` pair always produces bit-identical data.  Matrices and
right-hand sides can instead be loaded from headerless CSV files via the
``A_csv`` / ``b_csv`` parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .domains import check, check_known
from .errors import InvalidInputError
from .oracles import (
    CompositeProblem,
    Vector,
    all_finite,
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
    if not all_finite(data):
        raise InvalidInputError(f"{what} loaded from {path!r} has non-finite entries")
    return data


def _matrix(rows: int, cols: int, ridge: bool) -> np.ndarray:
    """An uninitialised ``rows x cols`` matrix, with ``cols`` zero rows under it
    when ``ridge``."""
    M = np.empty((rows + cols if ridge else rows, cols))
    M[rows:] = 0.0
    return M


def _sparse_regression_data(params: dict, rows_default: int, cols_default: int,
                            ridge: bool = False):
    """Shared data generator: ``(A, b)`` with ``A`` a scaled Gaussian matrix
    and ``b = A x_true +`` small noise, or both loaded from ``A_csv`` and
    ``b_csv``.  With ``ridge`` the matrix returned is ``[A; 0]``, with
    ``cols`` zero rows under ``A`` for the caller to fill in place, and
    ``b`` keeps the rows of ``A``.

    The matrix returned is the only array of its size that the build makes:
    ``A`` is drawn into it and scaled in place.  (A loaded ``A`` stacked
    under ``ridge`` is copied into it, so that path holds two copies for a
    moment.)
    """
    if "A_csv" in params or "b_csv" in params:
        if not ("A_csv" in params and "b_csv" in params):
            raise InvalidInputError("A_csv and b_csv must be given together")
        A = _load_csv(params["A_csv"], "matrix")
        b = _load_csv(params["b_csv"], "vector").reshape(-1)
        if b.shape[0] != A.shape[0]:
            raise InvalidInputError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        if not ridge:
            return A, b
        M = _matrix(*A.shape, ridge)
        M[: A.shape[0]] = A
        return M, b
    if "seed" not in params:
        raise InvalidInputError("randomized problems require a 'seed' parameter")
    rows, cols = check("params", "params.", rows=params.get("rows", rows_default),
                       cols=params.get("cols", cols_default)).values()  # A must fit in numpy
    rng = np.random.default_rng(int(params["seed"]))
    M = _matrix(rows, cols, ridge)
    A = M[:rows]
    rng.standard_normal(out=A)
    A /= np.sqrt(rows)
    x_true = np.zeros(cols)
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    b = A @ x_true + 0.01 * rng.standard_normal(rows)
    return M, b


def _lam_from(params: dict, A: np.ndarray, b: np.ndarray, factor_default: float) -> float:
    if "lam" in params:
        return float(params["lam"])
    return float(params.get("lam_factor", factor_default)) * float(np.max(np.abs(A.T @ b)))


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
    x0 = float(params.get("x0", 1.0))
    problem = CompositeProblem(f=make_power4_1d(), g=zero_oracle(), h=None, dimension=1)
    return ProblemInstance("power4-1d", problem, np.array([x0]), dict(params))


def _make_quad_l1(params: dict) -> ProblemInstance:
    """Strongly convex quadratic plus l1: least squares with ``[A; sqrt(mu) I]``
    and ``[b; 0]``.  The stacked matrix is filled in place, so the build
    makes no temporary of its size (bar a loaded ``A``'s own copy, see
    ``_sparse_regression_data``)."""
    mu = float(params.get("mu", 1.0))
    A_full, b = _sparse_regression_data(params, rows_default=30, cols_default=30, ridge=True)
    n = A_full.shape[1]
    np.fill_diagonal(A_full[-n:], np.sqrt(mu))
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
    """Build a catalog problem; unknown identifiers, params fields the
    problem does not take and values outside their field's domain raise
    ``InvalidInputError``."""
    if problem_id not in _REGISTRY:
        raise InvalidInputError(
            f"unknown problem id {problem_id!r}; known ids: {', '.join(problem_ids())}"
        )
    builder, _, accepted = _REGISTRY[problem_id]
    params = dict(params or {})
    check_known(params, accepted, f"unknown params field(s) for {problem_id}")
    check("params", "params.", **params)
    return builder(params)
