"""Canned problem catalog addressable by string identifiers.

Randomized instances draw every random quantity from a single
``numpy.random.default_rng(seed)`` generator (PCG64), so a given
``(id, params)`` pair always produces bit-identical data, and the last
least-squares data drawn are kept for the next build over them (see
:func:`make_problem`).  Matrices and right-hand sides can instead be loaded
from headerless CSV files via the ``A_csv`` / ``b_csv`` parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .domains import check, check_known
from .errors import InvalidInputError
from .oracles import (
    _SUPPORT_MIN_SIZE,
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


# A matrix drawn in row blocks goes through one C-order buffer of at most
# 1/_DRAW_BLOCKS of its rows (one row at least).
_DRAW_BLOCKS = 32
# the most float64 entries numpy holds in one array, whose bytes must fit in intp
_MAX_ENTRIES = (2**63 - 1) // 8


def _check_size(rows: int, cols: int, mu) -> None:
    """Refuse generated data whose matrix, the ``rows x cols`` ``A`` with
    (unless ``mu`` is ``None``) the ridge's ``cols`` rows under it, has more
    entries than numpy holds, before anything is drawn or allocated."""
    if rows * cols > _MAX_ENTRIES:
        raise InvalidInputError(f"params.rows * params.cols must be at most {_MAX_ENTRIES} "
                                f"entries, got {rows!r} * {cols!r}")
    if mu is not None and (rows + cols) * cols > _MAX_ENTRIES:
        raise InvalidInputError(f"(params.rows + params.cols) * params.cols must be at most "
                                f"{_MAX_ENTRIES} entries, got ({rows!r} + {cols!r}) * {cols!r}")


def _matrix(rows: int, cols: int, mu) -> np.ndarray:
    """An uninitialised ``rows x cols`` matrix, with ``sqrt(mu) I`` of size
    ``cols`` under it unless ``mu`` is ``None``; column-major when the whole
    has at least ``_SUPPORT_MIN_SIZE`` entries, so that its oracle multiplies
    by the support of the point (see :func:`make_least_squares`)."""
    total = rows if mu is None else rows + cols
    M = np.empty((total, cols), order="F" if total * cols >= _SUPPORT_MIN_SIZE else "C")
    if mu is not None:
        M[rows:] = 0.0
        np.fill_diagonal(M[rows:], np.sqrt(mu))
    return M


def _fill_gaussian(rng: np.random.Generator, A: np.ndarray) -> None:
    """Fill ``A`` with standard normal draws from ``rng``, taken in row-major
    order and divided by ``sqrt(rows)``: in one draw when ``A`` is
    C-contiguous, else in row blocks through one small C-order buffer, which
    give the same values, so that no second array the size of ``A`` is made."""
    rows = A.shape[0]
    if A.flags.c_contiguous:
        rng.standard_normal(out=A)
        A /= np.sqrt(rows)
        return
    buf = np.empty((max(1, rows // _DRAW_BLOCKS), A.shape[1]))
    for start in range(0, rows, buf.shape[0]):
        block = buf[: rows - start]
        rng.standard_normal(out=block)
        block /= np.sqrt(rows)
        A[start:start + block.shape[0]] = block


def _with_ridge(b: np.ndarray, cols: int, mu) -> np.ndarray:
    """``b``, with ``cols`` zeros after it (the rows of the ridge) unless
    ``mu`` is ``None``."""
    return b if mu is None else np.concatenate([b, np.zeros(cols)])


class _LeastSquares:
    """The data of a least-squares build: ``A`` and ``b``, the oracle ``f``
    of ``0.5 ||Ax - b||^2`` over them (which checks them first), and
    ``max |A^T b|``."""

    __slots__ = ("A", "b", "f", "max_atb")

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A, self.b, self.f = A, b, make_least_squares(A, b)
        self.max_atb = float(np.max(np.abs(A.T @ b)))


# (key, _LeastSquares) of the last generated data, replaced whole so that a
# reader never pairs one key with another key's data; see make_problem
_memo = None


def _sparse_regression_data(params: dict, rows_default: int, cols_default: int,
                            mu=None) -> _LeastSquares:
    """Shared data of the least-squares problems: ``A`` a scaled Gaussian
    matrix and ``b = A x_true +`` small noise, or both loaded from ``A_csv``
    and ``b_csv``.  Unless ``mu`` is ``None`` the matrix is
    ``[A; sqrt(mu) I]`` and the right-hand side ``[b; 0]``.  They come in
    one record with their oracle and ``max |A^T b|``, which every new
    record computes once, ``lam`` given or not.

    Generated data are fixed to the bit by ``(seed, rows, cols, mu)``, so the
    last of them is kept in ``_memo`` under that key, read-only, and a build
    with the same key takes it from there.  A build with another key drops
    the entry before it draws.  Loaded data never enter the memo: their
    files may change between builds.

    The matrix built is the only array of its size that the build makes:
    ``A`` is drawn into it and scaled in place.  (A loaded ``A`` stacked
    under a ridge is copied into it, so that path holds two copies for a
    moment.)  A built matrix (``[A; sqrt(mu) I]`` whole) with at least
    ``_SUPPORT_MIN_SIZE`` (100,000) entries is column-major, so that its
    oracle multiplies by the support of a sparse point (see
    :func:`~kldescent.oracles.make_least_squares`); a generated one is drawn
    in row blocks of at most 1/32 of its rows through one C-order buffer,
    the same values as one draw.  Its ``b = A x_true + noise``, and so
    ``lam`` and the hint, then come from column-major products and can
    differ from a row-major build in their last bits.  Smaller matrices,
    every catalog default among them, and loaded matrices without a ridge
    stay row-major.
    """
    global _memo
    if "A_csv" in params or "b_csv" in params:
        if not ("A_csv" in params and "b_csv" in params):
            raise InvalidInputError("A_csv and b_csv must be given together")
        A = _load_csv(params["A_csv"], "matrix")
        b = _load_csv(params["b_csv"], "vector").reshape(-1)
        if b.shape[0] != A.shape[0]:
            raise InvalidInputError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        if mu is not None:
            M = _matrix(*A.shape, mu)
            M[: A.shape[0]] = A
            A, b = M, _with_ridge(b, A.shape[1], mu)
        return _LeastSquares(A, b)
    if "seed" not in params:
        raise InvalidInputError("randomized problems require a 'seed' parameter")
    # make_problem has checked the sizes given; the matrix they make must fit in numpy
    seed = int(params["seed"])
    rows, cols = int(params.get("rows", rows_default)), int(params.get("cols", cols_default))
    _check_size(rows, cols, mu)
    key = (seed, rows, cols, mu)
    last = _memo
    if last is not None and last[0] == key:
        return last[1]
    _memo = last = None  # the last data, unless a caller holds them, are freed before the draw
    rng = np.random.default_rng(seed)
    M = _matrix(rows, cols, mu)
    A = M[:rows]
    _fill_gaussian(rng, A)
    x_true = np.zeros(cols)
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    b = _with_ridge(A @ x_true + 0.01 * rng.standard_normal(rows), cols, mu)
    M.flags.writeable = False
    b.flags.writeable = False
    data = _LeastSquares(M, b)
    _memo = (key, data)
    return data


def _make_ls_problem(rows: int, cols: int, g, h, ridge: bool, problem_id: str,
                     params: dict) -> ProblemInstance:
    ridged = {"mu": float(params.get("mu", 1.0))} if ridge else {}
    data = _sparse_regression_data(params, rows, cols, **ridged)
    lam = (float(params["lam"]) if "lam" in params
           else float(params.get("lam_factor", 0.1)) * data.max_atb)
    n = data.A.shape[1]
    problem = CompositeProblem(f=data.f, g=g(lam), h=h(lam) if h is not None else None,
                               dimension=n)
    return ProblemInstance(problem_id, problem, np.zeros(n), dict(params, lam=lam, **ridged))


def _make_power4_1d(problem_id: str, params: dict) -> ProblemInstance:
    x0 = float(params.get("x0", 1.0))
    problem = CompositeProblem(f=make_power4_1d(), g=zero_oracle(), h=None, dimension=1)
    return ProblemInstance(problem_id, problem, np.array([x0]), dict(params))


# the params fields of the least-squares problems; every problem takes a seed
_LS_FIELDS = ("seed", "rows", "cols", "lam", "lam_factor", "A_csv", "b_csv")


def _least_squares_problem(description: str, rows: int, cols: int, g, h=None,
                           ridge: bool = False) -> tuple:
    """The table entry of ``0.5 ||Ax - b||^2 + g - h`` on ``rows x cols``
    data by default, with the oracles ``g`` and ``h`` (or ``None``) of
    ``lam``; with ``ridge``, ``sqrt(mu) I`` is stacked under ``A``, making
    ``f`` strongly convex, and the problem takes ``mu``."""
    return (partial(_make_ls_problem, rows, cols, g, h, ridge), description,
            _LS_FIELDS + ("mu",) if ridge else _LS_FIELDS)


# id -> (builder taking the id and the params, description, accepted params fields)
_REGISTRY = {
    "lasso": _least_squares_problem("least squares + l1 penalty (convex)", 50, 100, l1_oracle),
    "l0-ls": _least_squares_problem(
        "least squares + l0 cardinality penalty (nonconvex prox term)", 20, 40, l0_oracle),
    "l1-l2-dc": _least_squares_problem(
        "least squares + l1 minus l2 (difference of convex terms)", 20, 40, l1_oracle,
        l2_norm_oracle),
    "power4-1d": (_make_power4_1d, "scalar x^4/4, flat minimizer at 0 (sublinear benchmark)",
                  ("seed", "x0")),
    "quad-l1": _least_squares_problem("strongly convex quadratic + l1 (linear-rate benchmark)",
                                      30, 30, l1_oracle, ridge=True),
}


def problem_ids() -> list[str]:
    return sorted(_REGISTRY)


def describe_problems() -> list[tuple[str, str]]:
    return [(pid, _REGISTRY[pid][1]) for pid in problem_ids()]


def make_problem(problem_id: str, params: dict | None = None) -> ProblemInstance:
    """Build a catalog problem; unknown identifiers, params fields the
    problem does not take and values outside their field's domain raise
    ``InvalidInputError``.

    The generated data of the least-squares problems are memoized: the last
    of them stays in a module-wide memo of one entry, keyed on the seed, the
    size and (``quad-l1``) ``mu``, which fix them to the bit.  The entry holds
    the matrix and right-hand side, made read-only, their
    ``make_least_squares`` oracle (with its Lipschitz hint, once read) and
    ``max |A^T b|``.  A build with the entry's key, of any of the problems,
    takes them from there: it draws nothing, scans nothing and shares the
    oracle, so the instances over one dataset compute its hint once.  The
    entry stays until a build of other generated data drops it, before that
    build draws; it pins one dataset (64 MB at 2000x4000) for the life of
    the process.  Data loaded from ``A_csv`` and ``b_csv`` never enter it.
    Each instance still gets its own ``x0``, ``params`` and penalty terms.

    A least-squares matrix with at least 100,000 entries is stored
    column-major, and its oracle forms the residual of a point with at most
    15% nonzeros from their columns alone (about 4.5x faster at 2000x4000
    and 10% nonzeros; see :func:`~kldescent.oracles.make_least_squares`).
    Such data, with their ``b``, ``lam`` and Lipschitz hint, and the values
    and gradients on them, can differ from a row-major build in their last
    bits.  The catalog defaults are far below the rule and keep their bits.
    """
    if problem_id not in _REGISTRY:
        raise InvalidInputError(
            f"unknown problem id {problem_id!r}; known ids: {', '.join(problem_ids())}"
        )
    builder, _, accepted = _REGISTRY[problem_id]
    params = dict(params or {})
    check_known(params, accepted, f"unknown params field(s) for {problem_id}")
    check("params", "params.", **params)
    return builder(problem_id, params)
