"""Problem oracles: smooth terms, prox-friendly terms, and composite containers.

All vectors are dense 1-D ``numpy.float64`` arrays.  A composite objective has
the form ``F(x) = f(x) + g(x) - h(x)`` where ``f`` is smooth, ``g`` is proper
lower-semicontinuous with a cheap prox map (possibly nonconvex, e.g. a
cardinality penalty), and ``h`` is an optional continuous convex term accessed
through one deterministic subgradient per point.

Validation happens once, at the build: ``l1_oracle``, ``l0_oracle`` and
``l2_norm_oracle`` check their weight ``lam`` (the ``oracle`` context of
:mod:`kldescent.domains`) and give the solvers closures over the unchecked
kernels, so a trial pays for no check.  A non-finite point reaches a kernel as
it is, and the solver catches its non-finite output (see
:func:`kldescent.descent.checked_penalty`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, TypeAlias

import numpy as np
from numpy.typing import NDArray

from .domains import check
from .errors import InvalidInputError

Vector: TypeAlias = NDArray[np.float64]

__all__ = [
    "Vector",
    "SmoothOracle",
    "ProxOracle",
    "ConvexOracle",
    "CompositeProblem",
    "l1_oracle",
    "l0_oracle",
    "zero_oracle",
    "l2_norm_oracle",
    "make_least_squares",
    "make_power4_1d",
    "power_iteration_sq_norm",
    "as_vector",
    "all_finite",
]


def as_vector(x, name: str = "x") -> Vector:
    """Coerce to a finite 1-D float64 array, raising ``InvalidInputError`` otherwise."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SmoothOracle:
    """Continuously differentiable term: value, gradient, optional curvature hint.

    ``lipschitz_hint`` is the gradient's Lipschitz constant or an upper bound
    on it (``None`` when no global bound exists): the value of
    ``lipschitz_fn`` called with no arguments, at each read, so an oracle
    whose hint is never read never pays for it; an oracle built without
    ``lipschitz_fn`` has no hint.  A builder whose hint is costly caches it
    in ``lipschitz_fn``, which copies of the oracle made with
    ``dataclasses.replace`` share.  For least squares it is ``||A||_2^2``
    from ``power_iteration_sq_norm``, computed on the first read of any
    oracle sharing the function (see ``make_least_squares``): exact up to
    rounding when the smaller side of ``A`` is small, otherwise a Lanczos
    bound at most 1e-6 above it relatively, under the condition stated
    there.  The catalog builds one such oracle per generated dataset and
    hands it to every problem over the same data while the data stay in its
    memo (see :func:`kldescent.catalog.make_problem`).

    ``quadratic`` promises that ``f`` is quadratic, so its gradient is affine:
    ``grad f(x + beta (x - u)) = grad f(x) + beta (grad f(x) - grad f(u))``
    for all ``x``, ``u`` and ``beta``, and a solver may extrapolate gradients
    it knows instead of calling ``gradient``.  Like ``lipschitz_hint`` it
    describes the function and is set by the builder that knows it
    (``make_least_squares``); an oracle built by hand keeps ``False``.

    An oracle may cache work between calls (``make_least_squares`` keeps the
    residual of its last ``value`` call).  Such a cache is keyed on the
    contents of the point, never on the array object, so a point changed in
    place or a call from another thread can only miss it; a miss costs time,
    never a wrong answer.  An oracle may also pick how it computes from its
    data and the point, as long as a hit and a miss give the same bits
    (``make_least_squares`` multiplies a large column-major matrix by the
    support of a sparse point alone).
    """

    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    lipschitz_fn: Optional[Callable[[], float]] = None
    quadratic: bool = False

    @property
    def lipschitz_hint(self) -> Optional[float]:
        return None if self.lipschitz_fn is None else self.lipschitz_fn()


@dataclass(frozen=True)
class ProxOracle:
    """Proper lsc term with an exact proximal map.

    ``value`` may return ``+inf`` outside the domain.  ``prox(v, gamma)``
    returns the minimizer of ``g(x) + (gamma/2) * ||x - v||^2``; larger
    ``gamma`` keeps the output closer to ``v``.
    """

    value: Callable[[Vector], float]
    prox: Callable[[Vector, float], Vector]


@dataclass(frozen=True)
class ConvexOracle:
    """Finite-valued convex term with one deterministic subgradient per point."""

    value: Callable[[Vector], float]
    subgradient: Callable[[Vector], Vector]


@dataclass(frozen=True)
class CompositeProblem:
    """Objective ``F = f + g - h`` with ``h`` optional."""

    f: SmoothOracle
    g: ProxOracle
    h: Optional[ConvexOracle]
    dimension: int


# ---------------------------------------------------------------------------
# prox and subgradient kernels


def _soft_threshold(v: Vector, lam: float, gamma: float) -> Vector:
    return np.sign(v) * np.maximum(np.abs(v) - lam / gamma, 0.0)


def _hard_threshold(v: Vector, lam: float, gamma: float) -> Vector:
    # written as "zero where small" so that a NaN entry stays NaN
    return np.where(np.abs(v) <= math.sqrt(2.0 * lam / gamma), 0.0, v)


def _scaled_direction(x: Vector, lam: float) -> Vector:
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        return np.zeros_like(x)
    return (lam / nrm) * x


# ---------------------------------------------------------------------------
# oracle builders: weights checked here, once; the closures call the kernels


def l1_oracle(lam: float) -> ProxOracle:
    """``lam * ||.||_1``; its prox is the soft threshold at ``lam / gamma``."""
    lam = check("oracle", lam=lam)["lam"]
    return ProxOracle(
        value=lambda x: lam * float(np.sum(np.abs(x))),
        prox=lambda v, gamma: _soft_threshold(v, lam, gamma),
    )


def l0_oracle(lam: float) -> ProxOracle:
    """``lam * ||.||_0``; its prox zeroes each ``|v_i| <= sqrt(2 * lam / gamma)``,
    the tie toward 0 so the map is single-valued."""
    lam = check("oracle", lam=lam)["lam"]
    return ProxOracle(
        value=lambda x: lam * float(np.count_nonzero(x)),
        prox=lambda v, gamma: _hard_threshold(v, lam, gamma),
    )


def zero_oracle() -> ProxOracle:
    """The identically-zero term; its prox is the identity."""
    return ProxOracle(value=lambda x: 0.0, prox=lambda v, gamma: np.asarray(v, dtype=np.float64))


def l2_norm_oracle(lam: float) -> ConvexOracle:
    """``lam * ||.||_2`` with the subgradient ``lam * x / ||x||``, or 0 at 0."""
    lam = check("oracle", lam=lam)["lam"]
    return ConvexOracle(
        value=lambda x: lam * float(np.linalg.norm(x)),
        subgradient=lambda x: _scaled_direction(x, lam),
    )


# The smaller side of ``A`` up to which ``power_iteration_sq_norm`` forms the
# Gram matrix and takes its exact top eigenvalue; above it, Lanczos.  Medians
# on Gaussian matrices (2-core Xeon at 2.1 GHz, OpenBLAS 0.3.31, two threads),
# dense against Lanczos at _REL_TOL 1e-6: 200x400 3.5/5.7 ms, 500x500 25/17 ms,
# 500x1000 24/19 ms, 500x4000 38/65 ms, 600x1200 39/24 ms, 800x1600 72/42 ms,
# 2000x4000 1.0-2.2/0.6 s.  At 500 either path is within 1.7x of the other
# for aspect ratios 1 to 8; above it Lanczos wins on near-square matrices.
_DENSE_MAX_DIM = 500
# Lanczos basis vectors kept before restarting from the top Ritz vector
# (2 MB at dimension 2000).
_LANCZOS_BASIS = 128
# Lanczos stops once the top Ritz pair's residual is at most _REL_TOL times
# its value, or after _MAX_ITER Gram products.  A looser tolerance loosens
# the bound that the audit's gates take from the hint.
_REL_TOL = 1e-6
_MAX_ITER = 10000


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float64 array ``a`` is finite, exactly,
    with no temporary the size of ``a`` when they are: a NaN or infinite
    entry makes the sum non-finite, so only a sum that is not finite (which
    a finite array whose sum overflows also gives) is checked entry by
    entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(a.sum())
    return math.isfinite(total) or bool(np.isfinite(a).all())


def _checked_matrix(A) -> np.ndarray:
    """``A`` as a float64 matrix, not copied when it is one; ``InvalidInputError``
    unless it has two dimensions and finite entries."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInputError(f"A must be a matrix, got shape {A.shape}")
    if not all_finite(A):
        raise InvalidInputError("A contains non-finite entries")
    return A


def power_iteration_sq_norm(A: np.ndarray) -> float:
    """Largest squared singular value ``||A||_2^2``, the top eigenvalue of the
    Gram matrix of the smaller side of ``A`` (``A A^T`` or ``A^T A``).

    The name is historical; two paths, chosen by the smaller dimension:

    - at most ``_DENSE_MAX_DIM`` (500): the Gram matrix is formed and its top
      eigenvalue taken from ``numpy.linalg.eigvalsh``, exact up to rounding;
    - larger: Lanczos on the Gram operator from a fixed pseudo-random start,
      with full reorthogonalization and a basis of ``_LANCZOS_BASIS`` vectors,
      restarted from the top Ritz vector when it fills.  It stops once the
      top Ritz pair ``(theta, y)`` has residual ``r = ||G y - theta y||`` at
      most ``_REL_TOL * theta`` (1e-6; a residual test, not a step-to-step
      change), or after ``_MAX_ITER`` (10000) Gram products, and returns
      ``theta + r``.

    Ritz values never exceed the largest eigenvalue, and some eigenvalue lies
    within ``r`` of ``theta``.  So when ``theta`` has converged to the largest
    eigenvalue, as it does unless the start is nearly orthogonal to its
    eigenvector or another eigenvalue lies within ``r`` below it, the result
    is an upper bound; after a residual stop it is at most 1e-6 above the
    true value relatively.
    A stop after ``_MAX_ITER`` products carries no such guarantee: its
    ``theta + r`` can lie far below the true value.
    A zero matrix gives 0.0 on both paths, with no separate scan for it.
    Deterministic: repeated calls return the same bits.  A matrix that is
    not two-dimensional with finite entries raises ``InvalidInputError``.
    """
    return _sq_norm(_checked_matrix(A))


def _sq_norm(A: np.ndarray) -> float:
    """:func:`power_iteration_sq_norm` of a matrix that ``_checked_matrix``
    has already passed, without a second scan of its entries."""
    if A.size == 0:
        return 0.0
    rows, cols = A.shape
    if min(rows, cols) <= _DENSE_MAX_DIM:
        gram = A @ A.T if rows <= cols else A.T @ A
        return float(np.linalg.eigvalsh(gram)[-1])
    if rows <= cols:
        return _lanczos_top_eigenvalue(lambda v: A @ (A.T @ v), rows)
    return _lanczos_top_eigenvalue(lambda v: A.T @ (A @ v), cols)


def _lanczos_top_eigenvalue(gram: Callable[[Vector], Vector], dim: int) -> float:
    """``theta + r`` for the top Ritz pair of the symmetric PSD operator
    ``gram`` on ``R^dim``; see ``power_iteration_sq_norm``."""
    basis = np.empty((_LANCZOS_BASIS, dim))
    alpha = np.empty(_LANCZOS_BASIS)
    beta = np.empty(_LANCZOS_BASIS)
    q = np.random.default_rng(0).standard_normal(dim)
    q /= np.linalg.norm(q)
    steps = 0
    while True:
        for j in range(_LANCZOS_BASIS):
            basis[j] = q
            w = gram(q)
            steps += 1
            alpha[j] = q @ w
            done = basis[: j + 1]
            for _ in range(2):  # twice is enough for full reorthogonalization
                w -= done.T @ (done @ w)
            beta[j] = np.linalg.norm(w)
            # eigh reads the lower triangle of the tridiagonal Lanczos matrix
            ritz, vecs = np.linalg.eigh(np.diag(alpha[: j + 1]) + np.diag(beta[:j], -1))
            theta = float(ritz[-1])
            resid = float(beta[j] * abs(vecs[-1, -1]))
            if resid <= _REL_TOL * theta or steps >= _MAX_ITER:
                return theta + resid
            q = w / beta[j]
        q = basis.T @ vecs[:, -1]
        q /= np.linalg.norm(q)


# ``A x - b`` is formed from the columns of the nonzero entries of ``x`` alone
# when ``A`` is column-major with at least _SUPPORT_MIN_SIZE entries and at
# most _SUPPORT_MAX_SHARE of the entries of ``x`` are nonzero.  Medians on
# Gaussian matrices (2-core Xeon, OpenBLAS 0.3.31), the dense product against
# the support-only one at 5, 15 and 25% nonzeros, in us: 50x100 4/11, 4/12,
# 3/11; 150x300 11/9, 9/12, 9/14; 200x400 14/10, 14/14, 13/18; 300x600 33/14,
# 39/29, 39/37; 600x1200 143/28, 133/74, 179/120; 1000x2000 465/65, 392/217,
# 405/422; 2000x4000 2417/326, 2394/981, 2783/1743.  A row-major matrix
# gathers its columns with a stride (16 ms at 2000x4000 and 430 nonzeros),
# so it always takes the dense product.
_SUPPORT_MIN_SIZE = 100_000
_SUPPORT_MAX_SHARE = 0.15
# The columns are gathered in chunks of at most _GATHER_BYTES (one column at
# least), which bounds the copy and keeps it in cache: at 2000x4000 and 428
# nonzeros, 0.6 ms in chunks of 512 KB against 1.1 ms in one gather of 6.8 MB.
_GATHER_BYTES = 1 << 19


def _residual(A: np.ndarray, x: Vector, b: Vector, by_support: bool) -> Vector:
    """``A x - b``, the one product with ``A`` of a least-squares oracle call;
    with ``by_support``, from the columns of the nonzero entries of ``x``
    alone when they are at most ``_SUPPORT_MAX_SHARE`` of them."""
    if by_support:
        nz = np.flatnonzero(x)
        if nz.size <= _SUPPORT_MAX_SHARE * x.size:
            step = max(1, _GATHER_BYTES // (8 * A.shape[0]))
            r = A[:, nz[:step]] @ x[nz[:step]] - b
            for start in range(step, nz.size, step):
                cols = nz[start:start + step]
                r += A[:, cols] @ x[cols]
            return r
    return A @ x - b


def make_least_squares(A: np.ndarray, b: Vector) -> SmoothOracle:
    """Smooth oracle for ``0.5 * ||A x - b||^2``.

    The Lipschitz hint is the squared spectral norm of ``A`` from
    ``power_iteration_sq_norm``: the exact dense value when the smaller side
    of ``A`` is at most 500, otherwise a Lanczos upper bound at most 1e-6
    above it relatively, which holds when the top Ritz value converged to
    the largest eigenvalue.  It is computed on the first read of
    ``lipschitz_hint``, not here: the solvers backtrack and never read it,
    only the audit does.  Then it is kept in the oracle's ``lipschitz_fn``,
    so later reads, on this oracle or on a copy made with
    ``dataclasses.replace``, return the same float.  Two first reads at
    once, from two threads, may both compute it; they get the same bits.
    ``A`` is checked here all the same (two dimensions, finite entries), so
    bad input fails at the build, and only here: the first read does not
    scan ``A`` again.

    The residual ``A x - b`` of a sparse point is formed from the columns of
    its nonzero entries alone, ``A[:, nz] @ x[nz] - b``, when two rules hold:

    - the layout rule, fixed at the build: ``A`` is column-major (Fortran
      order, its columns contiguous) with at least ``_SUPPORT_MIN_SIZE``
      (100,000) entries;
    - the support rule, at each call: at most ``_SUPPORT_MAX_SHARE`` (15%)
      of the entries of ``x`` are nonzero.

    The columns are gathered in chunks of at most 512 KB.  Otherwise, and
    always for a row-major ``A``, whose columns a gather reads with a
    stride, the residual is the dense ``A @ x - b``.  On a 2-core Xeon the
    support-only product took 0.33 ms at 2000x4000 and 5% nonzeros, 0.98 ms
    at 15% and 1.7 ms at 25%, against 2.4 to 2.8 ms dense; below the size
    rule it loses, 11 us against 4 us at 50x100.  Both forms are ``A x - b``
    up to rounding, so above the rule a value or a gradient can differ from
    the dense product in its last bits; below it, and for any row-major
    ``A``, they are the bits of ``A @ x - b`` and ``A.T @ (A @ x - b)``.
    The gradient's ``A^T r`` is always dense.

    The oracle keeps a one-entry cache: each ``value(x)`` call stores the
    residual ``r = A x - b`` under a key made of the dtype, shape and bytes
    of ``x``, and ``gradient`` at a point with the same key returns
    ``A^T r``, saving the product with ``A``.  That is the same computation
    on the same bits, under either rule, so a hit returns exactly what a
    miss would.  Solvers
    evaluate ``f`` at a candidate before they need its gradient, so an
    accepted step costs one product for its gradient instead of two.
    ``A`` and ``b`` are used as given, not copied, and must not change after
    the build: a cached residual or hint would still be that of the old
    data.  (The catalog makes the data it generates read-only.)  A float64
    ``A`` costs the build no temporary of its size either: the finiteness
    check is :func:`all_finite`, which sums the entries.
    """
    A = _checked_matrix(A)
    b = as_vector(b, "b")
    if b.shape[0] != A.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A has {A.shape[0]} rows but b has {b.shape[0]} entries"
        )
    n = A.shape[1]
    by_support = A.size >= _SUPPORT_MIN_SIZE and A.flags.f_contiguous
    # (key of the point, A @ x - b) of the last value call, replaced whole so
    # that a reader never pairs one call's key with another call's residual
    cache = None
    hint = None

    def value(x):
        nonlocal cache
        if x.shape[0] != n:
            raise InvalidInputError(f"expected dimension {n}, got {x.shape[0]}")
        key = (x.dtype, x.shape, x.tobytes())
        r = _residual(A, x, b, by_support)
        cache = (key, r)
        return 0.5 * float(r @ r)

    def gradient(x):
        if x.shape[0] != n:
            raise InvalidInputError(f"expected dimension {n}, got {x.shape[0]}")
        last = cache
        if last is not None and last[0] == (x.dtype, x.shape, x.tobytes()):
            return A.T @ last[1]
        return A.T @ _residual(A, x, b, by_support)

    def lipschitz_fn():
        # ``A`` was checked above, so the hint skips the public function's
        # check; ``_sq_norm`` is looked up by name when called, so a wrapper
        # of it sees it
        nonlocal hint
        if hint is None:
            hint = _sq_norm(A)
        return hint

    return SmoothOracle(value=value, gradient=gradient, lipschitz_fn=lipschitz_fn,
                        quadratic=True)


def make_power4_1d() -> SmoothOracle:
    """Smooth oracle for the scalar quartic ``x^4 / 4`` (gradient ``x^3``).

    The gradient is not globally Lipschitz, so no hint is attached.
    """

    def value(x):
        t = float(x[0])
        return 0.25 * t * t * t * t

    def gradient(x):
        t = float(x[0])
        return np.array([t * t * t])

    return SmoothOracle(value=value, gradient=gradient)
