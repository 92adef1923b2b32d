"""Output checks made apart from kldescent.

Nothing here calls into the package: the data of the least-squares
instances is regenerated from the catalog's recipe, traces are parsed from
their files, and reports are compared as bytes.  Every check returns
``None`` when it holds and a one-line reason when it does not.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path
from typing import Optional

import numpy as np

KKT_TOL = 1e-6        # stationarity violation allowed, relative to the l1 weight
F_REL_TOL = 1e-12     # recomputed objective against the trace column
SIDECAR_MAGIC = b"KLTRACE1"


# ---------------------------------------------------------------------------
# least-squares instances


ROW_BLOCK = 125           # rows of A per draw in least_squares_at; two draws are alive at once
DEFAULT_LAM_FACTOR = 0.1  # the catalog's default weight over ||A^T b||_inf


def regression_data(seed: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``A`` and ``b`` of a catalog sparse-regression instance, whole.

    The catalog draws everything from one ``default_rng(seed)`` stream:
    ``A`` (Gaussian, divided by ``sqrt(rows)``), a support of ``cols // 10``
    entries, their Gaussian values, then ``b = A x_true + 0.01 * noise``.
    """
    rng = np.random.default_rng(seed)
    A = next(_a_blocks(rng, rows, cols, rows))
    x_true, noise = _tail_draws(rng, rows, cols)
    return A, A @ x_true + 0.01 * noise


def _a_blocks(rng, rows: int, cols: int, block: int):
    """``A`` in row blocks; C-order draws give the same values as one draw."""
    for start in range(0, rows, block):
        blk = rng.standard_normal((min(block, rows - start), cols))
        blk /= np.sqrt(rows)
        yield blk


def _tail_draws(rng, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``x_true`` and the noise, drawn after ``A``."""
    x_true = np.zeros(cols)
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    return x_true, rng.standard_normal(rows)


@dataclasses.dataclass
class LeastSquaresAt:
    """What the checks need of ``||Ax - b||^2 / 2`` at one point ``x``."""

    half_bb: float          # f(0) = ||b||^2 / 2
    lam: float              # the catalog's default weight, 0.1 ||A^T b||_inf
    half_rr: float          # f(x) = ||Ax - b||^2 / 2
    grad: np.ndarray        # A^T (Ax - b)


def least_squares_at(seed: int, rows: int, cols: int, x: np.ndarray,
                     block: int = ROW_BLOCK) -> LeastSquaresAt:
    """Regenerate a catalog instance and evaluate it at ``x``, drawing ``A``
    ``block`` rows at a time: one pass draws ``A`` to reach the draws after
    it, a second draws it again and accumulates the products."""
    rng = np.random.default_rng(seed)
    for _ in _a_blocks(rng, rows, cols, block):
        pass
    x_true, noise = _tail_draws(rng, rows, cols)
    atb, grad, bb, rr = np.zeros(cols), np.zeros(cols), 0.0, 0.0
    start = 0
    for blk in _a_blocks(np.random.default_rng(seed), rows, cols, block):
        b = blk @ x_true + 0.01 * noise[start:start + blk.shape[0]]
        r = blk @ x - b
        atb += b @ blk
        grad += r @ blk
        bb += float(b @ b)
        rr += float(r @ r)
        start += blk.shape[0]
    return LeastSquaresAt(0.5 * bb, DEFAULT_LAM_FACTOR * float(np.max(np.abs(atb))),
                          0.5 * rr, grad)


def check_data_match(ls: LeastSquaresAt, f0: float, lam_used: float) -> Optional[str]:
    """The instance the program solved has ``f(0) = ||b||^2 / 2`` and our weight."""
    if not math.isclose(f0, ls.half_bb, rel_tol=F_REL_TOL):
        return f"f(0) = {f0!r}, regenerated data gives {ls.half_bb!r}"
    if not math.isclose(lam_used, ls.lam, rel_tol=F_REL_TOL):
        return f"penalty weight {lam_used!r}, regenerated data gives {ls.lam!r}"
    return None


def stationarity_violation(ls: LeastSquaresAt, x: np.ndarray, concave_l2: bool) -> float:
    """Distance of ``-grad`` to ``lam * d||x||_1``, relative to ``lam``.

    ``grad`` is the gradient of ``||Ax - b||^2 / 2``, minus ``lam x / ||x||``
    when the objective carries the concave ``-lam ||x||_2`` term; a zero is
    then a critical point of ``F`` exactly when the distance is zero.
    """
    lam, g = ls.lam, ls.grad
    if concave_l2:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return math.inf
        g = g - (lam / nrm) * x
    nz = x != 0.0
    on_support = np.abs(g[nz] + lam * np.sign(x[nz]))
    off_support = np.maximum(np.abs(g[~nz]) - lam, 0.0)
    return max(float(on_support.max(initial=0.0)), float(off_support.max(initial=0.0))) / lam


def objective(ls: LeastSquaresAt, x: np.ndarray, concave_l2: bool) -> float:
    val = ls.half_rr + ls.lam * float(np.sum(np.abs(x)))
    if concave_l2:
        val -= ls.lam * float(np.linalg.norm(x))
    return val


def check_stationary(ls: LeastSquaresAt, x: np.ndarray, f_final: float,
                     concave_l2: bool) -> Optional[str]:
    """KKT conditions of the lasso, or criticality of ``l1 - l2``, at ``x``."""
    v = stationarity_violation(ls, x, concave_l2)
    if not v <= KKT_TOL:
        return f"stationarity violation {v:.3e} of the penalty weight exceeds {KKT_TOL:g}"
    F = objective(ls, x, concave_l2)
    if not math.isclose(F, f_final, rel_tol=1e-10):
        return f"final F {f_final!r} but F(x) recomputes to {F!r}"
    return None


# ---------------------------------------------------------------------------
# trace files


def read_sidecar(path: Path) -> np.ndarray:
    """Iterates of a ``trace.bin``: magic, u32 dimension, u32 rows, float64 rows."""
    raw = Path(path).read_bytes()
    if raw[:8] != SIDECAR_MAGIC or len(raw) < 16:
        raise ValueError(f"{path}: not a trace sidecar")
    n, rows = struct.unpack("<II", raw[8:16])
    if len(raw) != 16 + 8 * n * rows:
        raise ValueError(f"{path}: size does not match {rows}x{n}")
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, n)


def read_trace_columns(path: Path) -> dict[str, np.ndarray]:
    """Columns of a ``trace.csv`` keyed by header name."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns under a {len(header)}-name header")
    return {name: data[:, i] for i, name in enumerate(header)}


def window_peaks(merit: np.ndarray, m: int) -> np.ndarray:
    """``max(merit[k-m .. k])`` for every row ``k``."""
    padded = np.concatenate([np.full(m, -np.inf), merit])
    return np.lib.stride_tricks.sliding_window_view(padded, m + 1).max(axis=1)


def check_quartic_trace(cols: dict[str, np.ndarray], m: int, delta: float) -> Optional[str]:
    """A ``power4-1d`` trace from ``pgenls``: ``F = x^4/4`` on every row, the
    merit is ``F + (delta/2) step^2``, and the window-peak merits never rise."""
    x, F = cols["x_0"], cols["F"]
    F_ref = 0.25 * x ** 4
    bad = ~np.isclose(F, F_ref, rtol=F_REL_TOL, atol=0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        return f"row {k}: F = {F[k]!r} but x^4/4 = {F_ref[k]!r}"
    merit_ref = F + 0.5 * delta * cols["step_norm"] ** 2
    bad = ~np.isclose(cols["merit"], merit_ref, rtol=1e-12, atol=0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        return f"row {k}: merit {cols['merit'][k]!r} but F + delta/2 step^2 = {merit_ref[k]!r}"
    rises = np.diff(window_peaks(cols["merit"], m)) > 0.0
    if np.any(rises):
        return f"window-peak merit rises at row {int(np.argmax(rises)) + 1}"
    return None


# ---------------------------------------------------------------------------
# reports


def load_report(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def check_same_report(expected: str, got: str) -> Optional[str]:
    """Byte-for-byte equality; names the first line that differs."""
    if expected == got:
        return None
    for want, have in zip(expected.splitlines(), got.splitlines()):
        if want != have:
            return f"expected {want.strip()!r}, got {have.strip()!r}"
    return "reports differ in length"


def check_rate(report: dict, verdicts: tuple[str, ...],
               theta: Optional[float] = None, theta_tol: float = 0.05) -> Optional[str]:
    """The rate verdict is one of ``verdicts``; a ``sublinear`` one has its
    exponent within ``theta_tol`` of ``theta`` when that is given."""
    verdict = report.get("rate.verdict")
    if verdict not in verdicts:
        return (f"rate verdict {verdict!r} (R^2 lin {report.get('rate.r2_lin')}, "
                f"pow {report.get('rate.r2_pow')}), expected one of {', '.join(verdicts)}")
    if theta is not None and verdict == "sublinear":
        got = report.get("rate.theta")
        if got is None or not abs(got - theta) <= theta_tol:
            return f"theta {got!r} is not within {theta_tol} of {theta}"
    return None


def failed_audits(report: dict) -> list[str]:
    return sorted(k[:-len(".pass")] for k, v in report.items()
                  if k.endswith(".pass") and v is False)
