"""Iteration traces: per-iterate records plus CSV / binary round-trip.

CSV layout (fixed header order)::

    k,F,merit,gamma,beta,j_inner,ell,step_norm,residual[,x_0,...,x_{n-1}]

Iterate coordinates are embedded only for dimension <= 20.  Larger traces
write a sidecar binary next to the CSV: a 16-byte header (magic ``KLTRACE1``,
little-endian u32 dimension, u32 row count) followed by the iterates as
row-major little-endian float64.

Row ``k`` describes iterate ``x^k`` together with the step that produced it:
``gamma``/``beta``/``j_inner`` are the accepted stepsize weight, extrapolation
weight and inner trial count of step ``k-1 -> k`` (NaN / -1 on row 0),
``step_norm = ||x^k - x^{k-1}||`` (0 on row 0 by the ``x^{-1} = x^0``
convention) and ``residual`` is the stationarity residual at ``x^k``.
``merit`` is the audit merit of the algorithm that produced the trace
(the surrogate-duality merit for the DC solver, the proximity-augmented
objective for the extrapolated solver); ``ell`` is the argmax index of the
merit window at iterate ``k``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .oracles import Vector

__all__ = ["IterateRecord", "Trace", "write_trace_csv", "read_trace_csv",
           "CSV_COLUMNS", "SIDECAR_MAGIC"]

# CSV column -> (IterateRecord attribute, cell type), in file order
_ROW_SCHEMA = {
    "k": ("k", int), "F": ("f_value", float), "merit": ("merit", float),
    "gamma": ("gamma", float), "beta": ("beta", float), "j_inner": ("j_inner", int),
    "ell": ("ell", int), "step_norm": ("step_norm", float),
    "residual": ("residual", float),
}
CSV_COLUMNS = tuple(_ROW_SCHEMA)
SIDECAR_MAGIC = b"KLTRACE1"
MAX_INLINE_DIM = 20


@dataclass
class IterateRecord:
    k: int
    x: Vector
    f_value: float
    merit: float
    ell: int
    gamma: float
    beta: float
    j_inner: int
    step_norm: float
    residual: float


@dataclass
class Trace:
    algorithm: str
    records: list[IterateRecord] = field(default_factory=list)
    problem_id: str = ""
    config: dict = field(default_factory=dict)
    seed: Optional[int] = None
    terminated: str = ""  # "tolerance" | "stationary" | "max_outer" | ""

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dimension(self) -> int:
        return int(self.records[0].x.shape[0]) if self.records else 0

    def column(self, name: str) -> np.ndarray:
        attr, kind = _ROW_SCHEMA[name]
        return np.array([getattr(r, attr) for r in self.records], dtype=kind)

    def iterates(self) -> np.ndarray:
        return np.array([r.x for r in self.records])

    def phi_values(self) -> np.ndarray:
        """Merit audited by the descent framework: F for the DC solver,
        the proximity-augmented objective (merit column) otherwise."""
        if self.algorithm == "npg_major":
            return self.column("F")
        return self.column("merit")

    def framework_steps(self, delta: float) -> np.ndarray:
        """Per-row step length of the audited sequence.

        The extrapolated solver's framework runs on the paired state
        ``(x^k, x^{k-1})``, so its step combines two consecutive x-moves;
        when the run's proximity weight ``delta`` is 0 the audit falls back
        to the x-block.
        """
        s = self.column("step_norm")
        if self.algorithm == "npg_major" or float(delta) == 0.0:
            return s
        prev = np.concatenate([[0.0], s[:-1]])
        return np.sqrt(s * s + prev * prev)

    def tolerance_terminated(self) -> bool:
        return self.terminated in ("tolerance", "stationary")


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` to ``path``; returns the sidecar path when one was needed."""
    path = Path(path)
    n = trace.dimension
    inline = n <= MAX_INLINE_DIM
    header = list(CSV_COLUMNS) + ([f"x_{i}" for i in range(n)] if inline else [])
    lines = [",".join(header)]
    for r in trace.records:
        cells = [repr(kind(getattr(r, attr))) for attr, kind in _ROW_SCHEMA.values()]
        if inline:
            cells.extend(repr(float(v)) for v in r.x)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    if not inline:
        side = path.with_suffix(".bin")
        X = trace.iterates().astype("<f8")
        with open(side, "wb") as fh:
            fh.write(SIDECAR_MAGIC)
            fh.write(struct.pack("<II", n, len(trace)))
            fh.write(X.tobytes(order="C"))
        return side
    return path


def _read_sidecar(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:8] != SIDECAR_MAGIC:
        raise InvalidInputError(f"{path} is not a trace sidecar (bad magic)")
    n, rows = struct.unpack("<II", raw[8:16])
    expect = 16 + 8 * n * rows
    if len(raw) != expect:
        raise InvalidInputError(
            f"{path}: expected {expect} bytes for {rows}x{n} payload, got {len(raw)}"
        )
    return np.frombuffer(raw[16:], dtype="<f8").reshape(rows, n).astype(np.float64)


def read_trace_csv(path: str | Path, algorithm: str = "", config: dict | None = None) -> Trace:
    """Load a trace written by :func:`write_trace_csv`.

    Malformed content raises ``InvalidInputError`` naming the offending line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{path}: empty trace file (line 1)")
    header = lines[0].split(",")
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise InvalidInputError(
            f"{path}: line 1: header must start with {','.join(CSV_COLUMNS)}"
        )
    x_cols = header[len(CSV_COLUMNS):]
    for i, name in enumerate(x_cols):
        if name != f"x_{i}":
            raise InvalidInputError(f"{path}: line 1: unexpected column {name!r}")
    n_inline = len(x_cols)

    records: list[IterateRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidInputError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            row = {attr: kind(cell)
                   for (attr, kind), cell in zip(_ROW_SCHEMA.values(), cells)}
            x = np.array([float(c) for c in cells[len(CSV_COLUMNS):]])
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {lineno}: {exc}") from exc
        if row["k"] != lineno - 2:
            raise InvalidInputError(
                f"{path}: line {lineno}: iteration index {row['k']} out of order"
            )
        for name in ("F", "merit", "step_norm"):
            if not math.isfinite(row[_ROW_SCHEMA[name][0]]):
                raise InvalidInputError(f"{path}: line {lineno}: {name} is not finite")
        # a window argmax never moves back and never leaves rows 0..k
        low = records[-1].ell if records else 0
        if not low <= row["ell"] <= row["k"]:
            raise InvalidInputError(
                f"{path}: line {lineno}: ell {row['ell']} outside [{low}, {row['k']}]"
            )
        records.append(IterateRecord(x=x, **row))

    if not n_inline:
        side = path.with_suffix(".bin")
        if side.exists():
            X = _read_sidecar(side)
            if X.shape[0] != len(records):
                raise InvalidInputError(
                    f"{side}: row count {X.shape[0]} does not match CSV ({len(records)})"
                )
            for r, xrow in zip(records, X):
                r.x = xrow
    return Trace(algorithm=algorithm, records=records, config=dict(config or {}))
