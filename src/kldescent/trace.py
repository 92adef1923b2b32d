"""Iteration traces: one typed, read-only array per CSV column plus the
read-only iterate matrix ``X`` (row ``k`` is ``x^k``), with CSV / binary round-trip.

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
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .domains import RULES, check, shown
from .errors import InvalidInputError, LogicError
from .oracles import Vector

__all__ = ["IterateRecord", "Trace", "write_trace_csv", "read_trace_csv",
           "CSV_COLUMNS", "SIDECAR_MAGIC"]

# CSV column -> cell type, in file order; IterateRecord's fields follow it
_ROW_SCHEMA = {
    "k": int, "F": float, "merit": float, "gamma": float, "beta": float,
    "j_inner": int, "ell": int, "step_norm": float, "residual": float,
}
CSV_COLUMNS = tuple(_ROW_SCHEMA)
SIDECAR_MAGIC = b"KLTRACE1"
MAX_INLINE_DIM = 20


@dataclass(frozen=True)
class IterateRecord:
    k: int
    f_value: float
    merit: float
    gamma: float
    beta: float
    j_inner: int
    ell: int
    step_norm: float
    residual: float
    x: Vector


@dataclass
class Trace:
    """A run's rows, iterates and config snapshot.  The snapshot fields an
    audit reads (``RULES["snapshot"]``'s, and ``gamma_min`` without an ``a`` to
    derive ``a`` from; ``None`` is absent) are checked once, here, against
    ``RULES["audit"]`` in snapshot order and kept converted; then it is read-only."""

    algorithm: str
    columns: Mapping[str, Sequence] = field(default_factory=dict)  # typed read-only at init
    X: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # row k is x^k
    problem_id: str = ""
    config: Mapping[str, object] = field(default_factory=dict)  # checked read-only at init
    seed: Optional[int] = None
    terminated: str = ""  # "tolerance" | "stationary" | "max_outer" | ""

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)  # no copy of a float64 matrix
        self.X.flags.writeable = False
        self.columns = MappingProxyType({name: np.array(self.columns.get(name, ()), dtype=kind)
                                         for name, kind in _ROW_SCHEMA.items()})
        for name, col in self.columns.items():
            if col.shape != (len(self),):
                raise LogicError(f"column {name} has shape {col.shape} for {len(self)} rows")
            col.flags.writeable = False
        snapshot = RULES["snapshot"]
        read = snapshot if self.config.get("a") is not None else {*snapshot, "gamma_min"}
        audited = {name: value for name, value in self.config.items()
                   if name in read and value is not None}
        self.config = MappingProxyType({**self.config, **check("audit", **audited)})

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    @property
    def records(self) -> list[IterateRecord]:
        """The rows as objects, built anew on each call."""
        cols = [self.columns[name].tolist() for name in CSV_COLUMNS]
        return [IterateRecord(*row) for row in zip(*cols, self.X)]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def iterates(self) -> np.ndarray:
        return self.X


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` to ``path``; returns the sidecar path when one was needed.

    An inline trace removes the sidecar an earlier, wider trace left at the
    same path, so that the CSV and its sidecar never come from two runs.
    """
    path = Path(path)
    n = trace.dimension
    inline = n <= MAX_INLINE_DIM
    header = list(CSV_COLUMNS) + ([f"x_{i}" for i in range(n)] if inline else [])
    cells = [map(repr, trace.columns[name].tolist()) for name in CSV_COLUMNS]
    if inline:
        cells.extend(map(repr, col) for col in trace.X.T.tolist())
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    path.write_text("\n".join(lines) + "\n")
    side = path.with_suffix(".bin")
    if inline:
        side.unlink(missing_ok=True)
        return path
    with open(side, "wb") as fh:
        fh.write(SIDECAR_MAGIC)
        fh.write(struct.pack("<II", n, len(trace)))
        trace.X.astype("<f8", copy=False).tofile(fh)
    return side


def _read_sidecar(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 16 or raw[:8] != SIDECAR_MAGIC:
        raise InvalidInputError(f"{path} is not a trace sidecar (bad magic)")
    n, rows = struct.unpack("<II", raw[8:16])
    expect = 16 + 8 * n * rows
    if len(raw) != expect:
        raise InvalidInputError(
            f"{path}: expected {expect} bytes for {rows}x{n} payload, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, n)


def read_trace_csv(path: str | Path, algorithm: str = "", config: dict | None = None) -> Trace:
    """Load a trace written by :func:`write_trace_csv`.

    Malformed content raises ``InvalidInputError`` naming the offending line;
    ``config`` becomes the trace's snapshot, checked once the rows are read.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    # (number in the file, line) of each line that is not blank
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{path}: empty trace file (line 1)")
    head, first = lines[0]
    header = first.split(",")
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise InvalidInputError(
            f"{path}: line {head}: header must start with {','.join(CSV_COLUMNS)}"
        )
    x_cols = header[len(CSV_COLUMNS):]
    for i, name in enumerate(x_cols):
        if name != f"x_{i}":
            raise InvalidInputError(f"{path}: line {head}: unexpected column {name!r}")
    n_inline = len(x_cols)
    if len(lines) == 1:
        raise InvalidInputError(f"{path}: line {head + 1}: no rows after the header")

    rows: list[tuple] = []
    xs: list[list[float]] = []
    low = 0  # a window argmax never moves back and never leaves rows 0..k
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise InvalidInputError(
                f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        try:
            row = {name: kind(cell)
                   for (name, kind), cell in zip(_ROW_SCHEMA.items(), cells)}
            x = [float(c) for c in cells[len(CSV_COLUMNS):]]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {lineno}: {exc}") from exc
        if row["k"] != len(rows):
            raise InvalidInputError(
                f"{path}: line {lineno}: iteration index {row['k']} out of order"
            )
        for name in ("F", "merit", "step_norm"):
            if not math.isfinite(row[name]):
                raise InvalidInputError(f"{path}: line {lineno}: {name} is not finite")
        for name in ("step_norm", "residual"):  # a NaN residual, as on row 0, passes
            if row[name] < 0.0:
                raise InvalidInputError(f"{path}: line {lineno}: {name} is negative")
        if rows and not row["gamma"] > 0.0:  # row 0's is NaN
            raise InvalidInputError(f"{path}: line {lineno}: gamma is not positive")
        j_low = 0 if rows else -2**63  # row 0's is -1
        if not j_low <= row["j_inner"] < 2**63:
            raise InvalidInputError(f"{path}: line {lineno}: j_inner {shown(row['j_inner'])} "
                                    f"outside [{j_low}, {2**63 - 1}]")
        if not low <= row["ell"] <= row["k"]:
            raise InvalidInputError(
                f"{path}: line {lineno}: ell {row['ell']} outside [{low}, {row['k']}]"
            )
        low = row["ell"]
        rows.append(tuple(row.values()))
        xs.append(x)

    X = np.array(xs)  # shape (rows, 0) for a wide trace
    side = path.with_suffix(".bin")
    if not n_inline and side.exists():
        X = _read_sidecar(side)
        if X.shape[0] != len(rows):
            raise InvalidInputError(
                f"{side}: row count {X.shape[0]} does not match CSV ({len(rows)})"
            )
    return Trace(algorithm=algorithm, columns=dict(zip(CSV_COLUMNS, zip(*rows))), X=X,
                 config=config or {})
