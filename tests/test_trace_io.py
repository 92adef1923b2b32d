"""Trace CSV / sidecar round-trips and malformed-input reporting."""

import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from kldescent.diagnostics import _framework_steps, _phi
from kldescent.errors import InvalidInputError, LogicError
from kldescent.trace import (
    CSV_COLUMNS,
    MAX_INLINE_DIM,
    SIDECAR_MAGIC,
    Trace,
    read_trace_csv,
    write_trace_csv,
)

NAN = float("nan")


def _trace(rows, X, algorithm="npg_major", **meta):
    """A trace from row tuples in CSV order and their iterates."""
    return Trace(algorithm=algorithm, columns=dict(zip(CSV_COLUMNS, zip(*rows))), X=X,
                 **meta)


def _toy_trace(n=3, rows=4, algorithm="npg_major"):
    rng = np.random.default_rng(42)
    cells, xs = [], []
    for k in range(rows):
        xs.append(rng.standard_normal(n))
        f_value = float(10.0 / (k + 1) + 0.1 * rng.standard_normal())
        step_norm = 0.0 if k == 0 else float(abs(rng.standard_normal()))
        cells.append((k, f_value, float(10.0 / (k + 1)),
                      NAN if k == 0 else 2.0 ** k / 3.0,  # gamma
                      NAN if k == 0 else 0.1 * k,         # beta
                      -1 if k == 0 else k % 3,            # j_inner
                      max(0, k - 1),                      # ell
                      step_norm,
                      NAN if k == 0 else 1.0 / (k + 1) ** 2))  # residual
    return _trace(cells, xs, algorithm, config={"delta": 0.5, "m": 2})


# the cell type of each CSV column, in file order
_CELL_TYPES = (("k", int), ("F", float), ("merit", float), ("gamma", float),
               ("beta", float), ("j_inner", int), ("ell", int), ("step_norm", float),
               ("residual", float))


def reference_write(trace: Trace, path: Path) -> Path:
    """The per-row writer that the columnar one replaced, kept as its spec."""
    n = trace.dimension
    inline = n <= MAX_INLINE_DIM
    header = list(CSV_COLUMNS) + ([f"x_{i}" for i in range(n)] if inline else [])
    lines = [",".join(header)]
    for k, x in enumerate(trace.X):
        cells = [repr(kind(trace.column(name)[k])) for name, kind in _CELL_TYPES]
        if inline:
            cells.extend(repr(float(v)) for v in x)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    if not inline:
        side = path.with_suffix(".bin")
        X = np.array(trace.X).astype("<f8")
        with open(side, "wb") as fh:
            fh.write(SIDECAR_MAGIC)
            fh.write(struct.pack("<II", n, len(trace)))
            fh.write(X.tobytes(order="C"))
        return side
    return path


def assert_same_bytes(trace: Trace, tmp_path: Path) -> None:
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir(parents=True)
    old.mkdir(parents=True)
    got = write_trace_csv(trace, new / "trace.csv")
    want = reference_write(trace, old / "trace.csv")
    assert got.name == want.name
    for name in ("trace.csv", "trace.bin"):
        assert (new / name).exists() == (old / name).exists(), name
        if (old / name).exists():
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


def random_trace(rng, n: int, rows: int) -> Trace:
    """Seeded rows with every kind of cell a solver writes: NaN gamma, beta
    and residual, j_inner = -1, zero and subnormal steps, signed zeros."""
    specials = [NAN, 0.0, -0.0, 5e-324, 1e300, -2.5]

    def pick():
        if rng.random() < 0.3:
            return specials[rng.integers(len(specials))]
        return float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))

    cells, ell = [], 0
    for k in range(rows):
        ell = int(rng.integers(ell, k + 1))
        cells.append((k, abs(pick()) if k else 1.0, pick(), pick(), pick(),
                      int(rng.integers(-1, 5)), ell, abs(pick()), pick()))
    xs = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8) for _ in range(rows)]
    return _trace(cells, xs, str(rng.choice(["npg_major", "pgenls"])))


def test_writer_matches_the_per_record_writer_on_random_traces(tmp_path):
    rng = np.random.default_rng(20261018)
    for case in range(40):
        n = int(rng.integers(0, 2 * MAX_INLINE_DIM + 2))
        trace = random_trace(rng, n, int(rng.integers(1, 30)))
        assert_same_bytes(trace, tmp_path / str(case))
    # both sides of the inline limit
    for n in (MAX_INLINE_DIM, MAX_INLINE_DIM + 1):
        assert_same_bytes(random_trace(rng, n, 7), tmp_path / f"n{n}")


def test_writer_matches_the_per_record_writer_on_the_suite(suite, tmp_path):
    sidecars = 0
    for i, run in enumerate(suite.runs):
        assert_same_bytes(run.trace, tmp_path / str(i))
        sidecars += run.trace.dimension > MAX_INLINE_DIM
    assert 0 < sidecars < len(suite.runs)


def test_columns_are_stored_typed_and_read_only():
    trace = _toy_trace()
    for name in CSV_COLUMNS:
        assert trace.column(name) is trace.column(name), name
        with pytest.raises(ValueError, match="read-only"):
            trace.column(name)[0] = 0
    with pytest.raises(TypeError):
        trace.columns["ell"] = np.zeros(len(trace), dtype=int)
    assert trace.X.dtype == np.float64 and trace.X.shape == (len(trace), 3)
    with pytest.raises(ValueError, match="read-only"):
        trace.X[0, 0] = 0.0
    # a replaced column is typed again, so it is read-only too
    ell = trace.column("ell").copy()
    ell[2] = 0
    swapped = dataclasses.replace(trace, columns=dict(trace.columns, ell=ell.tolist()))
    assert swapped.column("ell").dtype == np.int64 and swapped.column("ell")[2] == 0
    assert not swapped.column("ell").flags.writeable
    assert trace.column("ell")[2] == 1


def test_records_are_a_view_of_the_columns():
    # the only test that reads Trace.records, kept while perfbench/ reads it
    trace = _toy_trace(n=2, rows=3)
    rows = trace.records
    assert rows is not trace.records
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[2].ell = 1
    assert [r.k for r in rows] == [0, 1, 2]
    assert [r.j_inner for r in rows] == [-1, 1, 2]
    np.testing.assert_array_equal([r.f_value for r in rows], trace.column("F"))
    assert all(np.shares_memory(r.x, trace.X[k]) for k, r in enumerate(rows))


def test_columns_must_match_the_iterates():
    with pytest.raises(LogicError, match="column k has shape"):
        _trace([(0, 1.0, 1.0, NAN, NAN, -1, 0, 0.0, NAN)], np.empty((0, 1)))
    with pytest.raises(LogicError, match="column k has shape"):
        _trace([(0, 1.0, 1.0, NAN, NAN, -1, 0, 0.0, NAN)], np.zeros((2, 3)))
    assert len(Trace(algorithm="pgenls")) == 0


def test_round_trip_exact(tmp_path):
    trace = _toy_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path, algorithm="npg_major", config=trace.config)
    assert len(back) == len(trace)
    # repr() round-trips float64 exactly; NaNs compare equal
    np.testing.assert_array_equal(back.iterates(), trace.iterates())
    for name in CSV_COLUMNS:
        orig, rt = trace.column(name), back.column(name)
        expect = np.int64 if name in ("k", "j_inner", "ell") else np.float64
        assert orig.dtype == rt.dtype == expect, name
        np.testing.assert_array_equal(rt, orig, err_msg=name)


def test_header_layout(tmp_path):
    trace = _toy_trace(n=2, rows=2)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS) + ",x_0,x_1"


def test_sidecar_written_for_large_dimension(tmp_path):
    trace = _toy_trace(n=21, rows=5)
    path = tmp_path / "big.csv"
    side = write_trace_csv(trace, path)
    assert side == tmp_path / "big.bin"
    raw = side.read_bytes()
    assert raw[:8] == SIDECAR_MAGIC
    n, rows = struct.unpack("<II", raw[8:16])
    assert (n, rows) == (21, 5)
    # CSV itself has no x_ columns
    assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    back = read_trace_csv(path)
    assert back.dimension == 21
    np.testing.assert_array_equal(back.iterates(), trace.iterates())
    # the matrix is a view of the sidecar's bytes, and iterates() returns it
    assert back.iterates() is back.X and not back.X.flags.owndata


def test_missing_sidecar_yields_empty_iterates(tmp_path):
    trace = _toy_trace(n=25, rows=3)
    path = tmp_path / "big.csv"
    side = write_trace_csv(trace, path)
    side.unlink()
    back = read_trace_csv(path)
    assert back.dimension == 0
    assert len(back) == 3
    assert back.X.shape == (3, 0)


@pytest.mark.parametrize("n", [12, 0])
def test_an_inline_trace_removes_the_sidecar_of_an_earlier_wide_one(tmp_path, n):
    path = tmp_path / "trace.csv"
    side = write_trace_csv(_toy_trace(n=25, rows=3), path)
    small = _toy_trace(n=n, rows=4)
    assert write_trace_csv(small, path) == path
    assert not side.exists()
    # with no x_ columns the reader would take the stale sidecar's iterates
    np.testing.assert_array_equal(read_trace_csv(path).X, small.X)


def test_corrupt_sidecar_magic(tmp_path):
    trace = _toy_trace(n=22, rows=2)
    path = tmp_path / "big.csv"
    side = write_trace_csv(trace, path)
    side.write_bytes(b"NOTMAGIC" + side.read_bytes()[8:])
    with pytest.raises(InvalidInputError, match="magic"):
        read_trace_csv(path)


def test_truncated_sidecar_payload(tmp_path):
    trace = _toy_trace(n=22, rows=2)
    path = tmp_path / "big.csv"
    side = write_trace_csv(trace, path)
    side.write_bytes(side.read_bytes()[:-8])
    with pytest.raises(InvalidInputError, match="bytes"):
        read_trace_csv(path)


def test_unreadable_sidecar(tmp_path):
    path = tmp_path / "big.csv"
    side = write_trace_csv(_toy_trace(n=22, rows=2), path)
    side.unlink()
    side.mkdir()
    with pytest.raises(InvalidInputError, match=f"^cannot read {re.escape(str(side))}: "):
        read_trace_csv(path)


def test_malformed_cell_names_line_number(tmp_path):
    trace = _toy_trace(n=2, rows=3)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "not-a-number"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match="line 3"):
        read_trace_csv(path)


def test_wrong_cell_count_names_line_number(tmp_path):
    trace = _toy_trace(n=2, rows=3)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    lines[3] += ",0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match="line 4"):
        read_trace_csv(path)


def test_blank_lines_are_skipped_and_counted(tmp_path):
    path, again = tmp_path / "t.csv", tmp_path / "again.csv"
    write_trace_csv(_toy_trace(n=2, rows=8), path)
    text = path.read_text()
    lines = text.splitlines()
    lines[1:1] = [""]  # a blank line after the header
    lines[5:5] = ["  "]
    path.write_text("\n".join(lines) + "\n")
    write_trace_csv(read_trace_csv(path), again)
    assert again.read_text() == text
    cells = lines[7].split(",")  # file line 8, the data row k = 5
    cells[CSV_COLUMNS.index("F")] = "abc"
    path.write_text("\n".join(lines[:7] + [",".join(cells)] + lines[8:]) + "\n")
    with pytest.raises(InvalidInputError, match=r": line 8: could not convert"):
        read_trace_csv(path)
    path.write_text("\n\n" + "\n".join(["K" + lines[0][1:]] + lines[1:]) + "\n")
    with pytest.raises(InvalidInputError, match=r": line 3: header must start"):
        read_trace_csv(path)
    path.write_text("\n" + lines[0] + "\n\n")
    with pytest.raises(InvalidInputError, match=r": line 3: no rows after the header$"):
        read_trace_csv(path)


def rewrite_cell(path, row, column, value):
    """Set one cell of data row ``row`` (0-based) of the CSV at ``path``."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[CSV_COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column", ["F", "merit", "step_norm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_cell_rejected(tmp_path, column, value):
    path = tmp_path / "t.csv"
    write_trace_csv(_toy_trace(n=2, rows=4), path)
    rewrite_cell(path, 2, column, value)
    with pytest.raises(InvalidInputError, match=f"line 4: {column} is not finite$"):
        read_trace_csv(path)


@pytest.mark.parametrize("column", ["step_norm", "residual"])
def test_negative_norm_rejected(tmp_path, column):
    path = tmp_path / "t.csv"
    write_trace_csv(_toy_trace(n=2, rows=4), path)  # row 0's residual is NaN
    rewrite_cell(path, 2, column, "-0.5")
    with pytest.raises(InvalidInputError, match=f"line 4: {column} is negative$"):
        read_trace_csv(path)


@pytest.mark.parametrize("row, ell, bounds", [
    (0, "-1", "[0, 0]"),   # negative
    (2, "3", "[0, 2]"),    # above its row's k
    (3, "0", "[1, 3]"),    # below the previous row's ell
])
def test_impossible_ell_rejected(tmp_path, row, ell, bounds):
    path = tmp_path / "t.csv"
    write_trace_csv(_toy_trace(n=2, rows=4), path)  # ell = 0, 0, 1, 2
    rewrite_cell(path, row, "ell", ell)
    with pytest.raises(InvalidInputError,
                       match=rf"line {row + 2}: ell {ell} outside \{bounds}$"):
        read_trace_csv(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,F,merit\n0,1.0,1.0\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        read_trace_csv(path)


def test_out_of_order_rows_rejected(tmp_path):
    trace = _toy_trace(n=2, rows=3)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match="out of order"):
        read_trace_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(InvalidInputError, match="empty"):
        read_trace_csv(path)
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(InvalidInputError,
                       match=f"^{re.escape(str(path))}: line 2: no rows after the header$"):
        read_trace_csv(path)
    with pytest.raises(InvalidInputError, match="cannot read"):
        read_trace_csv(tmp_path / "absent.csv")


def test_framework_steps_pair_norm():
    trace = _toy_trace(algorithm="pgenls")
    s = trace.column("step_norm")
    fs = _framework_steps(trace, 0.5)
    assert fs[0] == s[0]
    for k in range(1, len(s)):
        assert fs[k] == pytest.approx(np.hypot(s[k], s[k - 1]))
    # delta = 0 falls back to the x-block
    np.testing.assert_array_equal(_framework_steps(trace, 0.0), s)


def test_phi_values_pick_the_audited_merit():
    t_dc = _toy_trace(algorithm="npg_major")
    np.testing.assert_array_equal(_phi(t_dc), t_dc.column("F"))
    t_ex = _toy_trace(algorithm="pgenls")
    np.testing.assert_array_equal(_phi(t_ex), t_ex.column("merit"))
