"""Trace CSV / sidecar round-trips and malformed-input reporting."""

import struct

import numpy as np
import pytest

from kldescent.errors import InvalidInputError
from kldescent.trace import (
    CSV_COLUMNS,
    IterateRecord,
    SIDECAR_MAGIC,
    Trace,
    read_trace_csv,
    write_trace_csv,
)


def _toy_trace(n=3, rows=4, algorithm="npg_major"):
    rng = np.random.default_rng(42)
    records = []
    for k in range(rows):
        records.append(IterateRecord(
            k=k,
            x=rng.standard_normal(n),
            f_value=float(10.0 / (k + 1) + 0.1 * rng.standard_normal()),
            merit=float(10.0 / (k + 1)),
            ell=max(0, k - 1),
            gamma=float("nan") if k == 0 else 2.0 ** k / 3.0,
            beta=float("nan") if k == 0 else 0.1 * k,
            j_inner=-1 if k == 0 else k % 3,
            step_norm=0.0 if k == 0 else float(abs(rng.standard_normal())),
            residual=float("nan") if k == 0 else 1.0 / (k + 1) ** 2,
        ))
    return Trace(algorithm=algorithm, records=records,
                 config={"delta": 0.5, "m": 2})


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


def test_missing_sidecar_yields_empty_iterates(tmp_path):
    trace = _toy_trace(n=25, rows=3)
    path = tmp_path / "big.csv"
    side = write_trace_csv(trace, path)
    side.unlink()
    back = read_trace_csv(path)
    assert back.dimension == 0
    assert len(back) == 3


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
    with pytest.raises(InvalidInputError, match="cannot read"):
        read_trace_csv(tmp_path / "absent.csv")


def test_framework_steps_pair_norm():
    trace = _toy_trace(algorithm="pgenls")
    s = trace.column("step_norm")
    fs = trace.framework_steps(delta=0.5)
    assert fs[0] == s[0]
    for k in range(1, len(s)):
        assert fs[k] == pytest.approx(np.hypot(s[k], s[k - 1]))
    # delta = 0 falls back to the x-block
    np.testing.assert_array_equal(trace.framework_steps(delta=0.0), s)


def test_phi_values_pick_the_audited_merit():
    t_dc = _toy_trace(algorithm="npg_major")
    np.testing.assert_array_equal(t_dc.phi_values(), t_dc.column("F"))
    t_ex = _toy_trace(algorithm="pgenls")
    np.testing.assert_array_equal(t_ex.phi_values(), t_ex.column("merit"))
