"""The byte-identity harness ``tools/identity.py``: on one checkout it finds
nothing to report, and it reports a 1-ulp change in one trace cell."""

from pathlib import Path

import numpy as np
import pytest

import kldescent.cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# a run with a sidecar and an inline one, the calls that read their traces,
# and the runs on data files, whose config and report hold the call's path
PREFIXES = ("run/lasso/pgenls/s0/m5", "run/power4-1d/pgenls/s0/m0",
            "verify/lasso/pgenls/s0/m5/", "reader/", "input/x0-", "data/")


@pytest.fixture
def identity(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import identity

    return identity


def _calls(identity):
    return [call for call in identity.matrix() if call.label.startswith(PREFIXES)]


def test_same_checkout_gives_the_same_manifest(identity):
    calls = _calls(identity)
    first, second = identity.manifest(calls), identity.manifest(calls)
    assert identity.diff(first, second) == []
    by_label = {c["label"]: c for c in first["calls"]}
    assert len(by_label) == len(calls) > 20
    run = by_label["run/lasso/pgenls/s0/m5"]
    assert run["exit"] == 0 and {"exp_out/trace.csv", "exp_out/trace.bin"} <= set(run["files"])
    missing = by_label["reader/sidecar-missing"]
    assert missing["exit"] == 0 and missing["stderr"] == ""
    csv = by_label["data/lasso-csv"]
    assert csv["exit"] == 0 and {"A.csv", "exp.json", "exp_out/report.json"} <= set(csv["files"])
    assert by_label["data/lasso-csv-nan"]["stderr"] == (
        "kldescent: error: matrix loaded from '<tmp>/data/lasso-csv-nan/A.csv' "
        "has non-finite entries\n")
    magic = by_label["reader/sidecar-magic"]
    assert magic["exit"] == 1
    assert magic["stderr"].startswith("kldescent: error: <tmp>/reader/sidecar-magic/trace.bin")


def test_a_one_ulp_change_in_a_trace_cell_is_reported(identity, monkeypatch):
    calls = _calls(identity)
    clean = identity.manifest(calls)
    write = kldescent.cli.write_trace_csv

    def nudged(trace, path):
        side = write(trace, path)
        if trace.problem_id == "power4-1d":  # F of row 5, one ulp up
            lines = path.read_text().splitlines()
            cells = lines[6].split(",")
            cells[1] = repr(float(np.nextafter(float(cells[1]), np.inf)))
            lines[6] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        return side

    monkeypatch.setattr(kldescent.cli, "write_trace_csv", nudged)
    lines = identity.diff(clean, identity.manifest(calls))
    assert any(line.startswith("run/power4-1d/pgenls/s0/m0: file exp_out/trace.csv: ")
               for line in lines), lines
    assert not any(line.startswith("run/lasso/") for line in lines), lines
