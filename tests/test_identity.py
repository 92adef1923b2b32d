"""The byte-identity harness ``tools/identity.py``: on one checkout it finds
nothing to report, and it reports a 1-ulp change in one trace cell."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bad_inputs
import identity
import kldescent.cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# the runs the bad inputs take as reference runs, a sidecar and an inline one
# among them, the verify calls of one, the bad inputs that read their traces
# (the generated rows of pgnls's fixed flags among them) or size a matrix, and
# the runs on data files, whose config and report hold the call's path
PREFIXES = ("run/lasso/npg_major/s0/m5", "run/lasso/pgenls/s0/m5", "run/lasso/pgnls/s0/m5",
            "run/power4-1d/pgenls/s0/m0", "verify/lasso/pgenls/s0/m5/", "bad/verify-",
            "bad/quad-l1-", "data/")


def _calls():
    return [(label, call) for label, call in identity.matrix() if label.startswith(PREFIXES)]


def test_same_checkout_gives_the_same_manifest():
    calls = _calls()
    first, second = identity.manifest(calls), identity.manifest(calls)
    assert identity.diff(first, second) == []
    by_label = {c["label"]: c for c in first["calls"]}
    assert len(by_label) == len(calls) > 20
    run = by_label["run/lasso/pgenls/s0/m5"]
    assert run["exit"] == 0 and {"exp_out/trace.csv", "exp_out/trace.bin"} <= set(run["files"])
    # each bad input makes the call it makes under the table's own test
    for row in bad_inputs.ROWS:
        record = by_label.get(f"bad/{row.id}")
        if record is not None:
            assert record["exit"] == row.status and row.fragment in record["stderr"], record
    csv = by_label["data/lasso-csv"]
    assert csv["exit"] == 0 and {"A.csv", "exp.json", "exp_out/report.json"} <= set(csv["files"])
    for name in ("quad-l1-csv-mu2.5", "lasso-lam-given", "lasso-rows-only"):
        assert by_label[f"data/{name}"]["exit"] == 0
    assert by_label["data/lasso-csv-nan"]["stderr"] == (
        "kldescent: error: matrix loaded from '<tmp>/data/lasso-csv-nan/A.csv' "
        "has non-finite entries\n")
    # a step whose square is past float64 warns of nothing
    huge = by_label["bad/verify-step-whose-square-overflows"]
    assert huge["stderr"] == "kldescent: error: audit failure: acceptance, h1, h3, h4, prop_bound\n"
    assert huge["warnings"] == []
    assert by_label["bad/verify-sidecar-magic"]["stderr"].startswith(
        "kldescent: error: <tmp>/bad/verify-sidecar-magic/trace.bin")


def test_a_one_ulp_change_in_a_trace_cell_is_reported(monkeypatch):
    calls = _calls()
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


def test_diff_runs_without_kldescent(tmp_path):
    # only ``write`` runs the package: the subprocess has no ``src`` on its
    # path, and an import of ``kldescent`` would fail even if one were installed
    record = {"label": "run/lasso/pgenls/s0/m5", "exit": 0, "stdout": "",
              "files": {"exp_out/report.json": "0" * 64}}
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(
            {"python": "3", "numpy": "2", "kldescent": "0", "calls": [record]}))
    script = ("import runpy, sys; sys.modules['kldescent'] = None; "
              f"sys.argv = [{str(TOOLS / 'identity.py')!r}, 'diff', 'a.json', 'b.json']; "
              "runpy.run_path(sys.argv[0], run_name='__main__')")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "no differences\n", "")
