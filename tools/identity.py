"""Byte-identity check of the ``kldescent`` command line between two checkouts.

    PYTHONPATH=src python tools/identity.py write MANIFEST
    python tools/identity.py diff A B

``write`` runs a fixed matrix of calls in this process through
``kldescent.cli.main``, each in its own directory under one temporary
directory, and writes a JSON manifest.  Per call it records the argv, the
exit code (or the exception that escaped ``main``), stdout, stderr, the
warnings raised and the SHA-256 of each file in the call's directory; the
temporary directory's path is replaced by ``<tmp>`` throughout, in each file
before it is hashed too.  ``diff`` prints every difference between two
manifests and exits 1 if there is any; it needs no ``kldescent``, which
only ``write`` imports.

Compare two checkouts on one machine.  Least-squares results depend on the
BLAS build, so a manifest from another machine differs for that reason alone,
and no manifest is committed.

The matrix:

* ``help``: ``verify --help``;
* ``run``: every catalog problem under each algorithm, at seeds 0, 1 and 3
  and window lengths 0 and 5 (``power4-1d`` capped at 1500 iterations); the
  concave problem under ``pgenls``/``pgnls`` must exit 1;
* ``verify`` of each run's trace with the complete flags, and with each
  solver flag dropped in turn;
* ``run`` under a start rule other than the default, at seed 0 and window
  lengths 0 and 5: the ``constant`` ``gamma_init_rule`` for ``lasso`` under
  ``npg_major`` and ``power4-1d`` under ``pgenls``, the ``nesterov``
  ``beta_init_rule`` for ``lasso`` under ``pgenls``; and ``verify`` of each
  with the complete flags;
* ``sweep``: one per problem, over the window length;
* ``data``: ``quad-l1`` with more rows than columns and ``mu`` not 1;
  ``lasso`` from CSV files written into the call's directory, once intact
  and once with a ``nan`` matrix cell (exit 1), and ``quad-l1`` from the
  intact files with ``mu`` 2.5; ``lasso`` on generated data with ``lam``
  given, and with only ``rows`` given; and ``lasso`` under
  ``pgenls``, ``l1-l2-dc`` under ``npg_major`` and a ``lasso`` sweep over the
  window length, back to back on one 600x1200 matrix, whose data and hint
  (on the Lanczos path) the later calls take from the catalog's memo, which
  the first one filled;
* ``bad``: one call per row of ``tools/bad_inputs.py``'s table of bad inputs,
  each in the directory of its call: malformed configs, traces and sidecars,
  numbers outside their field's domain in each block and in ``verify``'s
  flags, unknown fields, usage errors, outputs that cannot be written, sizes
  whose matrix numpy cannot make, and traces whose audit overflows or fails.
  A row that copies a reference run's trace copies it from the ``run``
  call above that makes the same run.

Each call is a label, also its directory under the root, and a call of
``tools/bad_inputs.py``'s form, which ``bad_inputs.invoke`` runs.  Its
``refs`` hold the directory of each earlier call by label: a ``verify`` call
reads its run's ``exp_out`` there, and is recorded as skipped when that run
wrote no report.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy

ALGORITHMS = ("npg_major", "pgenls", "pgnls")
SEEDS = (0, 1, 3)
WINDOWS = (0, 5)
MAX_OUTER = {"power4-1d": 1500}
# the algorithm each problem is swept under
SWEEPS = {"lasso": "pgenls", "l0-ls": "npg_major", "l1-l2-dc": "npg_major",
          "quad-l1": "npg_major", "power4-1d": "pgenls"}
# runs under a start rule other than the default: (problem, algorithm, field,
# value), the field set in the solver block
RULE_RUNS = (("lasso", "npg_major", "gamma_init_rule", "constant"),
             ("power4-1d", "pgenls", "gamma_init_rule", "constant"),
             ("lasso", "pgenls", "beta_init_rule", "nesterov"))
SWEEP_M = ("--param", "m", "--values", "0,5")
# one generated matrix whose smaller side is above the dense threshold
LANCZOS_PARAMS = {"seed": 0, "rows": 600, "cols": 1200}


# ---------------------------------------------------------------------------
# the matrix


def _config(problem: str, algorithm: str, seed: int, solver: dict, **extra) -> dict:
    solver = dict(solver)
    if problem in MAX_OUTER:
        solver.setdefault("max_outer", MAX_OUTER[problem])
    return {"problem": problem, "params": {"seed": seed}, "algorithm": algorithm,
            "solver": solver, **extra}


def _exp(verb: str, cfg: dict, *flags: str, files: Optional[dict] = None):
    """``verb`` of ``cfg``, written to ``exp.json`` (with ``files``) in the
    call's directory, then ``flags``."""
    import bad_inputs

    return bad_inputs.argv(verb, "{here}/exp.json", *flags,
                           files={**(files or {}), "exp.json": json.dumps(cfg)})


def _csv(array: numpy.ndarray) -> str:
    text = io.StringIO()
    numpy.savetxt(text, array, delimiter=",")
    return text.getvalue()


def _from_csv(A: numpy.ndarray, b: numpy.ndarray, problem: str = "lasso", **params):
    """``run`` of ``problem`` (with ``params``) under ``pgenls`` at ``m = 5``
    on ``A`` and ``b``, written as CSV files into the call's directory."""
    files = {"A_csv": "{here}/A.csv", "b_csv": "{here}/b.csv"}
    return _exp("run", _config(problem, "pgenls", 0, {"m": 5}, params={**files, **params}),
                files={"A.csv": _csv(A), "b.csv": _csv(b)})


def _label(run: tuple) -> str:
    """The directory of ``run``, ``(problem, algorithm, seed, m)`` followed by
    the ``(field, value)`` pairs of a non-default solver block, if any."""
    problem, algorithm, seed, m, *solver = run
    return f"run/{problem}/{algorithm}/s{seed}/m{m}" + "".join(
        f"/{field}-{value}" for field, value in solver)


def _verify(run: tuple, drop: Optional[str]) -> tuple:
    """``verify`` of ``run``'s trace with its complete flags but ``drop``;
    nothing to run if the run wrote no report."""
    import bad_inputs

    def call(here: Path, refs: dict) -> Optional[list]:
        _, algorithm, _, m, *_ = run
        out = refs[_label(run)] / "exp_out"
        flags = bad_inputs.verify_flags(out, algorithm, m)
        if flags is None:
            return None
        flags.pop(drop, None)
        return ["verify", str(out / "trace.csv"), *bad_inputs.argv_flags(flags)]
    label = _label(run).replace("run/", "verify/", 1) + "/" + (f"no-{drop}" if drop else "full")
    return label, call


def _bad_inputs() -> list:
    """One call per row of the bad-input table, given as its reference runs
    the ``run`` calls that make the same runs."""
    import bad_inputs

    labels = {}
    for name, cfg in bad_inputs.REFERENCES.items():
        run = (cfg["problem"], cfg["algorithm"], cfg["params"]["seed"], cfg["solver"]["m"])
        if cfg != _config(*run[:3], {"m": run[3]}):
            raise ValueError(f"no run call makes the reference run {name}")
        labels[name] = _label(run)

    def references(refs: dict) -> dict:
        return {name: bad_inputs.outputs(refs[label] / "exp_out", bad_inputs.REFERENCES[name])
                for name, label in labels.items()}
    return [(f"bad/{row.id}", lambda here, refs, row=row: row.call(here, references(refs)))
            for row in bad_inputs.ROWS]


def matrix() -> list:
    """Each call, as ``(label, call)``."""
    import bad_inputs
    import kldescent

    calls = [("help/verify", bad_inputs.argv("verify", "--help"))]
    runs = [(problem, algorithm, seed, m) for problem in kldescent.problem_ids()
            for algorithm in ALGORITHMS for seed in SEEDS for m in WINDOWS]
    calls += [(_label(run), _exp("run", _config(*run[:3], {"m": run[3]}))) for run in runs]
    for run in runs:
        last = "c" if run[1] == "npg_major" else "beta-max"
        calls += [_verify(run, drop) for drop in (None, "m", "a", "alpha", "delta", last)]
    for problem, algorithm, field, value in RULE_RUNS:
        for m in WINDOWS:
            run = (problem, algorithm, 0, m, (field, value))
            calls += [(_label(run), _exp("run", _config(problem, algorithm, 0,
                                                        {"m": m, field: value}))),
                      _verify(run, None)]
    calls += [(f"sweep/{problem}", _exp("sweep", _config(problem, algorithm, 0, {}), *SWEEP_M))
              for problem, algorithm in SWEEPS.items()]

    rng = numpy.random.default_rng(11)
    A, b = rng.standard_normal((12, 20)), rng.standard_normal(12)
    A_nan = A.copy()
    A_nan[3, 5] = math.nan
    calls += [
        ("data/quad-l1-40x25-mu2.5",
         _exp("run", _config("quad-l1", "npg_major", 0, {"m": 5},
                             params={"seed": 0, "rows": 40, "cols": 25, "mu": 2.5}))),
        ("data/lasso-csv", _from_csv(A, b)),
        ("data/lasso-csv-nan", _from_csv(A_nan, b)),
        ("data/quad-l1-csv-mu2.5", _from_csv(A, b, "quad-l1", mu=2.5)),
        ("data/lasso-lam-given",
         _exp("run", _config("lasso", "npg_major", 0, {"m": 5}, params={"seed": 0, "lam": 0.05}))),
        ("data/lasso-rows-only",
         _exp("run", _config("lasso", "pgenls", 0, {"m": 5}, params={"seed": 0, "rows": 80}))),
        ("data/lasso-600x1200",
         _exp("run", _config("lasso", "pgenls", 0, {"m": 5}, params=LANCZOS_PARAMS))),
        ("data/l1-l2-dc-600x1200",
         _exp("run", _config("l1-l2-dc", "npg_major", 0, {"m": 5}, params=LANCZOS_PARAMS))),
        ("data/sweep-lasso-600x1200",
         _exp("sweep", _config("lasso", "pgenls", 0, {}, params=LANCZOS_PARAMS), *SWEEP_M)),
    ]
    return calls + _bad_inputs()


# ---------------------------------------------------------------------------
# running and comparing


def _sha256(path: Path, root: Path) -> str:
    return hashlib.sha256(path.read_bytes().replace(bytes(root), b"<tmp>")).hexdigest()


def _record(label: str, result, root: Path) -> dict:
    """The record of call ``label``, a ``bad_inputs.Outcome``, with the
    hash of each file in its directory and ``<tmp>`` for ``root``."""
    if result.argv is None:
        return {"label": label, "skipped": True}
    here = root / label
    files = {str(p.relative_to(here)): _sha256(p, root)
             for p in sorted(here.rglob("*")) if p.is_file()}
    escaped = not isinstance(result.status, int)
    record = {"label": label, "argv": result.argv, "exit": None if escaped else result.status,
              "exception": result.status if escaped else None, "stdout": result.stdout,
              "stderr": result.stderr, "warnings": result.warnings, "files": files}
    return json.loads(json.dumps(record).replace(json.dumps(str(root))[1:-1], "<tmp>"))


def manifest(calls: list) -> dict:
    """Run ``calls`` in order in a fresh temporary directory, each given
    the directory of each call before it by label."""
    import bad_inputs
    import kldescent

    root = Path(tempfile.mkdtemp(prefix="kldescent-identity-")).resolve()
    refs, records = {}, []
    try:
        for label, call in calls:
            records.append(_record(label, bad_inputs.invoke(call, root / label, refs), root))
            refs[label] = root / label
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "kldescent": kldescent.__version__, "calls": records}


def diff(a: dict, b: dict) -> list[str]:
    """Every difference between two manifests, one line each."""
    lines = [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
             for key in ("python", "numpy", "kldescent") if a.get(key) != b.get(key)]
    calls_a = {c["label"]: c for c in a["calls"]}
    calls_b = {c["label"]: c for c in b["calls"]}
    lines += [f"{label}: only in A" for label in calls_a if label not in calls_b]
    lines += [f"{label}: only in B" for label in calls_b if label not in calls_a]
    for label, ca in calls_a.items():
        cb = calls_b.get(label)
        if cb is None:
            continue
        for key in sorted((set(ca) | set(cb)) - {"label", "files"}):
            if ca.get(key) != cb.get(key):
                lines.append(f"{label}: {key}: {ca.get(key)!r} != {cb.get(key)!r}")
        files_a, files_b = ca.get("files", {}), cb.get("files", {})
        for name in sorted(set(files_a) | set(files_b)):
            if files_a.get(name) != files_b.get(name):
                lines.append(f"{label}: file {name}: {files_a.get(name)} != {files_b.get(name)}")
    return lines


def _main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="run the matrix and write its manifest")
    p_write.add_argument("manifest")
    p_diff = sub.add_parser("diff", help="print every difference between two manifests")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        Path(args.manifest).write_text(json.dumps(manifest(matrix()), indent=1) + "\n")
        return 0
    lines = diff(json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()))
    print("\n".join(lines) if lines else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(_main())
