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
* ``reference``: the reference runs of ``tools/bad_inputs.py``, whose
  outputs are not recorded (the ``run`` calls above make the same ones);
* ``bad``: one call per row of ``tools/bad_inputs.py``'s table of bad inputs,
  each in the directory of its call: malformed configs, traces and sidecars,
  numbers outside their field's domain in each block and in ``verify``'s
  flags, unknown fields, usage errors, outputs that cannot be written, sizes
  whose matrix numpy cannot make, and traces whose audit overflows or fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

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
# one generated matrix whose smaller side is above the dense threshold
LANCZOS_PARAMS = {"seed": 0, "rows": 600, "cols": 1200}


@dataclass(frozen=True)
class Call:
    """One ``main`` call.  ``argv`` gets the root and the call's own
    directory and returns the arguments, or ``None`` to skip the call (a
    call that only prepares); ``prepare`` fills the call's directory first."""

    label: str  # also the call's directory under the root
    argv: Callable[[Path, Path], Optional[list]]
    prepare: Optional[Callable[[Path, Path], None]] = None


# ---------------------------------------------------------------------------
# the matrix


def _config(problem: str, algorithm: str, seed: int, solver: dict, **extra) -> dict:
    solver = dict(solver)
    if problem in MAX_OUTER:
        solver.setdefault("max_outer", MAX_OUTER[problem])
    return {"problem": problem, "params": {"seed": seed}, "algorithm": algorithm,
            "solver": solver, **extra}


def _write(name: str, text: str) -> Callable[[Path, Path], None]:
    def prepare(root: Path, here: Path) -> None:
        (here / name).write_text(text)
    return prepare


def _run(label: str, cfg: dict) -> Call:
    return Call(label, lambda root, here: ["run", str(here / "exp.json")],
                _write("exp.json", json.dumps(cfg)))


def _from_csv(name: str, A: numpy.ndarray, b: numpy.ndarray, problem: str = "lasso",
              **params) -> Call:
    """``run`` of ``problem`` (with ``params``) under ``pgenls`` at ``m = 5``
    on ``A`` and ``b``, written as CSV files into the call's directory."""
    def prepare(root: Path, here: Path) -> None:
        numpy.savetxt(here / "A.csv", A, delimiter=",")
        numpy.savetxt(here / "b.csv", b, delimiter=",")
        files = {"A_csv": str(here / "A.csv"), "b_csv": str(here / "b.csv")}
        (here / "exp.json").write_text(
            json.dumps(_config(problem, "pgenls", 0, {"m": 5}, params={**files, **params})))
    return Call(f"data/{name}", lambda root, here: ["run", str(here / "exp.json")], prepare)


def _label(run: tuple) -> str:
    """The directory of ``run``, ``(problem, algorithm, seed, m)`` followed by
    the ``(field, value)`` pairs of a non-default solver block, if any."""
    problem, algorithm, seed, m, *solver = run
    return f"run/{problem}/{algorithm}/s{seed}/m{m}" + "".join(
        f"/{field}-{value}" for field, value in solver)


def _verify(run: tuple, drop: Optional[str]) -> Call:
    """``verify`` of ``run``'s trace with its complete flags but ``drop``;
    skipped if the run wrote no report."""
    def argv(root: Path, here: Path) -> Optional[list]:
        import bad_inputs

        _, algorithm, _, m, *_ = run
        out = root / _label(run) / "exp_out"
        flags = bad_inputs.verify_flags(out, algorithm, m)
        if flags is None:
            return None
        flags.pop(drop, None)
        return ["verify", str(out / "trace.csv"), *bad_inputs.argv_flags(flags)]
    label = _label(run).replace("run/", "verify/", 1) + "/" + (f"no-{drop}" if drop else "full")
    return Call(label, argv)


def _sweep(label: str, cfg: dict, param: str, values: str) -> Call:
    return Call(label, lambda root, here: ["sweep", str(here / "exp.json"),
                                           "--param", param, "--values", values],
                _write("exp.json", json.dumps(cfg)))


def _bad_inputs() -> list[Call]:
    """A call that makes the reference runs, then one call per bad input."""
    import bad_inputs

    references = {}
    return [Call("reference", lambda root, here: None,
                 lambda root, here: references.update(bad_inputs.reference_runs(here))),
            *(Call(f"bad/{row.id}", lambda root, here, row=row: row.call(here, references))
              for row in bad_inputs.ROWS)]


def matrix() -> list[Call]:
    import kldescent

    calls = [Call("help/verify", lambda root, here: ["verify", "--help"])]
    runs = [(problem, algorithm, seed, m) for problem in kldescent.problem_ids()
            for algorithm in ALGORITHMS for seed in SEEDS for m in WINDOWS]
    for run in runs:
        problem, algorithm, seed, m = run
        calls.append(_run(_label(run), _config(problem, algorithm, seed, {"m": m})))
    for run in runs:
        last = "c" if run[1] == "npg_major" else "beta-max"
        for drop in (None, "m", "a", "alpha", "delta", last):
            calls.append(_verify(run, drop))
    for problem, algorithm, field, value in RULE_RUNS:
        for m in WINDOWS:
            run = (problem, algorithm, 0, m, (field, value))
            calls += [_run(_label(run), _config(problem, algorithm, 0, {"m": m, field: value})),
                      _verify(run, None)]
    for problem, algorithm in SWEEPS.items():
        calls.append(_sweep(f"sweep/{problem}", _config(problem, algorithm, 0, {}), "m", "0,5"))

    rng = numpy.random.default_rng(11)
    A, b = rng.standard_normal((12, 20)), rng.standard_normal(12)
    A_nan = A.copy()
    A_nan[3, 5] = math.nan
    calls += [
        _run("data/quad-l1-40x25-mu2.5",
             _config("quad-l1", "npg_major", 0, {"m": 5},
                     params={"seed": 0, "rows": 40, "cols": 25, "mu": 2.5})),
        _from_csv("lasso-csv", A, b),
        _from_csv("lasso-csv-nan", A_nan, b),
        _from_csv("quad-l1-csv-mu2.5", A, b, "quad-l1", mu=2.5),
        _run("data/lasso-lam-given",
             _config("lasso", "npg_major", 0, {"m": 5}, params={"seed": 0, "lam": 0.05})),
        _run("data/lasso-rows-only",
             _config("lasso", "pgenls", 0, {"m": 5}, params={"seed": 0, "rows": 80})),
        _run("data/lasso-600x1200",
             _config("lasso", "pgenls", 0, {"m": 5}, params=LANCZOS_PARAMS)),
        _run("data/l1-l2-dc-600x1200",
             _config("l1-l2-dc", "npg_major", 0, {"m": 5}, params=LANCZOS_PARAMS)),
        _sweep("data/sweep-lasso-600x1200",
               _config("lasso", "pgenls", 0, {}, params=LANCZOS_PARAMS), "m", "0,5"),
    ]
    return calls + _bad_inputs()


# ---------------------------------------------------------------------------
# running and comparing


def _sha256(path: Path, root: Path) -> str:
    return hashlib.sha256(path.read_bytes().replace(bytes(root), b"<tmp>")).hexdigest()


def _call(call: Call, root: Path) -> dict:
    from kldescent.cli import main

    here = root / call.label
    here.mkdir(parents=True)
    if call.prepare:
        call.prepare(root, here)
    argv = call.argv(root, here)
    if argv is None:
        return {"label": call.label, "skipped": True}
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = None, None
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")  # each call sees its warnings, not just the first
        try:
            exit_code = main(argv)
        except SystemExit as exc:  # argparse's --help
            exit_code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome
            exception = f"{type(exc).__name__}: {exc}"
    files = {str(p.relative_to(here)): _sha256(p, root)
             for p in sorted(here.rglob("*")) if p.is_file()}
    record = {"label": call.label, "argv": argv, "exit": exit_code,
              "exception": exception, "stdout": out.getvalue(), "stderr": err.getvalue(),
              "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
              "files": files}
    return json.loads(json.dumps(record).replace(json.dumps(str(root))[1:-1], "<tmp>"))


def manifest(calls: list[Call]) -> dict:
    """Run ``calls`` in order in a fresh temporary directory."""
    import kldescent

    root = Path(tempfile.mkdtemp(prefix="kldescent-identity-")).resolve()
    try:
        records = [_call(call, root) for call in calls]
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
