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
* ``reader``: one malformed trace per reader message, plus a trace whose
  sidecar is gone; a four-row DC trace whose steps of 1e-170 square to 0,
  so the ``mu`` fitted from its ``b_bar`` is inf; a three-row DC trace whose
  residual over a step of 1e-310 is past the float range; a DC trace
  edited so that acceptance alone fails, once as it is and once with the
  edited row's ``gamma`` negated; and a trace with a ``j_inner`` of 2**70,
  one with a ``j_inner`` of -7 and one with a step of 1e200, whose square
  is past the float range;
* ``input``: numbers a config cannot hold (integers beyond the float or
  int64 range or over 4300 digits), non-finite ones and ones outside their
  field's domain, in each block and in ``verify``'s flags; an unknown field
  in each block; an ``npg_major`` solver block with two bad fields, which
  names the first field checked; ``pgnls`` with a nonzero and a non-number
  ``delta``, and ``verify`` of a ``pgnls`` trace with a nonzero ``delta``
  and a nonzero ``beta_max``; sizes whose matrix numpy cannot make; a window ``m`` whose
  default ``kbar`` is past int64; and ``run`` at ``m = 1000``, where the path-length constant is
  beyond the float range, with ``verify`` of its trace.
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
from dataclasses import asdict, dataclass
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
# the runs (problem, algorithm, seed, m) whose traces the reader cases
# corrupt: one with a sidecar, one inline
SIDECAR_RUN = ("lasso", "pgenls", 0, 5)
INLINE_RUN = ("power4-1d", "pgenls", 0, 0)
# one generated matrix whose smaller side is above the dense threshold
LANCZOS_PARAMS = {"seed": 0, "rows": 600, "cols": 1200}
HUGE = 10**400
DIGITS_4301 = "1" + "0" * 4300
# a DC trace whose two tiny steps square to 0, with the verify flags of it
UNDERFLOW_TRACE = """k,F,merit,gamma,beta,j_inner,ell,step_norm,residual
0,1.0,1.0,nan,nan,-1,0,0.0,nan
1,0.5,0.5,1.0,nan,0,0,1e-170,0.0
2,0.6,0.6,1.0,nan,0,0,1e-170,0.0
3,0.1,0.1,1.0,nan,0,2,1.0,0.0
"""
UNDERFLOW_FLAGS = ["--algorithm", "npg_major", "--m", "2", "--a", "0.1", "--alpha", "1",
                   "--delta", "0.5", "--c", "1"]
# a DC trace whose residual over a subnormal step is past the float range
SUBNORMAL_TRACE = """k,F,merit,gamma,beta,j_inner,ell,step_norm,residual
0,1.0,1.0,nan,nan,-1,0,0.0,nan
1,0.5,0.5,1.0,nan,0,1,1e-310,10000000000.0
2,0.4,0.4,1.0,nan,0,2,1.0,0.1
"""
SUBNORMAL_FLAGS = ["--algorithm", "npg_major", "--m", "0", "--a", "0.1", "--alpha", "1",
                   "--delta", "0.5", "--c", "1", "--lf", "1"]
# the npg_major run at default constants whose trace the acceptance cases edit
DC_RUN = ("lasso", "npg_major", 0, 5)
# the pgnls run whose trace is verified with a nonzero fixed field
PGNLS_RUN = ("lasso", "pgnls", 0, 5)


@dataclass(frozen=True)
class Call:
    """One ``main`` call.  ``argv`` gets the root and the call's own
    directory and returns the arguments, or ``None`` to skip the call;
    ``prepare`` fills the call's directory first."""

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


def _verify_flags(root: Path, run: tuple) -> Optional[dict]:
    """The complete ``verify`` flags of a run, or ``None`` if it wrote no report."""
    import kldescent

    report_path = root / _label(run) / "exp_out" / "report.json"
    if not report_path.exists():
        return None
    report = json.loads(report_path.read_text())
    _, algorithm, _, m, *_ = run
    if algorithm == "npg_major":
        cfg = kldescent.NpgConfig(m=m)
        solver = {"c": cfg.c}
    else:
        cfg = kldescent.PgenlsConfig(m=m, **({"delta": 0.0, "beta_max": 0.0}
                                            if algorithm == "pgnls" else {}))
        solver = {"beta-max": cfg.beta_max}
    flags = {"algorithm": algorithm, "m": m, "a": report["constants.a"],
             "alpha": cfg.alpha, "delta": cfg.delta, **solver,
             "lf": report["constants.l_f"], "problem": report["problem"],
             "terminated": report["terminated"]}
    return {name: value for name, value in flags.items() if value is not None}


def _argv_flags(flags: dict) -> list:
    return [part for name, value in flags.items()
            for part in (f"--{name}", value if isinstance(value, str) else repr(value))]


def _verify(run: tuple, drop: Optional[str]) -> Call:
    def argv(root: Path, here: Path) -> Optional[list]:
        flags = _verify_flags(root, run)
        if flags is None:
            return None
        flags.pop(drop, None)
        return ["verify", str(root / _label(run) / "exp_out" / "trace.csv"),
                *_argv_flags(flags)]
    label = _label(run).replace("run/", "verify/", 1) + "/" + (f"no-{drop}" if drop else "full")
    return Call(label, argv)


def _set_cell(row: int, column: str, value: str) -> Callable[[list], list]:
    def edit(lines: list) -> list:
        header = lines[0].split(",")
        cells = lines[row + 1].split(",")
        cells[header.index(column)] = value
        return lines[:row + 1] + [",".join(cells)] + lines[row + 2:]
    return edit


def _reader(name: str, run: tuple, edit_csv=None, edit_sidecar=None) -> Call:
    """``verify`` with complete flags of a copy of ``run``'s trace whose CSV
    lines went through ``edit_csv`` and whose sidecar bytes (``None``:
    deleted) through ``edit_sidecar``."""
    def prepare(root: Path, here: Path) -> None:
        source = root / _label(run) / "exp_out"
        lines = (source / "trace.csv").read_text().splitlines()
        if edit_csv:
            lines = edit_csv(lines)
        (here / "trace.csv").write_text("".join(line + "\n" for line in lines))
        if (source / "trace.bin").exists():
            raw = (source / "trace.bin").read_bytes()
            raw = edit_sidecar(raw) if edit_sidecar else raw
            if raw is not None:
                (here / "trace.bin").write_bytes(raw)

    def argv(root: Path, here: Path) -> Optional[list]:
        flags = _verify_flags(root, run)
        return None if flags is None else ["verify", str(here / "trace.csv"),
                                           *_argv_flags(flags)]
    return Call(f"reader/{name}", argv, prepare)


def _acceptance_only_fails(negate_gamma: bool) -> Callable[[list], list]:
    """An edit of a trace of ``DC_RUN``: row 1's ``F`` set halfway between
    what ``h1`` and the acceptance test allow, so that acceptance alone fails,
    and its merit raised to at least ``F``; with ``negate_gamma``, its
    ``gamma`` negated too, which flips the sign of its decrement."""
    def edit(lines: list) -> list:
        from kldescent import npg

        cfg = npg.NpgConfig()
        column = lines[0].split(",").index
        before, row = lines[1].split(","), lines[2].split(",")
        peak = float(lines[1 + int(before[column("ell")])].split(",")[column("F")])
        gamma, step_sq = float(row[column("gamma")]), float(row[column("step_norm")]) ** 2
        d = npg.decrement(cfg.alpha, cfg.delta, cfg.c, gamma, step_sq)
        a = npg.decrease_constant(cfg.alpha, cfg.delta, cfg.gamma_min, cfg.c)
        f_value = peak - 0.5 * (d + a * step_sq)
        row[column("F")] = repr(f_value)
        row[column("merit")] = repr(max(float(row[column("merit")]), f_value))
        if negate_gamma:
            row[column("gamma")] = repr(-gamma)
        return lines[:2] + [",".join(row)] + lines[3:]
    return edit


def _input(name: str, problem: str, algorithm: str, solver: Optional[dict] = None,
           **fields) -> Call:
    return _run(f"input/{name}",
                _config(problem, algorithm, 0, {"max_outer": 50, **(solver or {})}, **fields))


def _verify_input(name: str, run: tuple, **changes) -> Call:
    """``verify`` of ``run``'s trace with its complete flags, ``changes`` applied."""
    def argv(root: Path, here: Path) -> Optional[list]:
        flags = _verify_flags(root, run)
        return None if flags is None else [
            "verify", str(root / _label(run) / "exp_out" / "trace.csv"),
            *_argv_flags({**flags, **changes})]
    return Call(f"input/{name}", argv)


def _long_window(algorithm: str) -> list[Call]:
    """``run`` of lasso at seed 0 and ``m = 1000``, where the path-length
    constant ``c`` is beyond the float range, and ``verify`` of its trace with
    the flags of its config (a run that fails writes no report to read)."""
    import kldescent
    from kldescent.diagnostics import derive_audit_inputs

    label = f"input/lasso-m1000-{algorithm}"
    config = kldescent.NpgConfig if algorithm == "npg_major" else kldescent.PgenlsConfig
    cfg = config(m=1000)
    a = derive_audit_inputs(kldescent.Trace(algorithm=algorithm, config=asdict(cfg)))["a"]
    solver = {"c": cfg.c} if algorithm == "npg_major" else {"beta-max": cfg.beta_max}
    flags = {"algorithm": algorithm, "m": 1000, "a": a, "alpha": cfg.alpha,
             "delta": cfg.delta, **solver}
    return [_run(label, _config("lasso", algorithm, 0, {"m": 1000})),
            Call(label + "-verify", lambda root, here: [
                "verify", str(root / label / "exp_out" / "trace.csv"), *_argv_flags(flags)])]


def _sweep(label: str, cfg: dict, param: str, values: str) -> Call:
    return Call(label, lambda root, here: ["sweep", str(here / "exp.json"),
                                           "--param", param, "--values", values],
                _write("exp.json", json.dumps(cfg)))


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

    calls += [
        _reader("empty-file", SIDECAR_RUN, lambda lines: []),
        _reader("header-only", SIDECAR_RUN, lambda lines: lines[:1]),
        _reader("bad-header", SIDECAR_RUN, lambda lines: ["K" + lines[0][1:]] + lines[1:]),
        _reader("bad-x-column", INLINE_RUN,
                lambda lines: [lines[0].replace("x_0", "y_0")] + lines[1:]),
        _reader("bad-cell", SIDECAR_RUN, _set_cell(8, "F", "abc")),
        _reader("bad-int-cell", SIDECAR_RUN, _set_cell(8, "j_inner", "1.5")),
        _reader("bad-x-cell", INLINE_RUN, _set_cell(8, "x_0", "abc")),
        _reader("k-over-4300-digits", SIDECAR_RUN, _set_cell(8, "k", DIGITS_4301)),
        _reader("extra-cell", SIDECAR_RUN,
                lambda lines: lines[:4] + [lines[4] + ",x"] + lines[5:]),
        _reader("missing-cell", INLINE_RUN,
                lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]),
        _reader("k-out-of-order", SIDECAR_RUN, _set_cell(3, "k", "7")),
        _reader("nan-F", SIDECAR_RUN, _set_cell(8, "F", "nan")),
        _reader("inf-merit", SIDECAR_RUN, _set_cell(8, "merit", "inf")),
        _reader("nan-step", SIDECAR_RUN, _set_cell(8, "step_norm", "nan")),
        _reader("negative-step", SIDECAR_RUN, _set_cell(8, "step_norm", "-0.5")),
        _reader("negative-residual", SIDECAR_RUN, _set_cell(8, "residual", "-0.5")),
        Call("reader/underflowing-step",
             lambda root, here: ["verify", str(here / "trace.csv"), *UNDERFLOW_FLAGS],
             _write("trace.csv", UNDERFLOW_TRACE)),
        Call("reader/subnormal-step",
             lambda root, here: ["verify", str(here / "trace.csv"), *SUBNORMAL_FLAGS],
             _write("trace.csv", SUBNORMAL_TRACE)),
        _reader("acceptance-fails", DC_RUN, _acceptance_only_fails(False)),
        _reader("negative-gamma", DC_RUN, _acceptance_only_fails(True)),
        _reader("j_inner-beyond-int64", SIDECAR_RUN, _set_cell(2, "j_inner", str(2**70))),
        _reader("negative-j_inner", SIDECAR_RUN, _set_cell(2, "j_inner", "-7")),
        _reader("huge-step", SIDECAR_RUN, _set_cell(2, "step_norm", "1e200")),
        _reader("impossible-ell", SIDECAR_RUN, _set_cell(8, "ell", "99")),
        _reader("ell-moves-back", SIDECAR_RUN, _set_cell(9, "ell", "0")),
        _reader("sidecar-magic", SIDECAR_RUN, edit_sidecar=lambda raw: b"NOTMAGIC" + raw[8:]),
        _reader("sidecar-truncated", SIDECAR_RUN, edit_sidecar=lambda raw: raw[:-8]),
        _reader("sidecar-row-count", SIDECAR_RUN, lambda lines: lines[:-1]),
        _reader("sidecar-missing", SIDECAR_RUN, edit_sidecar=lambda raw: None),
        _reader("inline-intact", INLINE_RUN),
    ]

    calls += [
        _input("x0-beyond-float", "power4-1d", "pgenls", params={"x0": HUGE}),
        _input("lam-beyond-float", "lasso", "pgenls", params={"seed": 0, "lam": HUGE}),
        _input("lam_factor-beyond-float", "lasso", "pgenls",
               params={"seed": 0, "lam_factor": HUGE}),
        _input("mu-beyond-float", "quad-l1", "npg_major", params={"seed": 0, "mu": HUGE}),
        _input("diagnostics-mu-beyond-float", "lasso", "pgenls", diagnostics={"mu": HUGE}),
        _input("x0-inf", "power4-1d", "pgenls", params={"x0": float("inf")}),
        _input("lam-inf", "lasso", "pgenls", params={"seed": 0, "lam": float("inf")}),
        _input("mu-nan", "quad-l1", "npg_major", params={"seed": 0, "mu": float("nan")}),
        Call("input/config-int-over-4300-digits",
             lambda root, here: ["run", str(here / "exp.json")],
             _write("exp.json", '{"problem": "power4-1d", "algorithm": "pgenls", '
                                '"params": {"x0": ' + DIGITS_4301 + "}}")),
        _input("c-inf", "lasso", "npg_major", {"c": math.inf}),
        _input("two-bad-fields", "lasso", "npg_major", {"delta": 2, "max_outer": 0}),
        _input("rho-inf", "lasso", "pgenls", {"rho": math.inf}),
        _input("gamma-bounds-inf", "lasso", "pgenls", {"gamma_min": math.inf,
                                                       "gamma_max": math.inf}),
        _input("gamma_max-inf", "lasso", "pgenls", {"gamma_max": math.inf}),
        _input("delta-inf", "lasso", "pgenls", {"delta": math.inf}),
        _input("tol_step-inf", "lasso", "pgenls", {"tol_step": math.inf}),
        _input("m-beyond-int64", "lasso", "pgenls", {"m": HUGE}),
        _input("max_outer-beyond-int64", "lasso", "pgenls", {"max_outer": HUGE}),
        _input("max_inner-beyond-int64", "lasso", "pgenls", {"max_inner": HUGE}),
        _input("rows-beyond-int64", "lasso", "pgenls", params={"seed": 0, "rows": 10**30}),
        _input("cols-beyond-int64", "lasso", "pgenls", params={"seed": 0, "cols": HUGE}),
        _input("seed-beyond-int64", "lasso", "pgenls", params={"seed": HUGE}),
        _input("seed-negative", "lasso", "pgenls", params={"seed": -1}),
        _input("diagnostics-kbar-beyond-int64", "lasso", "pgenls",
               diagnostics={"kbar": 10**30}),
        _verify_input("verify-m-beyond-int64", SIDECAR_RUN, m=10**30),
        _verify_input("verify-m-leaves-no-default-kbar", SIDECAR_RUN, m=2**63 - 2),
        _input("unknown-config-field", "lasso", "pgenls", extra=1),
        _input("unknown-solver-field", "lasso", "pgenls", {"momentum": 0.9}),
        _input("unknown-diagnostics-field", "lasso", "pgenls", diagnostics={"foo": 1}),
        _input("unknown-diagnostics-field-named-prefix", "lasso", "pgenls",
               diagnostics={"prefix": 1}),
        _input("unknown-params-field", "lasso", "pgenls", params={"seed": 0, "lamda": 5.0}),
        _input("pgnls-delta-nonzero", "lasso", "pgnls", {"delta": 0.5}),
        _input("pgnls-delta-string", "lasso", "pgnls", {"delta": "abc"}),
        _verify_input("verify-pgnls-delta-nonzero", PGNLS_RUN, delta=0.5),
        _verify_input("verify-pgnls-beta-max-nonzero", PGNLS_RUN, **{"beta-max": 0.9}),
        # numpy refuses these sizes before it allocates anything
        _input("rows-times-cols-too-big", "lasso", "pgenls",
               params={"seed": 0, "rows": 2**40, "cols": 2**40}),
        _input("quad-l1-rows-times-cols-too-big", "quad-l1", "npg_major",
               params={"seed": 0, "rows": 2**40, "cols": 2**40}),
        _input("diagnostics-tau-beyond-float", "lasso", "pgenls", diagnostics={"tau": HUGE}),
        *_long_window("npg_major"),
        *_long_window("pgenls"),
        _sweep("input/sweep-value-over-4300-digits", _config("power4-1d", "pgenls", 0, {}),
               "params.x0", DIGITS_4301),
    ]
    return calls


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
