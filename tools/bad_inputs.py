"""Every bad input the command line must turn away, each stated once.

A row of :data:`ROWS` is one ``kldescent`` call: its id, how to make it, the
exit status it must end with, and a fragment of the one ``kldescent: error:``
line it must print on stderr (a row that exits 0 prints nothing there).
``tests/test_cli.py`` runs every row and checks status and line;
``tools/identity.py`` records every row's outputs byte for byte.  A new bad
input is one more row.

A row makes its call in a directory of its own, ``here``, where ``{here}`` in
a string of its config or its arguments points, from one of:

* :func:`run` or :func:`sweep`: a config, :data:`BASE` with the row's blocks
  in place of its own, written to ``here/c.json``;
* :func:`verify`: ``verify`` of a copy of a run's trace, edited, with the
  run's complete flags and the row's;
* :func:`argv`: the arguments themselves.

Each can put files of the row's in ``here`` first.

The runs whose traces :func:`verify` copies are the reference runs of
:data:`REFERENCES`, which :func:`reference_runs` makes once for all rows, or
a run of a config that the row gives.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from kldescent import NpgConfig, PgenlsConfig, npg
from kldescent.cli import main
from kldescent.domains import FIXED

HUGE = 10**400
# HUGE as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"
DIGITS_4301 = "1" + "0" * 4300

# the config of every run and sweep row: a lasso run short enough to cost
# little where a row gets as far as the solve
BASE = {"problem": "lasso", "params": {"seed": 0}, "algorithm": "pgenls",
        "solver": {"m": 5, "max_outer": 50}}

# the reference runs, at the default constants of their algorithm: three
# lasso runs, whose iterates are in trace.bin, and one with inline iterates
NPG, PGENLS, PGNLS, INLINE = "lasso-npg_major", "lasso-pgenls", "lasso-pgnls", "power4-1d-pgenls"
REFERENCES = {
    NPG: {"problem": "lasso", "params": {"seed": 0}, "algorithm": "npg_major", "solver": {"m": 5}},
    PGENLS: {"problem": "lasso", "params": {"seed": 0}, "algorithm": "pgenls", "solver": {"m": 5}},
    PGNLS: {"problem": "lasso", "params": {"seed": 0}, "algorithm": "pgnls", "solver": {"m": 5}},
    INLINE: {"problem": "power4-1d", "params": {"seed": 0}, "algorithm": "pgenls",
             "solver": {"m": 0, "max_outer": 1500}},
}

# a DC trace whose two tiny steps square to 0, so the mu fitted from its
# b_bar is inf, and the verify flags of it
UNDERFLOW_TRACE = """k,F,merit,gamma,beta,j_inner,ell,step_norm,residual
0,1.0,1.0,nan,nan,-1,0,0.0,nan
1,0.5,0.5,1.0,nan,0,0,1e-170,0.0
2,0.6,0.6,1.0,nan,0,0,1e-170,0.0
3,0.1,0.1,1.0,nan,0,2,1.0,0.0
"""
UNDERFLOW_FLAGS = ("--algorithm", "npg_major", "--m", "2", "--a", "0.1", "--alpha", "1",
                   "--delta", "0.5", "--c", "1")
# a DC trace whose residual over a subnormal step is past the float range
SUBNORMAL_TRACE = """k,F,merit,gamma,beta,j_inner,ell,step_norm,residual
0,1.0,1.0,nan,nan,-1,0,0.0,nan
1,0.5,0.5,1.0,nan,0,1,1e-310,10000000000.0
2,0.4,0.4,1.0,nan,0,2,1.0,0.1
"""
SUBNORMAL_FLAGS = ("--algorithm", "npg_major", "--m", "0", "--a", "0.1", "--alpha", "1",
                   "--delta", "0.5", "--c", "1", "--lf", "1")

# fills ``here`` and returns the arguments, given the reference runs by name,
# each as (output directory, complete verify flags)
Call = Callable[[Path, dict], list]


class Row(NamedTuple):
    id: str
    call: Call
    status: int
    fragment: str  # of the one stderr line; "" when the status is 0 and stderr empty


# ---------------------------------------------------------------------------
# the reference runs and their verify flags


def verify_flags(out: Path, algorithm: str, m: int) -> Optional[dict]:
    """The complete ``verify`` flags, by name, of a run of ``algorithm`` at
    window ``m`` and otherwise default constants, whose outputs are in
    ``out``: the solver constants from the algorithm's config, ``a``, ``lf``,
    the problem and the stop from its ``report.json``; ``None`` without one."""
    report_path = out / "report.json"
    if not report_path.exists():
        return None
    report = json.loads(report_path.read_text())
    if algorithm == "npg_major":
        cfg = NpgConfig(m=m)
        solver = {"c": cfg.c}
    else:
        cfg = PgenlsConfig(m=m, **FIXED.get(algorithm, {}))
        solver = {"beta-max": cfg.beta_max}
    flags = {"algorithm": algorithm, "m": m, "a": report["constants.a"],
             "alpha": cfg.alpha, "delta": cfg.delta, **solver,
             "lf": report["constants.l_f"], "problem": report["problem"],
             "terminated": report["terminated"]}
    return {name: value for name, value in flags.items() if value is not None}


def argv_flags(flags: dict) -> list:
    return [part for name, value in flags.items()
            for part in (f"--{name}", value if isinstance(value, str) else repr(value))]


def _reference(directory: Path, config: dict) -> tuple[Path, list]:
    """Run ``config`` into ``directory`` quietly; its output directory and
    complete verify flags."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "c.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(["run", str(directory / "c.json")])
    out = directory / "c_out"  # next to c.json
    flags = verify_flags(out, config["algorithm"], config["solver"]["m"])
    if status != 0 or flags is None:
        raise RuntimeError(f"reference run {config} exited {status}")
    return out, argv_flags(flags)


def reference_runs(root: Path) -> dict:
    """Make each run of :data:`REFERENCES` under ``root``."""
    return {name: _reference(root / name, config) for name, config in REFERENCES.items()}


# ---------------------------------------------------------------------------
# how a row makes its call


def _here(text: str, here: Path) -> str:
    return text.replace("{here}", str(here))


def _put(here: Path, files: Optional[dict]) -> None:
    """Write each of ``files``, by name, into ``here``: its text, ``{here}``
    put in, or a directory for ``None``."""
    for name, content in (files or {}).items():
        (here / name).parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            (here / name).mkdir()
        else:
            (here / name).write_text(_here(content, here))


def argv(*parts: str, files: Optional[dict] = None) -> Call:
    """The arguments ``parts``, after ``files`` (see :func:`_put`)."""
    def call(here, refs):
        _put(here, files)
        return [_here(part, here) for part in parts]
    return call


def run(*, files: Optional[dict] = None, **config) -> Call:
    """``run`` of :data:`BASE` with the blocks of ``config``."""
    return argv("run", "{here}/c.json",
                files={**(files or {}), "c.json": json.dumps({**BASE, **config})})


def sweep(param: str, values: str, *, files: Optional[dict] = None, **config) -> Call:
    """``sweep`` of :data:`BASE` with the blocks of ``config`` over ``param``."""
    return argv("sweep", "{here}/c.json", "--param", param, "--values", values,
                files={**(files or {}), "c.json": json.dumps({**BASE, **config})})


def verify(source, *flags: str, edit=None, sidecar=None, complete: bool = True) -> Call:
    """``verify`` of a copy of the trace of ``source``, the reference run of
    that name or a run of the config ``source`` made first, with its complete
    flags (unless not ``complete``) and then ``flags``.  The copy's CSV lines
    go through ``edit`` (which may return ``None``: no CSV), and the path of
    its sidecar through ``sidecar``."""
    def call(here, refs):
        out, full = (_reference(here / "source", source) if isinstance(source, dict)
                     else refs[source])
        lines = (out / "trace.csv").read_text().splitlines()
        lines = edit(lines) if edit else lines
        if lines is not None:
            (here / "trace.csv").write_text("".join(line + "\n" for line in lines))
        if (out / "trace.bin").exists():
            shutil.copyfile(out / "trace.bin", here / "trace.bin")
            if sidecar:
                sidecar(here / "trace.bin")
        return ["verify", str(here / "trace.csv"), *(full if complete else ()),
                *(_here(flag, here) for flag in flags)]
    return call


def cells(row: int, **values: str) -> Callable[[list], list]:
    """An ``edit`` that sets cells of data row ``row``, by column name."""
    def edit(lines):
        header = lines[0].split(",")
        row_cells = lines[row + 1].split(",")
        for column, value in values.items():
            row_cells[header.index(column)] = value
        return lines[:row + 1] + [",".join(row_cells)] + lines[row + 2:]
    return edit


def acceptance_only_fails(negate_gamma: bool) -> Callable[[list], list]:
    """An ``edit`` of an ``npg_major`` trace at default constants: row 1's
    ``F`` set halfway between what ``h1`` and the acceptance test allow, so
    that acceptance alone fails, and its merit raised to at least ``F``; with
    ``negate_gamma``, its ``gamma`` negated too, which flips the sign of its
    decrement."""
    def edit(lines):
        cfg = NpgConfig()
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


def _rewrite(change: Callable[[bytes], bytes]) -> Callable[[Path], None]:
    return lambda path: path.write_bytes(change(path.read_bytes()))


# ---------------------------------------------------------------------------
# the table

_TOO_BIG = "params.rows * params.cols must be at most 1152921504606846975 entries, got "
# quad-l1 at its default 30 rows and 2**30 columns, whose ridge adds 2**30 rows
_RIDGE_TOO_BIG = ("(params.rows + params.cols) * params.cols must be at most "
                  "1152921504606846975 entries, got (30 + 1073741824) * 1073741824")

ROWS = [Row(*row) for row in [
    # run: the config
    ("bad-json", argv("run", "{here}/c.json", files={"c.json": "x"}), 1, "invalid JSON"),
    ("missing-config", argv("run", "{here}/absent.json"), 1, "cannot read config"),
    ("config-int-over-4300-digits",
     argv("run", "{here}/c.json",
          files={"c.json": '{"problem": "power4-1d", "params": {"x0": ' + DIGITS_4301 + "}}"}),
     1,
     "c.json: invalid JSON: Exceeds the limit (4300 digits)"),
    ("unknown-top-field", run(extra=1), 1, "unknown config field(s): extra"),
    ("unknown-solver-field", run(solver={"momentum": 0.9}), 1,
     "unknown solver field(s) for pgenls: momentum"),
    ("unknown-diagnostics-field", run(diagnostics={"foo": 1}), 1,
     "unknown diagnostics field(s): foo"),
    ("diagnostics-unknown-prefix", run(diagnostics={"prefix": 1}), 1,
     "unknown diagnostics field(s): prefix"),
    ("diagnostics-unknown-context", run(diagnostics={"context": 1}), 1,
     "unknown diagnostics field(s): context"),
    ("unknown-params-field", run(params={"seed": 0, "lamda": 5.0}), 1,
     "unknown params field(s) for lasso: lamda"),
    ("params-bool", run(params={"seed": True}), 1, "params.seed must be an integer, got True"),
    ("A_csv-list", run(params={"A_csv": [1], "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got [1]"),
    ("A_csv-int", run(params={"A_csv": 5, "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got 5"),
    ("params-int-beyond-float", run(problem="power4-1d", params={"x0": HUGE}), 1,
     "params.x0 must be finite, got " + HUGE_SHOWN),
    ("params-lam-beyond-float", run(params={"seed": 0, "lam": HUGE}), 1,
     "params.lam must be finite, got " + HUGE_SHOWN),
    ("params-lam_factor-beyond-float", run(params={"seed": 0, "lam_factor": HUGE}), 1,
     "params.lam_factor must be finite, got " + HUGE_SHOWN),
    ("params-mu-beyond-float",
     run(problem="quad-l1", algorithm="npg_major", params={"seed": 0, "mu": HUGE}), 1,
     "params.mu must be finite, got " + HUGE_SHOWN),
    ("params-x0-inf", run(problem="power4-1d", params={"x0": math.inf}), 1,
     "params.x0 must be finite, got inf"),
    ("params-lam-inf", run(params={"seed": 0, "lam": math.inf}), 1,
     "params.lam must be finite, got inf"),
    ("params-mu-nan",
     run(problem="quad-l1", algorithm="npg_major", params={"seed": 0, "mu": math.nan}), 1,
     "params.mu must be positive, got nan"),
    ("bad-tau", run(diagnostics={"tau": 1.5}), 1, "diagnostics.tau must lie in (0, 1), got 1.5"),
    ("diagnostics-bool", run(diagnostics={"mu": True}), 1,
     "diagnostics.mu must be a real number, got True"),
    ("diagnostics-mu-inf", run(diagnostics={"mu": math.inf}), 1,
     "diagnostics.mu must be finite, got inf"),
    ("diagnostics-int-beyond-float", run(diagnostics={"mu": HUGE}), 1,
     "diagnostics.mu must be finite, got " + HUGE_SHOWN),
    ("diagnostics-tau-beyond-float", run(diagnostics={"tau": HUGE}), 1,
     "diagnostics.tau must be finite, got " + HUGE_SHOWN),
    ("kbar-not-above-m", run(diagnostics={"kbar": 2}), 1,
     "diagnostics.kbar must be an integer greater than m=5, got 2"),
    ("diagnostics-kbar-beyond-int64", run(diagnostics={"kbar": 10**30}), 1,
     f"diagnostics.kbar must fit in int64, got {10**30}"),
    ("params-rows-beyond-int64", run(params={"seed": 0, "rows": 10**30}), 1,
     f"params.rows must fit in int64, got {10**30}"),
    ("params-cols-beyond-int64", run(params={"seed": 0, "cols": HUGE}), 1,
     "params.cols must fit in int64, got " + HUGE_SHOWN),
    ("params-seed-beyond-int64", run(params={"seed": HUGE}), 1,
     "params.seed must fit in int64, got " + HUGE_SHOWN),
    ("params-seed-negative", run(params={"seed": -1}), 1,
     "params.seed must be a nonnegative integer, got -1"),
    # sizes whose matrix numpy cannot make, refused before anything is allocated
    ("params-rows-times-cols-too-big", run(params={"seed": 0, "rows": 2**40, "cols": 2**40}), 1,
     _TOO_BIG + "1099511627776 * 1099511627776"),
    ("quad-l1-rows-times-cols-too-big",
     run(problem="quad-l1", algorithm="npg_major",
         params={"seed": 0, "rows": 2**40, "cols": 2**40}), 1,
     _TOO_BIG + "1099511627776 * 1099511627776"),
    ("quad-l1-rows-times-default-cols-too-big",
     run(problem="quad-l1", params={"seed": 0, "rows": 2**62}), 1,
     _TOO_BIG + "4611686018427387904 * 30"),
    ("quad-l1-ridge-too-big",
     run(problem="quad-l1", algorithm="npg_major", params={"seed": 0, "cols": 2**30}), 1,
     _RIDGE_TOO_BIG),
    # run: solver fields past the float or int64 range (JSON's 1e400 is inf)
    ("solver-c-inf", run(algorithm="npg_major", solver={"c": math.inf}), 1,
     "c must be finite, got inf"),
    ("solver-two-bad-fields", run(algorithm="npg_major", solver={"delta": 2, "max_outer": 0}),
     1, "max_outer must be a positive integer, got 0"),  # the first field checked
    ("solver-rho-inf", run(solver={"rho": math.inf}), 1, "rho must be finite, got inf"),
    ("solver-gamma-bounds-inf", run(solver={"gamma_min": math.inf, "gamma_max": math.inf}), 1,
     "gamma_min must be finite, got inf"),
    ("solver-gamma_max-inf", run(solver={"gamma_max": math.inf}), 1,
     "gamma_max must be finite, got inf"),
    ("solver-delta-inf", run(solver={"delta": math.inf}), 1, "delta must be finite, got inf"),
    ("solver-tol_step-inf", run(solver={"tol_step": math.inf}), 1,
     "tol_step must be finite, got inf"),
    ("solver-m-beyond-int64", run(solver={"m": HUGE}), 1,
     "m must fit in int64, got " + HUGE_SHOWN),
    ("solver-max_outer-beyond-int64", run(solver={"max_outer": HUGE}), 1,
     "max_outer must fit in int64, got " + HUGE_SHOWN),
    ("solver-max_inner-beyond-int64", run(solver={"max_inner": HUGE}), 1,
     "max_inner must fit in int64, got " + HUGE_SHOWN),
    # run: pgnls holds delta and beta_max at 0
    ("pgnls-delta-nonzero", run(algorithm="pgnls", solver={"delta": 0.5}), 1,
     "solver.delta must be 0 for algorithm 'pgnls', got 0.5"),
    ("pgnls-delta-string", run(algorithm="pgnls", solver={"delta": "abc"}), 1,
     "solver.delta must be a real number, got 'abc'"),
    ("pgnls-unknown-solver-field", run(algorithm="pgnls", solver={"momentum": 0.9}), 1,
     "unknown solver field(s) for pgnls: momentum"),
    ("algorithm-problem-mismatch", run(problem="l1-l2-dc"), 1, "concave term"),
    # run: the solve and the outputs
    ("backtracking-exhaustion",
     run(problem="quad-l1", algorithm="npg_major",
         solver={"max_inner": 1, "gamma_min": 0.01, "gamma_max": 0.01,
                 "gamma_init_rule": "constant"}),
     2, "solver failure: "),
    # the path-length constant is past the float range: it bounds nothing
    ("run-m1000-npg_major", run(algorithm="npg_major", solver={"m": 1000}), 0, ""),
    ("run-m1000-pgenls", run(solver={"m": 1000}), 0, ""),
    ("run-output-dir-is-a-file", run(output_dir="{here}/out", files={"out": "x"}), 1,
     "cannot write outputs: "),
    ("run-trace-csv-is-a-directory",
     run(output_dir="{here}/out", files={"out/trace.csv": None}), 1, "cannot write outputs: "),
    # usage
    ("usage-no-verb", argv(), 1, "required"),
    ("usage-unknown-verb", argv("frobnicate"), 1, "invalid choice"),
    ("usage-sweep-flags", argv("sweep", "x.json"), 1, "required"),
    ("usage-verify-m", argv("verify", "x.csv", "--m", "1.5"), 1, "invalid int value"),
    ("usage-verify-kbar", argv("verify", "x.csv", "--kbar", "2.5"), 1, "invalid int value"),
    # sweep
    ("sweep-bad-values", sweep("delta", "a,b"), 1, "is not a number"),
    ("sweep-value-over-4300-digits", sweep("params.x0", DIGITS_4301), 1,
     "--values entry '1000000000000000000... (4303 characters) is not a number"),
    ("sweep-run-directory-name-too-long", sweep("params.lam", str(10**300)), 1,
     "run directory name 'params_lam_10000000... (314 characters) is 312 bytes long, over 255"),
    ("sweep-repeated-value", sweep("params.seed", "1,1.0,1,0"), 1,
     "run directory name 'params_seed_1' repeats in --values"),
    ("sweep-values-that-print-alike", sweep("delta", "0.1,0.10"), 1,
     "run directory name 'delta_0.1' repeats in --values"),
    ("sweep-param-name-too-long", sweep("params." + "x" * 300, "1"), 1,
     "run directory name 'params_xxxxxxxxxxxx... (311 characters) is 309 bytes long, over 255"),
    ("sweep-root-under-a-file",
     sweep("m", "1", output_dir="{here}/root/sub", files={"root": "x"}), 1,
     "cannot write outputs: "),
    ("sweep-aggregate-is-a-directory",
     sweep("m", "1", output_dir="{here}/sweep", files={"sweep/aggregate.csv": None}), 1,
     "cannot write outputs: "),
    ("sweep-unknown-params-field", sweep("lamda", "0.1"), 1,
     "unknown params field(s) for lasso: lamda"),
    ("sweep-diagnostics-unknown-prefix", sweep("m", "5", diagnostics={"prefix": 1}), 1,
     "unknown diagnostics field(s): prefix"),
    ("sweep-m-past-kbar", sweep("m", "5", diagnostics={"kbar": 4}), 1,
     "diagnostics.kbar must be an integer greater than m=5, got 4"),
    ("sweep-quad-l1-ridge-too-big",
     sweep("params.cols", str(2**30), problem="quad-l1", algorithm="npg_major"), 1,
     _RIDGE_TOO_BIG),
    # verify: missing flags
    ("verify-no-m-a", verify(NPG, complete=False), 1,
     "audit constants unavailable: give --m and --a"),
    ("verify-no-delta", verify(NPG, "--algorithm", "pgenls", "--m", "5", "--a", "0.1",
                               complete=False), 1,
     "audit constants unavailable: give --delta"),
    # verify: pgnls holds delta and beta_max at 0
    ("verify-pgnls-delta-nonzero", verify(PGNLS, "--delta", "0.5"), 1,
     "kldescent: error: delta must be 0 for algorithm 'pgnls', got 0.5"),
    ("verify-pgnls-beta-max-nonzero", verify(PGNLS, "--beta-max", "0.9"), 1,
     "kldescent: error: beta_max must be 0 for algorithm 'pgnls', got 0.9"),
    # verify: the trace
    ("verify-missing-trace", verify(NPG, edit=lambda lines: None), 1, "cannot read"),
    ("verify-empty-file", verify(PGENLS, edit=lambda lines: []), 1, "empty trace file (line 1)"),
    ("verify-header-only", verify(PGENLS, edit=lambda lines: lines[:1]), 1,
     "trace.csv: line 2: no rows after the header"),
    ("verify-bad-header", verify(PGENLS, edit=lambda lines: ["K" + lines[0][1:]] + lines[1:]),
     1, "trace.csv: line 1: header must start with "
        "k,F,merit,gamma,beta,j_inner,ell,step_norm,residual"),
    ("verify-bad-x-column",
     verify(INLINE, edit=lambda lines: [lines[0].replace("x_0", "y_0")] + lines[1:]), 1,
     "trace.csv: line 1: unexpected column 'y_0'"),
    ("verify-extra-cell",
     verify(PGENLS, edit=lambda lines: lines[:4] + [lines[4] + ",x"] + lines[5:]), 1,
     "line 5: expected"),
    ("verify-missing-cell",
     verify(INLINE, edit=lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]),
     1, "line 5: expected 10 cells, got 9"),
    ("verify-unparsable-cell", verify(PGENLS, edit=cells(8, F="abc")), 1,
     "line 10: could not convert"),
    ("verify-unparsable-int-cell", verify(PGENLS, edit=cells(8, j_inner="1.5")), 1,
     "line 10: invalid literal for int() with base 10: '1.5'"),
    ("verify-unparsable-x-cell", verify(INLINE, edit=cells(8, x_0="abc")), 1,
     "line 10: could not convert string to float: 'abc'"),
    ("verify-k-over-4300-digits", verify(PGENLS, edit=cells(8, k=DIGITS_4301)), 1,
     "line 10: Exceeds the limit (4300 digits)"),
    ("verify-k-out-of-order", verify(PGENLS, edit=cells(3, k="7")), 1,
     "line 5: iteration index 7 out of order"),
    ("verify-nan-F", verify(PGENLS, edit=cells(8, F="nan")), 1, "line 10: F is not finite"),
    ("verify-inf-merit", verify(PGENLS, edit=cells(8, merit="inf")), 1,
     "line 10: merit is not finite"),
    ("verify-nan-step", verify(PGENLS, edit=cells(8, step_norm="nan")), 1,
     "line 10: step_norm is not finite"),
    ("verify-negative-step", verify(PGENLS, edit=cells(8, step_norm="-0.5")), 1,
     "line 10: step_norm is negative"),
    ("verify-negative-residual", verify(PGENLS, edit=cells(8, residual="-0.5")), 1,
     "line 10: residual is negative"),
    ("verify-impossible-ell", verify(PGENLS, edit=cells(8, ell="99")), 1,
     "line 10: ell 99 outside"),
    ("verify-ell-moves-back", verify(PGENLS, edit=cells(9, ell="0")), 1,
     "line 11: ell 0 outside [3, 9]"),
    ("verify-negative-gamma", verify(NPG, edit=cells(8, gamma="-0.5")), 1,
     "line 10: gamma is not positive"),
    ("verify-nan-gamma", verify(NPG, edit=cells(8, gamma="nan")), 1,
     "line 10: gamma is not positive"),
    ("verify-acceptance-edit-negative-gamma", verify(NPG, edit=acceptance_only_fails(True)), 1,
     "trace.csv: line 3: gamma is not positive"),
    ("verify-j_inner-beyond-int64", verify(PGENLS, edit=cells(2, j_inner=str(2**70))), 1,
     "line 4: j_inner 1180591620717411303424 outside [0, 9223372036854775807]"),
    ("verify-negative-j_inner", verify(PGENLS, edit=cells(2, j_inner="-7")), 1,
     "line 4: j_inner -7 outside [0, 9223372036854775807]"),
    ("verify-sidecar-magic", verify(PGENLS, sidecar=_rewrite(lambda raw: b"NOTMAGIC" + raw[8:])),
     1, "not a trace sidecar (bad magic)"),
    ("verify-sidecar-length", verify(PGENLS, sidecar=_rewrite(lambda raw: raw[:-8])), 1,
     "trace.bin: expected"),
    ("verify-sidecar-row-count", verify(PGENLS, edit=lambda lines: lines[:-1]), 1,
     "trace.bin: row count 32 does not match CSV (31)"),
    ("verify-sidecar-is-a-directory",
     verify(NPG, sidecar=lambda path: (path.unlink(), path.mkdir())), 1, "trace.bin: [Errno"),
    ("verify-sidecar-missing", verify(PGENLS, sidecar=Path.unlink), 0, ""),
    ("verify-inline-intact", verify(INLINE), 0, ""),
    # verify: the outputs
    ("verify-report-under-missing-dir", verify(NPG, "--report", "{here}/missing/r.json"), 1,
     "cannot write outputs: "),
    ("verify-report-is-a-directory", verify(NPG, "--report", "{here}"), 1,
     "cannot write outputs: "),
    # verify: constants that would give a wrong verdict
    ("verify-lf-nan", verify(NPG, "--lf", "nan"), 1, "lipschitz must be nonnegative, got nan"),
    ("verify-lf-negative", verify(NPG, "--lf", "-1"), 1,
     "lipschitz must be nonnegative, got -1.0"),
    ("verify-a-inf", verify(NPG, "--a", "inf"), 1, "a must be finite, got inf"),
    ("verify-alpha-nan", verify(NPG, "--alpha", "nan"), 1, "alpha must lie in [0, 1], got nan"),
    ("verify-delta-negative", verify(NPG, "--delta", "-3"), 1,
     "delta must be nonnegative, got -3.0"),
    ("verify-mu-inf", verify(NPG, "--mu", "inf"), 1, "mu must be finite, got inf"),
    ("verify-m-beyond-int64", verify(PGENLS, "--m", str(10**30)), 1,
     f"m must fit in int64, got {10**30}"),
    ("verify-m-leaves-no-default-kbar", verify(PGENLS, "--m", str(2**63 - 2)), 1,
     "the default m + 2 for kbar must fit in int64, got 9223372036854775808"),
    ("verify-kbar-not-above-m-one-row",
     verify(NPG, "--kbar", "2", edit=lambda lines: lines[:2], sidecar=Path.unlink), 1,
     "kbar must be an integer greater than m=5, got 2"),
    # verify: audits that pass, or fail
    ("verify-m1000-npg_major", verify({**BASE, "algorithm": "npg_major", "solver": {"m": 1000}}),
     0, ""),
    ("verify-m1000-pgenls", verify({**BASE, "solver": {"m": 1000}}), 0, ""),
    ("verify-step-whose-square-underflows",
     argv("verify", "{here}/trace.csv", *UNDERFLOW_FLAGS, files={"trace.csv": UNDERFLOW_TRACE}),
     0, ""),
    ("verify-residual-ratio-past-float64",
     argv("verify", "{here}/trace.csv", *SUBNORMAL_FLAGS, files={"trace.csv": SUBNORMAL_TRACE}),
     3, "audit failure: acceptance, h3\n"),
    ("verify-audit-failure", verify(NPG, edit=cells(12, F="1000000.0", merit="1000000.0")), 3,
     "audit failure: "),
    ("verify-acceptance-alone-fails", verify(NPG, edit=acceptance_only_fails(False)), 3,
     "audit failure: acceptance\n"),
    # a step of 1e200, whose square is past the float range
    ("verify-step-whose-square-overflows", verify(PGENLS, edit=cells(2, step_norm="1e200")), 3,
     "audit failure: "),
]]
