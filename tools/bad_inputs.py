"""Every bad input the command line must turn away, each stated once.

A row of :data:`ROWS` is one ``kldescent`` call: its id, how to make it, the
exit status it must end with, and a fragment of the one ``kldescent: error:``
line it must print on stderr (a row that exits 0 prints nothing there).
``tests/test_cli.py`` runs every row and checks status and line;
``tools/identity.py`` records every row's outputs byte for byte.

:func:`field_rows` makes three rows per field of the rule table a command
reads, each a value of another kind, one its domain's test turns away and
one past its range, with the exact line; a new field gets them with no edit
here.  A row written by hand states what the rule table cannot: rules on two
fields, sizes, unknown names, files, traces, usage and outputs, or a bad
value of a field that its generated rows do not draw.

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

A call of this form, a row's or another's, runs through :func:`invoke`, the
one runner of ``tools/``: ``tools/identity.py`` and ``tools/boundary.py``
observe each call through it, and the reference runs are made by it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import numbers
import shutil
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from kldescent import NpgConfig, PgenlsConfig, catalog, npg
from kldescent.cli import main
from kldescent.domains import _NOUNS, ALGORITHMS, FIXED, RULES, Domain, shown

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

# fills ``here`` and returns the arguments, or ``None`` for nothing to run,
# given the outputs of earlier calls by name (the reference runs, each as
# its output directory and complete verify flags)
Call = Callable[[Path, dict], Optional[list]]


class Row(NamedTuple):
    id: str
    call: Call
    status: int
    fragment: str  # of the one stderr line; "" when the status is 0 and stderr empty


class Outcome(NamedTuple):
    argv: Optional[list]  # None: the call gave nothing to run
    status: object  # the exit status, or the exception that escaped main
    stdout: str
    stderr: str
    warnings: list


def invoke(call: Call, here: Path, refs: dict) -> Outcome:
    """Make ``here`` and ``call`` in it, then run its arguments through
    ``cli.main`` with stdout and stderr captured and every warning recorded.
    Argparse's ``SystemExit`` gives its code as the status; an exception
    that escapes ``main``, its type and message."""
    here.mkdir(parents=True)
    argv = call(here, refs)
    if argv is None:
        return Outcome(None, None, "", "", [])
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")  # each call sees its warnings, not just the first
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's --help
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaped exception is an outcome
            status = f"{type(exc).__name__}: {exc}"
    return Outcome(argv, status, out.getvalue(), err.getvalue(),
                   [f"{w.category.__name__}: {w.message}" for w in caught])


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


def outputs(out: Path, config: dict) -> tuple[Path, list]:
    """A reference run of ``config`` whose outputs are in ``out``, as the
    calls take it: ``out`` and the complete verify flags."""
    return out, argv_flags(verify_flags(out, config["algorithm"], config["solver"]["m"]))


def _reference(directory: Path, config: dict) -> tuple[Path, list]:
    """Run ``config`` in ``directory``; its :func:`outputs`."""
    status = invoke(argv("run", "{here}/c.json", files={"c.json": json.dumps(config)}),
                    directory, {}).status
    if status != 0:
        raise RuntimeError(f"reference run {config} exited {status}")
    return outputs(directory / "c_out", config)  # next to c.json


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
# the generated rows: three bad values of each field of each block a command reads

# by kind: a value of another kind; the values to try, in order, for one that
# fails a domain's test; a value past the kind's machine range
_OTHER_KIND = {numbers.Integral: 2.5, numbers.Real: True, str: 5}
_FAILING = {numbers.Integral: (0, -1), numbers.Real: (math.nan,), str: ("y",)}
_PAST_RANGE = {numbers.Integral: HUGE, numbers.Real: math.inf}


def bad_values(domain: Domain) -> list:
    """The bad values of ``domain``, each as (what, value, the message that
    follows the field's name): ``kind``, a value of another kind; ``test``,
    one its test turns away (``nan`` for a real number, not finite, when it
    has no test); ``range``, one past the int64 or float range, where a
    real number's test comes before its finiteness.  A string has no range,
    nor a failing value without a test; a test that passes every value of
    :data:`_FAILING` gets no ``test`` value."""
    kind, test, rule = domain
    values = [("kind", _OTHER_KIND[kind], f"must be {_NOUNS[kind]}")]
    failing = [v for v in _FAILING[kind] if not (test and test(v))] \
        if test or kind is numbers.Real else []
    if failing:
        values.append(("test", failing[0], rule if test else "must be finite"))
    if kind in _PAST_RANGE:
        value = _PAST_RANGE[kind]
        values.append(("range", value, "must fit in int64" if kind is numbers.Integral
                       else rule if test and not test(value) else "must be finite"))
    return [(what, value, f"{message}, got {shown(value)}") for what, value, message in values]


def _fields(context: str, prefix: str = "", names=None) -> dict:
    """The fields of ``RULES[context]``, or its ``names``, each with ``prefix``."""
    rules = RULES[context]
    return {name: (rules[name], prefix) for name in rules if names is None or name in names}


# the fields that verify's flags set, of a trace's snapshot and of the audit
AUDITED = (*RULES["snapshot"], *RULES["diagnostics"], "lipschitz")


def flag(name: str) -> str:
    """The ``verify`` flag of a field of :data:`AUDITED`, as ``cli.build_parser`` names it."""
    return "--lf" if name == "lipschitz" else "--" + name.replace("_", "-")


def blocks() -> dict:
    """Each block of fields that a caller reaches, by id, as ``{name:
    (domain, the prefix of the name in a message)}``: each solver block
    (``pgnls``'s fixed fields named ``solver.``), each problem's ``params``,
    ``diagnostics``, ``audit`` (the fields of :data:`AUDITED`, which
    ``verify``'s flags, ``build_report`` and a trace's snapshot take),
    ``fixed`` (``pgnls``'s fixed fields as ``verify`` flags) and
    ``oracle``."""
    solver = {algorithm: {**_fields(algorithm),
                          **_fields(algorithm, "solver.", FIXED.get(algorithm, ()))}
              for algorithm in ALGORITHMS}
    return {
        **solver,
        **{f"params-{problem}": _fields("params", "params.", accepted)
           for problem, (_, _, accepted) in catalog._REGISTRY.items()},
        "diagnostics": _fields("diagnostics", "diagnostics."),
        "audit": _fields("audit", "", AUDITED),
        "fixed": _fields("pgnls", "", FIXED["pgnls"]),
        "oracle": _fields("oracle"),
    }


def field_cases(caller: str, fields: dict) -> list:
    """``(id, name, domain, what, value, message)`` for each bad value of
    each field of ``fields``, a block of :func:`blocks`, the id led by
    ``caller``."""
    return [(f"{caller}.{name}.{what}", name, domain, what, value, f"{prefix}{name} {message}")
            for name, (domain, prefix) in fields.items()
            for what, value, message in bad_values(domain)]


def field_rows() -> list:
    """Three rows (see :func:`bad_values`) per field of each block of
    :func:`blocks` that ``run`` and ``verify`` read, each id led by its
    block, or by ``verify`` (``audit``, flags after an ``npg_major`` run's)
    or ``verify-pgnls`` (``fixed``, after a ``pgnls`` run's).  Argparse turns
    away a flag's text of another kind."""
    calls = {
        **{algorithm: lambda name, value, algorithm=algorithm: run(algorithm=algorithm,
                                                                   solver={name: value})
           for algorithm in ALGORITHMS},
        **{f"params-{problem}": lambda name, value, problem=problem: run(problem=problem,
                                                                         params={name: value})
           for problem in catalog._REGISTRY},
        "diagnostics": lambda name, value: run(diagnostics={name: value}),
        "audit": lambda name, value: verify(NPG, flag(name), str(value)),
        "fixed": lambda name, value: verify(PGNLS, flag(name), str(value)),
    }
    found, labels, rows = blocks(), {"audit": "verify", "fixed": "verify-pgnls"}, []
    for block, call in calls.items():
        cases = field_cases(labels.get(block, block), found[block])
        for case_id, name, domain, what, value, message in cases:
            if block in ("audit", "fixed") and what == "kind":
                kind = "int" if domain.kind is numbers.Integral else "float"
                message = f"argument {flag(name)}: invalid {kind} value: '{value}'"
            rows.append(Row(case_id, call(name, value), 1, f"kldescent: error: {message}\n"))
    return rows


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
    # run: bad values of a field that its generated rows do not draw
    ("params-bool", run(params={"seed": True}), 1, "params.seed must be an integer, got True"),
    ("A_csv-list", run(params={"A_csv": [1], "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got [1]"),
    # two values that generated rows also draw, kept under the ids they had
    # before the rows were generated
    ("A_csv-int", run(params={"A_csv": 5, "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got 5"),
    ("diagnostics-bool", run(diagnostics={"mu": True}), 1,
     "diagnostics.mu must be a real number, got True"),
    ("params-int-beyond-float", run(problem="power4-1d", params={"x0": HUGE}), 1,
     "params.x0 must be finite, got " + HUGE_SHOWN),
    ("params-lam-beyond-float", run(params={"seed": 0, "lam": HUGE}), 1,
     "params.lam must be finite, got " + HUGE_SHOWN),
    ("params-lam_factor-beyond-float", run(params={"seed": 0, "lam_factor": HUGE}), 1,
     "params.lam_factor must be finite, got " + HUGE_SHOWN),
    ("params-mu-beyond-float",
     run(problem="quad-l1", algorithm="npg_major", params={"seed": 0, "mu": HUGE}), 1,
     "params.mu must be finite, got " + HUGE_SHOWN),
    ("bad-tau", run(diagnostics={"tau": 1.5}), 1, "diagnostics.tau must lie in (0, 1), got 1.5"),
    ("diagnostics-int-beyond-float", run(diagnostics={"mu": HUGE}), 1,
     "diagnostics.mu must be finite, got " + HUGE_SHOWN),
    ("diagnostics-tau-beyond-float", run(diagnostics={"tau": HUGE}), 1,
     "diagnostics.tau must be finite, got " + HUGE_SHOWN),
    ("diagnostics-kbar-beyond-int64", run(diagnostics={"kbar": 10**30}), 1,
     f"diagnostics.kbar must fit in int64, got {10**30}"),
    ("params-rows-beyond-int64", run(params={"seed": 0, "rows": 10**30}), 1,
     f"params.rows must fit in int64, got {10**30}"),
    # run: rules on two fields
    ("kbar-not-above-m", run(diagnostics={"kbar": 2}), 1,
     "diagnostics.kbar must be an integer greater than m=5, got 2"),
    # run: a decrease constant that underflows to 0, turned away before the solve
    ("decrease-constant-underflows", run(solver={"gamma_min": 5e-324}), 1,
     "kldescent: error: decrease constant a must be positive, got 0.0 from alpha=0.5, "
     "delta=1.0, gamma_min=5e-324\n"),
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
    # run: the first bad field in rule order is named
    ("solver-two-bad-fields", run(algorithm="npg_major", solver={"delta": 2, "max_outer": 0}),
     1, "max_outer must be a positive integer, got 0"),  # the first field checked
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
    # a least-squares value past the float range: a rejected trial, with no warning
    ("quad-l1-mu-at-the-float-max",
     run(problem="quad-l1", params={"seed": 0, "rows": 12, "cols": 20, "mu": sys.float_info.max}),
     2, "kldescent: error: solver failure: no acceptable step within 60 trials at outer "
        "iteration 0 (last gamma 5.76461e+15)\n"),
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
    # sweep
    ("sweep-bad-values", sweep("delta", "a,b"), 1, "is not a number"),
    ("sweep-empty-value", sweep("delta", "0.1,,0.2"), 1,
     "kldescent: error: empty entry in --values '0.1,,0.2'; give a comma-separated list\n"),
    ("sweep-boolean-value", sweep("delta", "true"), 1,
     "kldescent: error: --values entry True is not a number\n"),
    ("sweep-param-not-a-field", sweep("bogus.block.x", "1"), 1,
     "kldescent: error: --param 'bogus.block.x' does not name a config field\n"),
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
    ("verify-lf-negative", verify(NPG, "--lf", "-1"), 1,
     "lipschitz must be nonnegative, got -1.0"),
    ("verify-delta-negative", verify(NPG, "--delta", "-3"), 1,
     "delta must be nonnegative, got -3.0"),
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
]] + field_rows()
