"""Command-line front end: run / sweep / verify / list-problems.

Exit codes, all assigned by :func:`_exit_status`: 0 success, 1 bad input
(bad JSON or field values, algorithm/problem mismatch, malformed or unreadable
trace file, usage errors), unwritable outputs or an allocation that fails, 2
solver or diagnostics failure (backtracking exhaustion, oracle inconsistency),
3 audit failure (the run finished but at least one framework check failed).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path
from typing import Optional

from ._version import __version__
from .catalog import describe_problems, make_problem
from .diagnostics import DiagnosticsReport, build_report
from .domains import ALGORITHMS, RULES, check, check_known, shown
from .errors import InsufficientTraceError, InvalidInputError, KlDescentError
from .npg import NpgConfig, npg_solve
from .pgenls import PgenlsConfig, pgenls_solve
from .trace import Trace, read_trace_csv, write_trace_csv

# aggregate.csv columns after value and exit, each with its report key
_AGGREGATE_FIELDS = (("iterations", "iterations"), ("final_f", "final_f"),
                     ("verdict", "rate.verdict"), ("rho", "rate.rho"),
                     ("slope", "rate.slope"), ("degenerate_a", "h1.degenerate_a"))
# the verify flags that make up the trace's config snapshot
_SNAPSHOT_FLAGS = ("m", "a", "alpha", "delta", "c", "beta_max")
# the longest file name, in bytes, of the common Linux filesystems
_NAME_MAX = 255


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # solver-error code; funnel usage problems into exit 1 instead.
    def error(self, message):
        raise InvalidInputError(message)


class _AuditFailure(KlDescentError):
    """The audits of ``report`` ran and at least one failed; the message
    names them, followed by ``where``."""

    def __init__(self, report: DiagnosticsReport, where: str = ""):
        super().__init__(", ".join(report.failures()) + where)


# the program's own failures, which every verb maps; any other exception is a bug
_HANDLED = (KlDescentError, OSError, MemoryError)


def _exit_status(exc: Exception, stage: Optional[str] = None) -> int:
    """Print ``exc`` as the one ``kldescent: error:`` line and return its exit
    status: 1 for bad input, for outputs that cannot be written and for an
    allocation that fails, 2 for an error the ``stage`` ("solver" or
    "diagnostics") raised, 3 for failed audits.  A sweep run that raised an
    exception not the program's own passes its name as ``stage``, and exits 2
    too."""
    if isinstance(exc, _AuditFailure):
        status, text = 3, f"audit failure: {exc}"
    elif isinstance(exc, (InvalidInputError, InsufficientTraceError)):
        status, text = 1, str(exc)
    elif isinstance(exc, OSError):
        status, text = 1, f"cannot write outputs: {exc}"
    elif isinstance(exc, MemoryError):
        status, text = 1, f"out of memory: {exc}" if str(exc) else "out of memory"
    elif isinstance(exc, KlDescentError):
        status, text = 2, f"{stage} failure: {exc}" if stage else str(exc)
    else:
        status, text = 2, f"{stage}: unexpected failure: {exc}"
    print(f"kldescent: error: {text}", file=sys.stderr)
    return status


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"{path}: top level must be a JSON object")
    check_known(cfg, RULES["config"], f"{path}: unknown config field(s)")
    if "problem" not in cfg or not isinstance(cfg["problem"], str):
        raise InvalidInputError(f"{path}: field 'problem' (string) is required")
    if cfg.get("algorithm") not in ALGORITHMS:
        raise InvalidInputError(
            f"{path}: field 'algorithm' must be one of {', '.join(ALGORITHMS)}, "
            f"got {cfg.get('algorithm')!r}"
        )
    for key, (kind, _, _) in RULES["config"].items():  # problem and algorithm hold by now
        if key in cfg and not isinstance(cfg[key], kind):
            noun = "an object" if kind is dict else "a string"
            raise InvalidInputError(f"{path}: field {key!r} must be {noun}")
    return cfg


def diag_overrides(cfg: dict) -> dict:
    """The fields the diagnostics block gives, checked, as build_report keywords."""
    return check("diagnostics", "diagnostics.", **cfg.get("diagnostics", {}))


def _solver_config(cfg: dict):
    """Validate the solver block and build the algorithm's config object."""
    algorithm = cfg["algorithm"]
    solver = cfg.get("solver", {})
    check_known(solver, RULES[algorithm], f"unknown solver field(s) for {algorithm}")
    if algorithm == "pgnls":
        zeros = {"delta": 0.0, "beta_max": 0.0}
        check("pgnls", "solver.", **{name: solver[name] for name in zeros if name in solver})
        solver = {**solver, **zeros}
    return (NpgConfig if algorithm == "npg_major" else PgenlsConfig)(**solver)


def _build(cfg: dict):
    """Config dict -> (problem instance, solver config, diagnostics overrides),
    checking the diagnostics block, then the params, then the solver block."""
    diag = diag_overrides(cfg)
    instance = make_problem(cfg["problem"], cfg.get("params", {}))
    solver_cfg = _solver_config(cfg)
    if "kbar" in diag:  # the audit's kbar must exceed the run's m
        check("audit", "diagnostics.", m=solver_cfg.m, kbar=diag["kbar"])
    if cfg["algorithm"] != "npg_major" and instance.problem.h is not None:
        raise InvalidInputError(
            f"algorithm {cfg['algorithm']!r} cannot handle problem "
            f"{cfg['problem']!r}: the objective has a concave term; use npg_major"
        )
    return instance, solver_cfg, diag


def _solve(cfg: dict, instance, solver_cfg) -> Trace:
    seed = cfg.get("params", {}).get("seed")
    algorithm = cfg["algorithm"]
    if algorithm == "npg_major":
        return npg_solve(instance.problem, instance.x0, solver_cfg,
                         problem_id=instance.problem_id, seed=seed)
    return pgenls_solve(instance.problem, instance.x0, solver_cfg,
                        problem_id=instance.problem_id, seed=seed,
                        algorithm_label=algorithm)


def _summary_text(report: DiagnosticsReport) -> str:
    f = report.fields

    def fmt(key):
        v = f.get(key)
        return "-" if v is None else str(v)

    def gate(key):
        v = f.get(key + ".pass")
        return {True: "pass", False: "FAIL", None: "n/a"}[v]

    lines = [
        f"kldescent {f['version']}",
        f"problem: {fmt('problem')}",
        f"algorithm: {f['algorithm']}",
        f"iterations: {f['iterations']} (terminated: {fmt('terminated')})",
        f"final F: {fmt('final_f')}   final residual: {fmt('final_residual')}",
        "audits: " + "  ".join(
            f"{name}={gate(name)}"
            for name in ("h1", "acceptance", "ell", "h3", "h4",
                         "prop_bound", "series", "bbar_cap")),
        (f"rate: {f['rate.verdict']} (rho={fmt('rate.rho')}, "
         f"slope={fmt('rate.slope')}, theta={fmt('rate.theta')})"),
        (f"constants: a={fmt('constants.a')} b_hat={fmt('constants.b_hat')} "
         f"b_bar={fmt('constants.b_bar')} gamma_star={fmt('constants.gamma_star')} "
         f"c={fmt('prop_bound.c')} L_f={fmt('constants.l_f')}"),
    ]
    if f.get("h1.degenerate_a"):
        lines.append("note: proximity weight 0 with extrapolation on - "
                     "paired-state decrease constant is degenerate")
    failures = report.failures()
    lines.append("overall: " + ("PASS" if not failures
                                else "FAIL (" + ", ".join(failures) + ")"))
    return "\n".join(lines) + "\n"


def execute(cfg: dict, outdir: Path) -> tuple[int, dict]:
    """Run one experiment into ``outdir``; returns (exit status, report
    fields), the fields empty unless the report was written."""
    stage, fields = None, {}
    try:
        instance, solver_cfg, diag = _build(cfg)
        stage = "solver"
        trace = _solve(cfg, instance, solver_cfg)
        stage = "diagnostics"
        outdir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, outdir / "trace.csv")
        report = build_report(trace, problem=instance.problem, **diag)
        (outdir / "report.json").write_text(report.to_json())
        (outdir / "summary.txt").write_text(_summary_text(report))
        fields = report.fields
        if not report.passed():
            raise _AuditFailure(report, f" (see {outdir / 'report.json'})")
    except _HANDLED as exc:
        return _exit_status(exc, stage), fields
    return 0, fields


def _default_outdir(config_path: str) -> Path:
    p = Path(config_path)
    return p.parent / (p.stem + "_out")


# ---------------------------------------------------------------------------
# verbs


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(cfg.get("output_dir") or _default_outdir(args.config))
    status, _ = execute(cfg, outdir)
    return status


def _parse_sweep_values(raw: str) -> list:
    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            raise InvalidInputError(
                f"empty entry in --values {raw!r}; give a comma-separated list"
            )
        try:
            values.append(json.loads(tok))
        except ValueError:  # JSONDecodeError, or an integer of over 4300 digits
            raise InvalidInputError(
                f"--values entry {shown(tok)} is not a number"
            ) from None
    if not values:
        raise InvalidInputError("--values must name at least one value")
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InvalidInputError(f"--values entry {shown(v)} is not a number")
    return values


def _apply_sweep_value(cfg: dict, param: str, value) -> dict:
    """Return a copy of ``cfg`` with the named field replaced.

    Dotted names address a block explicitly (``solver.m``, ``params.lam``,
    ``diagnostics.tau``); bare names try the solver block first, then the
    diagnostics block (``tau``, ``mu``, ``kbar``), then the problem
    parameters.  So ``mu`` is the audit's mu, and ``quad-l1``'s own mu is
    ``params.mu``.
    """
    out = copy.deepcopy(cfg)
    if "." in param:
        block, name = param.split(".", 1)
        if block not in ("solver", "params", "diagnostics") or not name:
            raise InvalidInputError(f"--param {param!r} does not name a config field")
        out.setdefault(block, {})[name] = value
        return out
    if param in RULES[cfg["algorithm"]]:
        out.setdefault("solver", {})[param] = value
    elif param in RULES["diagnostics"]:
        out.setdefault("diagnostics", {})[param] = value
    else:
        out.setdefault("params", {})[param] = value
    return out


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)  # str of a float is its repr


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    diag_overrides(cfg)
    values = _parse_sweep_values(args.values)
    configs = [_apply_sweep_value(cfg, args.param, v) for v in values]
    names = [f"{args.param.replace('.', '_')}_{value}" for value in values]
    for i, name in enumerate(names):
        if len(name.encode()) > _NAME_MAX:
            raise InvalidInputError(f"run directory name {shown(name)} is "
                                    f"{len(name.encode())} bytes long, over {_NAME_MAX}")
        if name in names[:i]:  # two values that print alike would share one run
            raise InvalidInputError(f"run directory name {shown(name)} repeats in --values")
    root = Path(cfg.get("output_dir") or _default_outdir(args.config))
    root.mkdir(parents=True, exist_ok=True)

    results = []
    for value, name, sub_cfg in zip(values, names, configs):
        subdir = root / name
        try:
            results.append(execute(sub_cfg, subdir))
        except Exception as exc:  # isolation: one bad run must not kill the sweep
            results.append((_exit_status(exc, subdir.name), {}))

    rows = [",".join(["value", "exit"] + [column for column, _ in _AGGREGATE_FIELDS])]
    for value, (status, fields) in zip(values, results):
        rows.append(",".join([_csv_cell(value), str(status)]
                             + [_csv_cell(fields.get(key)) for _, key in _AGGREGATE_FIELDS]))
    (root / "aggregate.csv").write_text("\n".join(rows) + "\n")
    print(f"sweep over {args.param}: {len(values)} runs, aggregate in "
          f"{root / 'aggregate.csv'}")
    return max(status for status, _ in results)


def cmd_verify(args) -> int:
    """Re-audit a trace CSV; the solver-constant flags given are its config
    snapshot, the one source :func:`build_report` reads them from."""
    snapshot = {name: getattr(args, name) for name in _SNAPSHOT_FLAGS
                if getattr(args, name) is not None}
    missing = ("--m and --a" if args.m is None or args.a is None
               else "--delta" if args.delta is None and args.algorithm != "npg_major"
               else None)
    try:
        # a malformed trace is named first, then a missing flag, then a bad one
        trace = read_trace_csv(args.trace, algorithm=args.algorithm,
                               config=None if missing else snapshot)
        if missing:
            raise InsufficientTraceError(f"audit constants unavailable: give {missing}")
        trace.problem_id = args.problem
        trace.terminated = args.terminated
        report = build_report(trace, lipschitz=args.lf, **{
            name: getattr(args, name) for name in RULES["diagnostics"]
            if getattr(args, name) is not None})
        payload = report.to_json()
        if args.report:
            Path(args.report).write_text(payload)
        else:
            sys.stdout.write(payload)
        if not report.passed():
            raise _AuditFailure(report)
    except _HANDLED as exc:
        return _exit_status(exc, "diagnostics")
    return 0


def cmd_list_problems(_args) -> int:
    for pid, desc in describe_problems():
        print(f"{pid:12s} {desc}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kldescent",
                     description="Nonmonotone proximal descent solvers with "
                                 "framework audits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="experiment config (JSON)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config across parameter values")
    p_sweep.add_argument("config", help="experiment config (JSON)")
    p_sweep.add_argument("--param", required=True,
                         help="config field to vary (e.g. m, delta, params.lam)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="re-audit an existing trace.csv")
    p_ver.add_argument("trace", help="trace CSV produced by run (or compatible)")
    p_ver.add_argument("--report", default=None,
                       help="write the report JSON here (default: stdout)")
    p_ver.add_argument("--algorithm", default="npg_major", choices=ALGORITHMS)
    p_ver.add_argument("--m", type=int, default=None, help="window length")
    p_ver.add_argument("--a", type=float, default=None,
                       help="sufficient-decrease constant")
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--delta", type=float, default=None,
                       help="proximity weight used by the run")
    p_ver.add_argument("--c", type=float, default=None,
                       help="free decrease weight (DC solver)")
    p_ver.add_argument("--beta-max", type=float, default=None, dest="beta_max")
    p_ver.add_argument("--lf", type=float, default=None,
                       help="upper bound on the Lipschitz constant of the "
                            "gradient of f (without it the checks that need "
                            "one report n/a)")
    p_ver.add_argument("--tau", type=float, default=None)
    p_ver.add_argument("--mu", type=float, default=None)
    p_ver.add_argument("--kbar", type=int, default=None)
    p_ver.add_argument("--problem", default="", help="problem id for the report")
    p_ver.add_argument("--terminated", default="",
                       choices=("", "tolerance", "stationary", "max_outer"),
                       help="termination reason of the original run")
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-problems", help="list canned problem ids")
    p_list.set_defaults(func=cmd_list_problems)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _HANDLED as exc:
        return _exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
