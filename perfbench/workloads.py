"""The two workloads.

A workload runs whole rounds of the same operations; a round attempts the
same number of operations every time, so the share that fails is the same
in every run.  The inputs are fixed by each workload's definition, so every
run does the same work; the seed only shuffles the order in which a round
issues its configurations.

Every operation goes through the package in this process: solves through
the Python API, the command line through ``kldescent.cli.main``.  Each
operation's outputs are checked by :mod:`checks`; a check that fails marks
the operation failed, and one that is not a known fault also makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path
from time import perf_counter
from typing import Optional

from kldescent import catalog, cli, npg, pgenls

import checks

# A fault of the program that makes an operation fail on every run; it is
# counted as a failed operation and does not make the run incorrect.
RATE_FAULT = "power4-rate-verdict"


class Tally:
    """Operations attempted and failed, and check failures that are no known fault."""

    def __init__(self, known_faults=()):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known = set(known_faults)

    def record(self, label: str, problems: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        self.errors += [f"{label}: {check}: {why}" for check, why in problems
                        if check not in self.known]


class RoundTimer:
    """Times the calls one round makes into the package."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.solve_s = 0.0
        self.cli_s = 0.0
        self.verb_s = {"run": 0.0, "verify": 0.0, "sweep": 0.0}

    def build(self, problem_id: str, params: dict):
        t0 = perf_counter()
        inst = catalog.make_problem(problem_id, params)
        return inst, perf_counter() - t0

    def solve(self, inst, algorithm: str, m: int, max_outer: Optional[int] = None):
        if algorithm == "npg_major":
            cls, fn, extra = npg.NpgConfig, npg.npg_solve, {}
        else:
            cls, fn = pgenls.PgenlsConfig, pgenls.pgenls_solve
            extra = {"algorithm_label": algorithm}
        cfg = cls(m=m, max_outer=max_outer) if max_outer else cls(m=m)
        t0 = perf_counter()
        trace = fn(inst.problem, inst.x0, cfg, problem_id=inst.problem_id,
                   seed=inst.params.get("seed"), **extra)
        self.solve_s += perf_counter() - t0
        return trace

    def cli(self, *args: str) -> tuple[int, str]:
        """``kldescent <args>``; returns the exit status and what it wrote to stderr."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + args[0]) if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            status = cli.main(list(args))
            dt = perf_counter() - t0
        self.cli_s += dt
        self.verb_s[args[0]] += dt
        return status, err.getvalue().strip()

    def config(self, name: str, cfg: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(self.workdir / name))))
        return path


def _guard(problems: list, check: str, fn, *args) -> None:
    """Run one check; a check that raises is a failed check with the cause."""
    try:
        why = fn(*args)
    except Exception as exc:  # noqa: BLE001 - reported as the check's failure
        why = f"{type(exc).__name__}: {exc}"
    if why:
        problems.append((check, why))


def _exit_ok(status: int, err: str) -> Optional[str]:
    return None if status == 0 else f"exit {status}: {err.splitlines()[-1] if err else ''}"


def _verify_args(trace_csv: Path, out: Path, report: dict, algorithm: str, m: int) -> list[str]:
    """``verify`` flags carrying the run's constants: the report's, plus the
    solver defaults the run used for the ones the report does not print."""
    cfg = npg.NpgConfig() if algorithm == "npg_major" else pgenls.PgenlsConfig()
    args = ["verify", str(trace_csv), "--report", str(out), "--algorithm", algorithm,
            "--m", str(m), "--a", repr(report["constants.a"]), "--alpha", repr(cfg.alpha),
            "--delta", repr(cfg.delta), "--tau", repr(report["h4.tau"]),
            "--mu", repr(report["h4.mu"]), "--kbar", str(report["h4.kbar"]),
            "--problem", report["problem"], "--terminated", report["terminated"]]
    args += ["--c", repr(cfg.c)] if algorithm == "npg_major" else ["--beta-max", repr(cfg.beta_max)]
    if report["constants.l_f"] is not None:
        args += ["--lf", repr(report["constants.l_f"])]
    return args


def _run_and_verify(s: RoundTimer, name: str, cfg: dict) -> dict:
    """``kldescent run`` then ``kldescent verify`` on its trace; returns what the
    checks need.  Verify is attempted even when run failed, so that every
    round issues the same calls."""
    out = s.workdir / name
    res = {"dir": out}
    res["run"] = s.cli("run", str(s.config(name, cfg)))
    report_path = out / "report.json"
    report = checks.load_report(report_path) if report_path.exists() else None
    res["report"] = report
    res["report_text"] = report_path.read_text() if report else None
    if report:
        res["verify"] = s.cli(*_verify_args(out / "trace.csv", out / "verify.json", report,
                                            cfg["algorithm"], cfg["solver"]["m"]))
    else:
        res["verify"] = s.cli("verify", str(out / "trace.csv"))
    return res


def _check_verify(problems: list, res: dict) -> None:
    """``verify`` exits 0 and reproduces the run's report byte for byte."""
    _guard(problems, "exit", _exit_ok, *res["verify"])
    verify_path = res["dir"] / "verify.json"
    got = verify_path.read_text() if verify_path.exists() else ""
    _guard(problems, "same-report", checks.check_same_report, res["report_text"] or "?", got)


def _check_power4_rate(problems: list, report_path: Path, m: int) -> None:
    """x^4/4 has KL exponent 3/4 at its minimizer: no geometric rate, and at
    m=0 a ``sublinear`` verdict with that exponent.  A ``linear`` verdict at
    m=5 is the known fault; any other miss is not."""
    try:
        report = checks.load_report(report_path)
    except Exception as exc:  # noqa: BLE001 - reported as the check's failure
        problems.append(("rate", f"{type(exc).__name__}: {exc}"))
        return
    if m == 0:
        _guard(problems, "rate", checks.check_rate, report, ("sublinear",), 0.75)
        return
    known = m == 5 and report.get("rate.verdict") == "linear"
    _guard(problems, RATE_FAULT if known else "rate",
           checks.check_rate, report, ("sublinear", "inconclusive"))


def _check_quartic_csv(path: Path, m: int) -> Optional[str]:
    return checks.check_quartic_trace(checks.read_trace_columns(path), m,
                                      pgenls.PgenlsConfig().delta)


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class Workload:
    name = ""
    known_faults: tuple[str, ...] = ()

    def __init__(self, seed: int):
        """``seed`` orders the configurations within a round."""

    def setup(self, s: RoundTimer) -> float:
        """Build the instances of every configuration once; returns the time."""
        raise NotImplementedError

    def round(self, s: RoundTimer, tally: Tally, first: bool) -> float:
        """One round of operations; returns the time its instance builds took."""
        raise NotImplementedError


class LassoLarge(Workload):
    """Two 2000x4000 instances at m=5 with default tolerances."""

    name = "lasso-large"
    PARAMS = {"seed": 1, "rows": 2000, "cols": 4000}
    CONFIGS = (("lasso", "pgenls"), ("l1-l2-dc", "npg_major"))
    M = 5

    def __init__(self, seed: int):
        self.order = _shuffled(self.CONFIGS, seed)
        self.reference: dict = {}   # first round's outputs per configuration

    def setup(self, s: RoundTimer) -> float:
        return sum(s.build(pid, self.PARAMS)[1] for pid, _ in self.order)

    def round(self, s: RoundTimer, tally: Tally, first: bool) -> float:
        built = 0.0
        for pid, alg in self.order:
            label = f"{pid}/{alg}"
            solve_problems: list = []
            inst, dt = s.build(pid, self.PARAMS)
            built += dt
            api = None
            try:
                trace = s.solve(inst, alg, self.M)
                api = {"x": trace.records[-1].x, "F": trace.records[-1].f_value,
                       "F0": trace.records[0].f_value, "rows": len(trace),
                       "terminated": trace.terminated, "lam": inst.params["lam"]}
                del trace
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                solve_problems.append(("exception", f"{type(exc).__name__}: {exc}"))
            del inst  # only one copy of the matrix is alive at a time
            res = _run_and_verify(s, pid, {"problem": pid, "params": self.PARAMS,
                                           "algorithm": alg, "solver": {"m": self.M}})

            run_problems: list = []
            _guard(run_problems, "exit", _exit_ok, *res["run"])
            if api is not None:
                _guard(solve_problems, "terminated", lambda: None if api["terminated"]
                       in ("tolerance", "stationary") else f"stopped by {api['terminated']}")
                _guard(run_problems, "same-as-api", self._check_cli_trace, res, api)
                if first:
                    _guard(solve_problems, "stationary", self._check_solution, pid, api)
                    self.reference[pid] = (api["x"], res["report_text"])
                else:
                    _guard(solve_problems, "deterministic", self._check_repeat, pid, api, res)
            verify_problems: list = []
            _check_verify(verify_problems, res)
            tally.record(f"{label} solve", solve_problems)
            tally.record(f"{label} run", run_problems)
            tally.record(f"{label} verify", verify_problems)
        return built

    def _check_solution(self, pid: str, api: dict) -> Optional[str]:
        # A is regenerated in row blocks, so the check adds little to peak memory
        ls = checks.least_squares_at(self.PARAMS["seed"], self.PARAMS["rows"],
                                     self.PARAMS["cols"], api["x"])
        return (checks.check_data_match(ls, api["F0"], api["lam"])
                or checks.check_stationary(ls, api["x"], api["F"],
                                           concave_l2=(pid == "l1-l2-dc")))

    @staticmethod
    def _check_cli_trace(res: dict, api: dict) -> Optional[str]:
        X = checks.read_sidecar(res["dir"] / "trace.bin")
        if X.shape[0] != api["rows"]:
            return f"trace has {X.shape[0]} rows, the API solve {api['rows']}"
        if not (X[-1] == api["x"]).all():
            return "final iterate differs from the API solve"
        return None

    def _check_repeat(self, pid: str, api: dict, res: dict) -> Optional[str]:
        x_ref, report_ref = self.reference[pid]
        if not (api["x"] == x_ref).all():
            return "final iterate differs from the first round's"
        if res["report_text"] != report_ref:
            return "report differs from the first round's"
        return None


class CatalogSweep(Workload):
    """The 50-run canned suite of tests/conftest.py, issued as sweeps over the seed."""

    name = "catalog-sweep"
    known_faults = (RATE_FAULT,)
    PLAN = (("lasso", "pgenls"), ("quad-l1", "npg_major"), ("l0-ls", "npg_major"),
            ("l1-l2-dc", "npg_major"), ("power4-1d", "pgenls"))
    SEEDS = (0, 1, 2, 3, 4)
    WINDOWS = (0, 5)
    MAX_OUTER = {"npg_major": 3000, "pgenls": 1500}

    def __init__(self, seed: int):
        self.sweeps = _shuffled([(pid, alg, m) for pid, alg in self.PLAN
                                 for m in self.WINDOWS], seed)
        self.solves = _shuffled([(pid, alg, sd, m) for pid, alg in self.PLAN
                                 for sd in self.SEEDS for m in self.WINDOWS], seed + 1)

    def _build_all(self, s: RoundTimer) -> tuple[dict, float]:
        instances, built = {}, 0.0
        for pid, _ in self.PLAN:
            for sd in self.SEEDS:
                instances[pid, sd], dt = s.build(pid, {"seed": sd})
                built += dt
        return instances, built

    def setup(self, s: RoundTimer) -> float:
        return self._build_all(s)[1]

    def round(self, s: RoundTimer, tally: Tally, first: bool) -> float:
        instances, built = self._build_all(s)
        api: dict = {}
        for pid, alg, sd, m in self.solves:
            try:
                trace = s.solve(instances[pid, sd], alg, m, self.MAX_OUTER[alg])
                api[pid, sd, m] = (len(trace) - 1, repr(trace.records[-1].f_value))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                api[pid, sd, m] = f"{type(exc).__name__}: {exc}"
        del instances

        values = ",".join(str(sd) for sd in self.SEEDS)
        for pid, alg, m in self.sweeps:
            name = f"{pid}_m{m}"
            cfg = {"problem": pid, "params": {"seed": self.SEEDS[0]}, "algorithm": alg,
                   "solver": {"m": m, "max_outer": self.MAX_OUTER[alg]}}
            status, err = s.cli("sweep", str(s.config(name, cfg)),
                                "--param", "params.seed", "--values", values)
            rows = self._aggregate(s.workdir / name / "aggregate.csv")
            for sd in self.SEEDS:
                run_problems: list = []
                row = rows.get(str(sd))
                if row is None:
                    run_problems.append(("aggregate", f"no row for seed {sd} "
                                                      f"(sweep exit {status}: {err})"))
                else:
                    _guard(run_problems, "exit", _exit_ok, int(row["exit"]), err)
                    run_dir = s.workdir / name / f"params_seed_{sd}"
                    _guard(run_problems, "audits", self._check_audits, run_dir / "report.json")
                    if pid == "power4-1d":
                        _guard(run_problems, "trace", _check_quartic_csv,
                               run_dir / "trace.csv", m)
                        _check_power4_rate(run_problems, run_dir / "report.json", m)
                solve_problems: list = []
                ref = api[pid, sd, m]
                if isinstance(ref, str):
                    solve_problems.append(("exception", ref))
                elif row is not None and (str(ref[0]), ref[1]) != (row["iterations"],
                                                                   row["final_f"]):
                    solve_problems.append(("same-as-sweep", f"API solve gives {ref}, sweep "
                                           f"{row['iterations']} iterations, F {row['final_f']}"))
                label = f"{pid}/{alg}/seed={sd}/m={m}"
                tally.record(f"{label} solve", solve_problems)
                tally.record(f"{label} sweep run", run_problems)
        return built

    @staticmethod
    def _aggregate(path: Path) -> dict:
        if not path.exists():
            return {}
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        return {cells[0]: dict(zip(header, cells)) for cells in
                (line.split(",") for line in lines[1:])}

    @staticmethod
    def _check_audits(path: Path) -> Optional[str]:
        failed = checks.failed_audits(checks.load_report(path))
        return "audits failed: " + ", ".join(failed) if failed else None


WORKLOADS = {w.name: w for w in (LassoLarge, CatalogSweep)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)

