"""Command-line harness: exit codes, artifacts, sweep aggregation, verify."""

import json
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bad_inputs
from kldescent import catalog, cli
from kldescent.catalog import make_problem, problem_ids
from kldescent.cli import build_parser, main
from kldescent.domains import RULES, Domain
from kldescent.errors import InvalidInputError
from kldescent.trace import CSV_COLUMNS
from kldescent.cli import _apply_sweep_value, _parse_sweep_values, diag_overrides, load_config

SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, name="exp.json", **overrides):
    cfg = {
        "problem": "lasso",
        "params": {"seed": 1},
        "algorithm": "pgenls",
        "solver": {"m": 5, "max_outer": 2000, "tol_resid": 1e-6},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_success_writes_artifacts(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "trace.csv").exists()
    assert (out / "report.json").exists()
    summary = (out / "summary.txt").read_text()
    assert "overall: PASS" in summary
    assert "h1=pass" in summary
    report = json.loads((out / "report.json").read_text())
    assert report["algorithm"] == "pgenls"
    assert report["problem"] == "lasso"


@pytest.mark.parametrize("problem, seed, algorithm, m, terminated", [
    ("l0-ls", 2, "npg_major", 1, "stationary"),
    ("l0-ls", 6, "pgenls", 0, "stationary"),
    ("l0-ls", 7, "npg_major", 5, "tolerance"),     # 8 iterations: a 1-point tail
    ("l0-ls", 1, "npg_major", 6, "tolerance"),     # 10 iterations: 1 point
    ("l1-l2-dc", 8, "npg_major", 8, "tolerance"),  # 24 iterations: 3 points
])
def test_series_gives_no_verdict_on_a_short_or_stationary_run(tmp_path, capsys, problem,
                                                               seed, algorithm, m, terminated):
    # each of these correct runs carries more than 1% of a series in its
    # last decile, and failed the series gate when it was applied to them
    path, _ = write_config(tmp_path, problem=problem, params={"seed": seed},
                           algorithm=algorithm, solver={"m": m})
    assert main(["run", str(path)]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["terminated"] == terminated
    assert report["series.pass"] is None
    assert max(report["series.xi_tail_fraction"], report["series.gamma_tail_fraction"]) > 0.01
    assert all(v is not False for k, v in report.items() if k.endswith(".pass"))


def test_run_is_deterministic(tmp_path):
    p1, _ = write_config(tmp_path, name="a.json",
                         output_dir=str(tmp_path / "o1"))
    p2, _ = write_config(tmp_path, name="b.json",
                         output_dir=str(tmp_path / "o2"))
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2)]) == 0
    assert (tmp_path / "o1" / "trace.csv").read_bytes() == \
        (tmp_path / "o2" / "trace.csv").read_bytes()
    assert (tmp_path / "o1" / "report.json").read_bytes() == \
        (tmp_path / "o2" / "report.json").read_bytes()


def test_default_output_dir_next_to_config(tmp_path):
    cfg = {"problem": "power4-1d", "algorithm": "pgenls",
           "solver": {"max_outer": 50}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "exp_out" / "report.json").exists()


def test_dc_problem_through_dc_solver(tmp_path):
    path, _ = write_config(tmp_path, problem="l1-l2-dc",
                           params={"seed": 7}, algorithm="npg_major",
                           solver={"m": 5, "max_outer": 3000,
                                   "tol_resid": 1e-6})
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["algorithm"] == "npg_major"
    assert report["final_residual"] <= 1e-6


def test_only_build_report_defaults_tau(references, capsys):
    # the config and verify pass only what they are given
    assert diag_overrides({"diagnostics": {}}) == {}
    assert diag_overrides({"diagnostics": {"kbar": 9, "tau": 0.25}}) == {"kbar": 9, "tau": 0.25}
    out, full = references[bad_inputs.NPG]
    reports = []
    for flags in ([], ["--tau", "0.5"]):
        assert main(["verify", str(out / "trace.csv"), *full, *flags]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and json.loads(reports[0])["h4.tau"] == 0.5


# the rows of the bad-input table by id, which the tests below take their calls from
ROW = {row.id: row for row in bad_inputs.ROWS}


def exits_as(row, here, capsys, refs=None) -> Path:
    """Make ``row``'s call in ``here`` and check its status and its one line."""
    here.mkdir(exist_ok=True)
    assert main(row.call(here, refs or {})) == row.status
    err = capsys.readouterr().err
    assert err.startswith("kldescent: error: ") and err.count("\n") == 1, err
    assert row.fragment in err, err
    return here


def test_exit_1_bad_tau(tmp_path, capsys):
    exits_as(ROW["bad-tau"], tmp_path, capsys)


@pytest.mark.parametrize("row", [
    ROW["diagnostics.tau.kind"], ROW["diagnostics.mu.kind"],
    bad_inputs.Row("kbar", bad_inputs.run(diagnostics={"kbar": True}), 1,
                   "kldescent: error: diagnostics.kbar must be an integer, got True\n"),
], ids=["tau", "mu", "kbar"])
def test_exit_1_boolean_diagnostics(tmp_path, capsys, row):
    assert not (exits_as(row, tmp_path, capsys) / "c_out").exists()


def _params(problem, params, message):
    return bad_inputs.Row("", bad_inputs.run(problem=problem, params=params), 1,
                          f"kldescent: error: {message}\n")


@pytest.mark.parametrize("row", [
    _params("lasso", {"seed": 0, "rows": "abc"}, "params.rows must be an integer, got 'abc'"),
    ROW["params-lasso.rows.kind"],
    _params("lasso", {"seed": 1.5}, "params.seed must be an integer, got 1.5"),
    ROW["params-bool"],
    _params("lasso", {"seed": 0, "lam": "x"}, "params.lam must be a real number, got 'x'"),
    _params("power4-1d", {"x0": "2"}, "params.x0 must be a real number, got '2'"),
    ROW["A_csv-list"], ROW["params-lasso.A_csv.kind"], ROW["unknown-params-field"],
], ids=["rows-str", "rows-float", "seed-float", "seed-bool", "lam-str", "x0-str",
        "A_csv-list", "A_csv-int", "unknown"])
def test_exit_1_bad_problem_params(tmp_path, capsys, row):
    assert not (exits_as(row, tmp_path, capsys) / "c_out").exists()


def test_exit_1_kbar_not_above_m_before_the_solve(tmp_path, capsys):
    assert not (exits_as(ROW["kbar-not-above-m"], tmp_path, capsys) / "c_out").exists()


def test_exit_1_algorithm_problem_mismatch(tmp_path, capsys):
    for algorithm in ("pgenls", "pgnls"):
        path, _ = write_config(tmp_path, problem="l1-l2-dc", params={"seed": 0},
                               algorithm=algorithm)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"kldescent: error: algorithm {algorithm!r} cannot handle problem 'l1-l2-dc': "
            "the objective has a concave term; use npg_major\n")
        assert not (tmp_path / "out").exists()


def test_exit_1_unknown_fields(tmp_path, capsys):
    for row_id in ("unknown-solver-field", "unknown-top-field"):
        exits_as(ROW[row_id], tmp_path / row_id, capsys)


def test_exit_1_bad_json_and_missing_file(tmp_path, capsys):
    for row_id in ("bad-json", "missing-config"):
        exits_as(ROW[row_id], tmp_path / row_id, capsys)


def test_exit_1_usage_errors(tmp_path, capsys):
    for row_id in ("usage-no-verb", "usage-unknown-verb", "usage-sweep-flags"):
        exits_as(ROW[row_id], tmp_path / row_id, capsys)


def test_exit_2_backtracking_exhaustion(tmp_path, capsys):
    exits_as(ROW["backtracking-exhaustion"], tmp_path, capsys)


@pytest.mark.parametrize("problem, algorithm, message", [
    ("lasso", "pgenls", "prox output has non-finite penalty value at outer iteration 0"),
    ("quad-l1", "npg_major", "prox output has non-finite penalty value at outer iteration 0"),
    ("l0-ls", "npg_major", "no acceptable step within 60 trials at outer iteration 0 "
                           "(last gamma 5.76461e+15)"),
])
def test_exit_2_non_finite_prox_input(tmp_path, capsys, problem, algorithm, message):
    # Data this large overflows the gradient at x^0, so the prox input is
    # not finite.  The prox closures do not scan their input: an l1 output
    # then has an infinite penalty, and an l0 output (NaN kept as NaN) an
    # objective no trial can accept; both are solver failures naming the
    # iteration.
    np.savetxt(tmp_path / "A.csv", np.full((3, 4), 1e200), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.full(3, 1e200), delimiter=",")
    path, _ = write_config(
        tmp_path, problem=problem, algorithm=algorithm, solver={},
        params={"A_csv": str(tmp_path / "A.csv"), "b_csv": str(tmp_path / "b.csv"),
                "lam": 1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"kldescent: error: solver failure: {message}\n"


def test_pgnls_forces_plain_mode(tmp_path):
    path, _ = write_config(tmp_path, algorithm="pgnls",
                           solver={"m": 5, "max_outer": 2000,
                                   "tol_resid": 1e-6})
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["algorithm"] == "pgnls"
    assert report["h1.degenerate_a"] is False


def test_verify_of_a_pgnls_trace_needs_no_fixed_flag(tmp_path, capsys):
    # pgnls holds delta and beta_max at 0, so verify fills them in: the
    # report is the run's with both flags, with either and with neither
    path, _ = write_config(tmp_path, params={"seed": 0}, algorithm="pgnls", solver={"m": 5})
    assert main(["run", str(path)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    flags = ["verify", str(out / "trace.csv"), "--algorithm", "pgnls", "--m", "5",
             "--a", repr(report["constants.a"]), "--alpha", "0.5",
             "--lf", repr(report["constants.l_f"]), "--problem", "lasso",
             "--terminated", report["terminated"]]
    fixed = ["--delta", "0.0", "--beta-max", "0.0"]
    for given in (fixed, fixed[:2], fixed[2:], []):
        assert main([*flags, *given]) == 0
        assert capsys.readouterr().out == (out / "report.json").read_text()


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for pid in ("lasso", "quad-l1", "l0-ls", "l1-l2-dc", "power4-1d"):
        assert pid in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_aggregate(tmp_path, capsys):
    path, _ = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    with pytest.warns(UserWarning):
        status = main(["sweep", str(path), "--param", "delta",
                       "--values", "0,0.5"])
    assert status == 0
    agg = (tmp_path / "sweep" / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "value,exit,iterations,final_f,verdict,rho,slope,degenerate_a"
    row0 = agg[1].split(",")
    row1 = agg[2].split(",")
    assert row0[0] == "0" and row0[1] == "0" and row0[-1] == "true"
    assert row1[0] == "0.5" and row1[1] == "0" and row1[-1] == "false"
    assert (tmp_path / "sweep" / "delta_0" / "report.json").exists()
    assert (tmp_path / "sweep" / "delta_0.5" / "report.json").exists()


def test_sweep_reports_worst_status(tmp_path, capsys):
    path, _ = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    # m = -1 is rejected by the solver config; the sweep keeps going
    status = main(["sweep", str(path), "--param", "m", "--values", "2,-1"])
    assert status == 1
    agg = (tmp_path / "sweep" / "aggregate.csv").read_text().splitlines()
    assert agg[1].split(",")[1] == "0"
    assert agg[2].split(",")[1] == "1"
    assert agg[2].split(",")[2] == ""  # no report fields for the failed run


def test_sweep_dotted_param_targets_problem_params(tmp_path):
    path, _ = write_config(tmp_path, output_dir=str(tmp_path / "sweep"))
    status = main(["sweep", str(path), "--param", "params.lam_factor",
                   "--values", "0.1,0.2"])
    assert status == 0
    sub = tmp_path / "sweep" / "params_lam_factor_0.2"
    assert (sub / "report.json").exists()


def test_sweep_rejects_a_repeated_run_before_any_run(tmp_path, capsys):
    # 1 and 1.0 parse to one value: its run would be solved twice into one
    # directory and listed twice in aggregate.csv
    assert not (exits_as(ROW["sweep-repeated-value"], tmp_path, capsys) / "c_out").exists()


def test_sweep_helpers_direct():
    assert _parse_sweep_values("1, 2.5, -3") == [1, 2.5, -3]
    with pytest.raises(InvalidInputError):
        _parse_sweep_values("")
    cfg = {"problem": "lasso", "algorithm": "pgenls"}
    out = _apply_sweep_value(cfg, "m", 3)
    assert out["solver"]["m"] == 3 and "solver" not in cfg
    out = _apply_sweep_value(cfg, "tau", 0.4)
    assert out["diagnostics"]["tau"] == 0.4
    out = _apply_sweep_value(cfg, "lam", 0.2)
    assert out["params"]["lam"] == 0.2
    out = _apply_sweep_value(cfg, "diagnostics.mu", 0.1)
    assert out["diagnostics"]["mu"] == 0.1
    # a bare mu is the audit's; quad-l1's own mu is params.mu
    out = _apply_sweep_value(dict(cfg, problem="quad-l1"), "mu", 0.3)
    assert out["diagnostics"]["mu"] == 0.3 and "params" not in out
    out = _apply_sweep_value(dict(cfg, problem="quad-l1"), "params.mu", 2.0)
    assert out["params"]["mu"] == 2.0 and "diagnostics" not in out


# ---------------------------------------------------------------------------
# verify


# the solver constants of each algorithm's run, which verify takes as flags
VERIFY_CONSTANTS = {
    "npg_major": {"alpha": 1.0, "delta": 0.5, "c": 1.0},
    "pgenls": {"alpha": 0.5, "delta": 1.0, "beta_max": 0.9},
    "pgnls": {"alpha": 0.5, "delta": 0.0, "beta_max": 0.0},
}


def run_and_verify_args(tmp_path, problem="lasso", algorithm="pgenls", seed=1,
                        max_outer=2000, m=5):
    """Run one config, then give the ``verify`` call that re-audits its trace:
    the solver constants from the config, the rest from ``report.json``."""
    constants = VERIFY_CONSTANTS[algorithm]
    solver = {"m": m, "max_outer": max_outer, "tol_resid": 1e-6, **constants}
    path, cfg = write_config(tmp_path, problem=problem, params={"seed": seed},
                             algorithm=algorithm, solver=solver)
    assert main(["run", str(path)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    args = ["verify", str(out / "trace.csv"), "--algorithm", algorithm, "--m", str(m),
            "--a", repr(report["constants.a"]),
            "--problem", problem, "--terminated", report["terminated"]]
    for name, value in constants.items():
        args += ["--" + name.replace("_", "-"), repr(value)]
    if report["constants.l_f"] is not None:
        args += ["--lf", repr(report["constants.l_f"])]
    return out, args


def catalog_runs():
    """Every catalog problem with each algorithm that accepts it."""
    for pid in problem_ids():
        concave = make_problem(pid, {"seed": 0}).problem.h is not None
        for algorithm in ("npg_major",) if concave else ("npg_major", "pgenls", "pgnls"):
            yield pytest.param(pid, algorithm, id=f"{pid}-{algorithm}")


def test_verify_reproduces_run_report(tmp_path):
    out, args = run_and_verify_args(tmp_path)
    target = tmp_path / "reverify.json"
    assert main(args + ["--report", str(target)]) == 0
    assert target.read_bytes() == (out / "report.json").read_bytes()


@pytest.mark.parametrize("problem, algorithm", catalog_runs())
def test_verify_reproduces_run_report_across_catalog(tmp_path, problem, algorithm):
    out, args = run_and_verify_args(tmp_path, problem, algorithm, seed=0,
                                    max_outer=1500 if problem == "power4-1d" else 2000)
    target = tmp_path / "reverify.json"
    assert main(args + ["--report", str(target)]) == 0
    assert target.read_bytes() == (out / "report.json").read_bytes()


@pytest.mark.parametrize("algorithm", ["npg_major", "pgenls"])
def test_a_window_past_the_float_range_of_c_runs_and_verifies(tmp_path, algorithm):
    # c(mu, tau, a, m) grows like (1 + mu_bar)^(m - 1), beyond the float range
    # at m = 1000: the path-length bound says nothing, so it neither passes nor
    # fails, in run and in verify, at this m and at a longer one
    out, args = run_and_verify_args(tmp_path, algorithm=algorithm, seed=0, m=1000)
    report = json.loads((out / "report.json").read_text())
    assert report["prop_bound.c"] is None and report["prop_bound.pass"] is None
    target = tmp_path / "reverify.json"
    assert main(args + ["--report", str(target)]) == 0
    assert target.read_bytes() == (out / "report.json").read_bytes()
    assert main(args + ["--m", "2000", "--report", str(target)]) == 0
    assert json.loads(target.read_text())["prop_bound.c"] is None


def test_verify_writes_stdout_by_default(tmp_path, capsys):
    out, args = run_and_verify_args(tmp_path)
    assert main(args) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == json.loads((out / "report.json").read_text())


def test_verify_flags_corrupted_trace(tmp_path, capsys):
    out, args = run_and_verify_args(tmp_path)
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().splitlines()
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    cells[1] = "1000000.0"  # objective spike
    cells[2] = "1000000.0"  # audited merit spike
    lines[mid] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "audit failure" in err
    assert "h1" in err or "series" in err


def test_verify_malformed_trace(tmp_path, capsys, references):
    exits_as(ROW["verify-extra-cell"], tmp_path, capsys, references)


@pytest.mark.parametrize("column, value, message", [
    ("step_norm", "nan", "step_norm is not finite"),
    ("ell", "99", "ell 99 outside"),
])
def test_verify_rejects_impossible_cells(tmp_path, capsys, column, value, message):
    out, args = run_and_verify_args(tmp_path)
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().splitlines()
    cells = lines[9].split(",")
    cells[CSV_COLUMNS.index(column)] = value
    lines[9] = ",".join(cells)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"kldescent: error: {trace_path}: line 10: {message}")
    assert captured.err.count("\n") == 1


def test_verify_needs_constants(tmp_path, capsys):
    out, _ = run_and_verify_args(tmp_path)
    for given in ([], ["--delta", "1.0", "--beta-max", "0.9"]):
        assert main(["verify", str(out / "trace.csv"),
                     "--algorithm", "pgenls", *given]) == 1
        assert capsys.readouterr().err == ("kldescent: error: audit constants "
                                           "unavailable: give --m and --a\n")


def test_verify_needs_delta_for_extrapolated_traces(tmp_path, capsys):
    # without delta the paired-state steps and the ratio cap of h3 are wrong
    _, args = run_and_verify_args(tmp_path, seed=0)
    i = args.index("--delta")
    assert main(args[:i] + args[i + 2:]) == 1
    assert capsys.readouterr().err == ("kldescent: error: audit constants unavailable: "
                                       "give --delta\n")


@pytest.mark.parametrize("flag", ["--c", "--alpha"])
def test_verify_without_an_acceptance_constant_skips_only_acceptance(tmp_path, capsys, flag):
    # acceptance needs alpha, delta and (for npg_major) c; without one of them
    # it is not evaluated, and every other field stays as with all flags
    out, args = run_and_verify_args(tmp_path, problem="quad-l1", algorithm="npg_major")
    full = json.loads((out / "report.json").read_text())
    assert full["acceptance.pass"] is True
    i = args.index(flag)
    assert main(args[:i] + args[i + 2:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["acceptance.pass"] is None and report["acceptance.max_violation"] is None
    assert report.keys() == full.keys()
    assert {k: v for k, v in report.items() if not k.startswith("acceptance.")} == \
        {k: v for k, v in full.items() if not k.startswith("acceptance.")}


def test_verify_of_a_step_whose_square_underflows(tmp_path, capsys):
    # the merit rise between two steps whose squares are 0 makes b_bar, and
    # so the fitted mu, inf
    assert main(ROW["verify-step-whose-square-underflows"].call(tmp_path, {})) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["constants.b_bar"] is None and report["h4.mu"] is None
    assert report["h4.pass"] is None and report["prop_bound.pass"] is None


def test_verify_of_a_residual_ratio_past_float64_prints_one_line(tmp_path):
    # in a process of its own, where a numpy warning would reach stderr
    argv = ROW["verify-residual-ratio-past-float64"].call(tmp_path, {})
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "kldescent", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert done.stderr == "kldescent: error: audit failure: acceptance, h3\n"
    report = json.loads(done.stdout)
    assert report["constants.b_hat"] is None and report["h3.pass"] is False


def test_verify_has_one_flag_per_snapshot_and_diagnostics_field():
    # each flag parses to its domain's machine number: an int for an integer
    fields = {**RULES["snapshot"], **RULES["diagnostics"]}
    argv = ["verify", "t.csv", *[part for name in fields
                                 for part in ("--" + name.replace("_", "-"), "3")]]
    args = build_parser().parse_args(argv)
    assert {name: type(getattr(args, name)) for name in fields} == {
        name: int if kind is numbers.Integral else float for name, (kind, _, _) in fields.items()}


# ---------------------------------------------------------------------------
# config loading unit checks


def test_load_config_validation(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(InvalidInputError, match="object"):
        load_config(path)
    path.write_text(json.dumps({"problem": "lasso", "algorithm": "sgd"}))
    with pytest.raises(InvalidInputError, match="algorithm"):
        load_config(path)
    path.write_text(json.dumps({"algorithm": "pgenls"}))
    with pytest.raises(InvalidInputError, match="problem"):
        load_config(path)
    path.write_text(json.dumps({"problem": "lasso", "algorithm": "pgenls",
                                "solver": []}))
    with pytest.raises(InvalidInputError, match="solver"):
        load_config(path)


# ---------------------------------------------------------------------------
# error paths: each bad input exits with its documented status and one line


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    return bad_inputs.reference_runs(tmp_path_factory.mktemp("references"))


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.00 EiB for an array with shape "
                      "(536870912, 536870912) and data type float64")


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_exit_1_when_the_data_does_not_fit_in_memory(empty_memo, tmp_path, capsys,
                                                     monkeypatch, verb):
    # rows = cols = 2**29 passes the size rule but no memory holds its matrix;
    # the data function is stubbed so that the allocation is never tried
    monkeypatch.setattr(catalog, "_sparse_regression_data", _no_memory)
    params = {"seed": 0, "rows": 2**29, "cols": 2**29}
    call = (bad_inputs.run(params=params) if verb == "run" else
            bad_inputs.sweep("params.seed", "0", params=params))
    assert main(call(tmp_path, {})) == 1
    err = capsys.readouterr().err
    assert err == ("kldescent: error: out of memory: Unable to allocate 2.00 EiB for an "
                   "array with shape (536870912, 536870912) and data type float64\n")


def test_a_sweep_run_that_raises_a_foreign_exception_fails_alone(tmp_path, capsys, monkeypatch):
    execute = cli.execute

    def boom_at_m_1(cfg, outdir):
        if cfg["solver"]["m"] == 1:
            raise RuntimeError("boom")
        return execute(cfg, outdir)

    monkeypatch.setattr(cli, "execute", boom_at_m_1)
    path, _ = write_config(tmp_path, problem="power4-1d", params={},
                           solver={"max_outer": 50}, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(path), "--param", "m", "--values", "0,1,2"]) == 2
    assert capsys.readouterr().err == "kldescent: error: m_1: unexpected failure: boom\n"
    for m in (0, 2):
        assert (tmp_path / "sweep" / f"m_{m}" / "report.json").exists()
    aggregate = (tmp_path / "sweep" / "aggregate.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in aggregate[1:]] == ["0", "2", "0"]
    assert aggregate[2] == "1,2,,,,,,"


def test_an_interrupted_sweep_leaves_the_last_aggregate(tmp_path, capsys, monkeypatch):
    path, _ = write_config(tmp_path, problem="power4-1d", params={},
                           solver={"max_outer": 50}, output_dir=str(tmp_path / "sweep"))
    assert main(["sweep", str(path), "--param", "m", "--values", "0"]) == 0
    last = (tmp_path / "sweep" / "aggregate.csv").read_text()

    def interrupt(cfg, outdir):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "execute", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", str(path), "--param", "m", "--values", "1,2"])
    assert (tmp_path / "sweep" / "aggregate.csv").read_text() == last


@pytest.mark.parametrize("row", bad_inputs.ROWS, ids=[row.id for row in bad_inputs.ROWS])
def test_error_paths_exit_with_one_line(tmp_path, capsys, references, row):
    argv = row.call(tmp_path, references)
    before = set(tmp_path.rglob("*"))
    assert main(argv) == row.status
    err = capsys.readouterr().err
    if row.status == 0:
        assert err == ""
    else:
        assert err.startswith("kldescent: error: ") and err.count("\n") == 1, err
        assert err.endswith("\n") and row.fragment in err, err
    # a run turned away makes nothing, and a sweep no run directory: at most
    # its root (c.json's default output directory) and aggregate.csv
    made = {path.name for path in set(tmp_path.rglob("*")) - before}
    if row.status == 1 and argv[:1] == ["run"]:
        assert not made, made
    if row.status == 1 and argv[:1] == ["sweep"]:
        assert made <= {"c_out", "aggregate.csv"}, made


def test_a_field_added_to_the_rule_table_gets_its_rows(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(RULES["diagnostics"], "zeta", RULES["diagnostics"]["tau"])
    rows = [row for row in bad_inputs.field_rows() if ".zeta." in row.id]
    assert [row.id for row in rows] == ["diagnostics.zeta.kind", "diagnostics.zeta.test",
                                        "diagnostics.zeta.range"]
    for row in rows:
        (tmp_path / row.id).mkdir()
        assert main(row.call(tmp_path / row.id, {})) == 1
        assert capsys.readouterr().err == row.fragment
    # a test that every tried value passes gets the other two rows
    monkeypatch.setitem(RULES["diagnostics"], "zeta", Domain(numbers.Integral, lambda v: True))
    assert [row.id for row in bad_inputs.field_rows() if ".zeta." in row.id] == [
        "diagnostics.zeta.kind", "diagnostics.zeta.range"]
