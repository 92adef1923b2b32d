"""Command-line harness: exit codes, artifacts, sweep aggregation, verify."""

import json
import math
import shutil

import numpy as np
import pytest

from kldescent import catalog
from kldescent.catalog import make_problem, problem_ids
from kldescent.cli import main
from kldescent.errors import InvalidInputError
from kldescent.trace import CSV_COLUMNS
from kldescent.cli import _apply_sweep_value, _parse_sweep_values, diag_overrides, load_config

# 10**400 as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"


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
    argv = _run(tmp_path, problem=problem, params={"seed": seed}, algorithm=algorithm,
                solver={"m": m})
    assert main(argv) == 0, capsys.readouterr().err
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


def test_only_build_report_defaults_tau(dc_run, capsys):
    # the config and verify pass only what they are given
    assert diag_overrides({"diagnostics": {}}) == {}
    assert diag_overrides({"diagnostics": {"kbar": 9, "tau": 0.25}}) == {"kbar": 9, "tau": 0.25}
    out, full = dc_run
    reports = []
    for flags in ([], ["--tau", "0.5"]):
        assert main(["verify", str(out / "trace.csv"), *full, *flags]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and json.loads(reports[0])["h4.tau"] == 0.5


def test_exit_1_bad_tau(tmp_path, capsys):
    path, _ = write_config(tmp_path, diagnostics={"tau": 1.5})
    assert main(["run", str(path)]) == 1
    assert "diagnostics.tau" in capsys.readouterr().err


@pytest.mark.parametrize("name, rule", [
    ("tau", "must be a real number"), ("mu", "must be a real number"),
    ("kbar", "must be an integer"),
], ids=["tau", "mu", "kbar"])
def test_exit_1_boolean_diagnostics(tmp_path, capsys, name, rule):
    path, _ = write_config(tmp_path, diagnostics={name: True})
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"kldescent: error: diagnostics.{name} {rule}, got True\n"
    assert not (tmp_path / "out").exists()


def test_exit_1_fractional_max_outer(tmp_path, capsys):
    path, _ = write_config(tmp_path, solver={"max_outer": 2.5})
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == \
        "kldescent: error: max_outer must be an integer, got 2.5\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("problem, params, message", [
    ("lasso", {"seed": 0, "rows": "abc"}, "params.rows must be an integer, got 'abc'"),
    ("lasso", {"seed": 0, "rows": 2.5}, "params.rows must be an integer, got 2.5"),
    ("lasso", {"seed": 1.5}, "params.seed must be an integer, got 1.5"),
    ("lasso", {"seed": True}, "params.seed must be an integer, got True"),
    ("lasso", {"seed": 0, "lam": "x"}, "params.lam must be a real number, got 'x'"),
    ("power4-1d", {"x0": "2"}, "params.x0 must be a real number, got '2'"),
    ("lasso", {"A_csv": [1], "b_csv": "b.csv"}, "params.A_csv must be a string, got [1]"),
    ("lasso", {"A_csv": 5, "b_csv": "b.csv"}, "params.A_csv must be a string, got 5"),
    ("lasso", {"seed": 0, "lamda": 5.0}, "unknown params field(s) for lasso: lamda"),
], ids=["rows-str", "rows-float", "seed-float", "seed-bool", "lam-str", "x0-str",
        "A_csv-list", "A_csv-int", "unknown"])
def test_exit_1_bad_problem_params(tmp_path, capsys, problem, params, message):
    path, _ = write_config(tmp_path, problem=problem, params=params)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"kldescent: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_exit_1_kbar_not_above_m_before_the_solve(tmp_path, capsys):
    path, _ = write_config(tmp_path, diagnostics={"kbar": 2})
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == ("kldescent: error: diagnostics.kbar must be "
                                       "an integer greater than m=5, got 2\n")
    assert not (tmp_path / "out").exists()


def test_exit_1_algorithm_problem_mismatch(tmp_path, capsys):
    path, _ = write_config(tmp_path, problem="l1-l2-dc", params={"seed": 0})
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "npg_major" in err and "concave" in err


def test_exit_1_unknown_fields(tmp_path, capsys):
    path, _ = write_config(tmp_path, solver={"momentum": 0.9})
    assert main(["run", str(path)]) == 1
    assert "momentum" in capsys.readouterr().err

    path2 = tmp_path / "bad_top.json"
    path2.write_text(json.dumps({"problem": "lasso", "algorithm": "pgenls",
                                 "extra": 1}))
    assert main(["run", str(path2)]) == 1
    assert "extra" in capsys.readouterr().err


def test_exit_1_bad_json_and_missing_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "absent.json")]) == 1


def test_exit_1_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sweep", "x.json"]) == 1  # missing --param/--values


def test_exit_2_backtracking_exhaustion(tmp_path, capsys):
    path, _ = write_config(
        tmp_path, problem="quad-l1", params={"seed": 0},
        algorithm="npg_major",
        solver={"max_inner": 1, "gamma_min": 0.01, "gamma_max": 0.01,
                "gamma_init_rule": "constant"})
    assert main(["run", str(path)]) == 2
    assert "solver failure" in capsys.readouterr().err


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

    for delta in (0.5, "abc"):
        path2, _ = write_config(tmp_path, name="bad.json", algorithm="pgnls",
                                solver={"delta": delta})
        assert main(["run", str(path2)]) == 1


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
    assert main(_sweep(tmp_path, "params.seed", "1,1.0,1,0")) == 1
    assert not (tmp_path / "sweep").exists()


def test_sweep_value_validation(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["sweep", str(path), "--param", "delta",
                 "--values", "a,b"]) == 1
    assert main(["sweep", str(path), "--param", "delta",
                 "--values", "0.1,,0.2"]) == 1
    assert main(["sweep", str(path), "--param", "bogus.block.x",
                 "--values", "1"]) == 1
    assert main(["sweep", str(path), "--param", "delta",
                 "--values", "true"]) == 1


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


def test_verify_malformed_trace(tmp_path, capsys):
    out, args = run_and_verify_args(tmp_path)
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().splitlines()
    lines[4] = lines[4] + ",extra"
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(args) == 1
    assert "line 5" in capsys.readouterr().err


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


# a DC trace whose two tiny steps square to 0: the merit rise between them
# makes b_bar, and so the fitted mu, inf
UNDERFLOW_TRACE = """k,F,merit,gamma,beta,j_inner,ell,step_norm,residual
0,1.0,1.0,nan,nan,-1,0,0.0,nan
1,0.5,0.5,1.0,nan,0,0,1e-170,0.0
2,0.6,0.6,1.0,nan,0,0,1e-170,0.0
3,0.1,0.1,1.0,nan,0,2,1.0,0.0
"""


def test_verify_of_a_step_whose_square_underflows(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(UNDERFLOW_TRACE)
    assert main(["verify", str(path), "--algorithm", "npg_major", "--m", "2", "--a", "0.1",
                 "--alpha", "1", "--delta", "0.5", "--c", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["constants.b_bar"] is None and report["h4.mu"] is None
    assert report["h4.pass"] is None and report["prop_bound.pass"] is None


def test_a_decrease_constant_that_underflows_fails_the_report_after_the_trace(tmp_path, capsys):
    path, _ = write_config(tmp_path, problem="power4-1d", params={}, algorithm="npg_major",
                           solver={"m": 2, "gamma_min": 5e-324, "max_outer": 5})
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "kldescent: error: a must be positive, got 0.0\n"
    assert (tmp_path / "out" / "trace.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


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
def dc_run(tmp_path_factory):
    """A lasso ``npg_major`` run at seed 0 and ``m = 5`` (dimension 100, so its
    iterates are in ``trace.bin``) and the complete ``verify`` flags of it."""
    tmp = tmp_path_factory.mktemp("dc_run")
    path, _ = write_config(tmp, params={"seed": 0}, algorithm="npg_major", solver={"m": 5})
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp / "out" / "report.json").read_text())
    return tmp / "out", ["--algorithm", "npg_major", "--m", "5",
                         "--a", repr(report["constants.a"]), "--alpha", "1.0",
                         "--delta", "0.5", "--c", "1.0", "--lf", repr(report["constants.l_f"])]


def _run(tmp, **overrides):
    return ["run", str(write_config(tmp, **overrides)[0])]


def _sweep(tmp, param, values, **overrides):
    overrides = {"problem": "power4-1d", "params": {}, "solver": {"max_outer": 50},
                 "output_dir": str(tmp / "sweep"), **overrides}
    return ["sweep", str(write_config(tmp, **overrides)[0]), "--param", param,
            "--values", values]


def _verify(tmp, run, *flags, edit=None, sidecar=None):
    """``verify`` with the complete flags and then ``flags``, on a copy of the
    run's trace whose CSV lines went through ``edit`` and whose sidecar path
    through ``sidecar``."""
    out, full = run
    copy = shutil.copytree(out, tmp / "copy")
    if edit:
        lines = edit((copy / "trace.csv").read_text().splitlines())
        (copy / "trace.csv").write_text("".join(line + "\n" for line in lines))
    if sidecar:
        sidecar(copy / "trace.bin")
    return ["verify", str(copy / "trace.csv"), *full, *flags]


def _set_cells(row, **values):
    """An ``edit`` for :func:`_verify` that sets cells of data row ``row``."""
    def edit(lines):
        cells = lines[row + 1].split(",")
        for column, value in values.items():
            cells[CSV_COLUMNS.index(column)] = value
        return lines[:row + 1] + [",".join(cells)] + lines[row + 2:]
    return edit


def _file(path, text="x"):
    path.write_text(text)
    return path


def _directory(path):
    path.mkdir(parents=True)
    return path


# (id, argv builder of tmp_path and dc_run, exit status, text in the error line)
ERROR_PATHS = [
    # run: the config
    ("bad-json", lambda t, r: ["run", str(_file(t / "c.json"))], 1, "invalid JSON"),
    ("missing-config", lambda t, r: ["run", str(t / "absent.json")], 1, "cannot read config"),
    ("unknown-top-field", lambda t, r: _run(t, extra=1), 1, "unknown config field(s): extra"),
    ("unknown-solver-field", lambda t, r: _run(t, solver={"momentum": 0.9}), 1,
     "unknown solver field(s) for pgenls: momentum"),
    ("unknown-diagnostics-field", lambda t, r: _run(t, diagnostics={"foo": 1}), 1,
     "unknown diagnostics field(s): foo"),
    ("diagnostics-unknown-prefix", lambda t, r: _run(t, diagnostics={"prefix": 1}), 1,
     "unknown diagnostics field(s): prefix"),
    ("diagnostics-unknown-context", lambda t, r: _run(t, diagnostics={"context": 1}), 1,
     "unknown diagnostics field(s): context"),
    ("unknown-params-field", lambda t, r: _run(t, params={"seed": 0, "lamda": 5.0}), 1,
     "unknown params field(s) for lasso: lamda"),
    ("params-bool", lambda t, r: _run(t, params={"seed": True}), 1,
     "params.seed must be an integer, got True"),
    ("A_csv-list", lambda t, r: _run(t, params={"A_csv": [1], "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got [1]"),
    ("A_csv-int", lambda t, r: _run(t, params={"A_csv": 5, "b_csv": "b.csv"}), 1,
     "params.A_csv must be a string, got 5"),
    ("params-int-beyond-float",
     lambda t, r: _run(t, problem="power4-1d", params={"x0": 10**400}), 1,
     "params.x0 must be finite, got " + HUGE_SHOWN),
    ("config-int-over-4300-digits",
     lambda t, r: ["run", str(_file(t / "c.json", '{"problem": "power4-1d", "params": '
                                   '{"x0": 1' + "0" * 4300 + '}}'))], 1,
     "c.json: invalid JSON: Exceeds the limit (4300 digits)"),
    ("bad-tau", lambda t, r: _run(t, diagnostics={"tau": 1.5}), 1,
     "diagnostics.tau must lie in (0, 1), got 1.5"),
    ("diagnostics-bool", lambda t, r: _run(t, diagnostics={"mu": True}), 1,
     "diagnostics.mu must be a real number, got True"),
    ("diagnostics-mu-inf", lambda t, r: _run(t, diagnostics={"mu": math.inf}), 1,
     "diagnostics.mu must be finite, got inf"),
    ("diagnostics-int-beyond-float", lambda t, r: _run(t, diagnostics={"mu": 10**400}), 1,
     "diagnostics.mu must be finite, got " + HUGE_SHOWN),
    ("kbar-not-above-m", lambda t, r: _run(t, diagnostics={"kbar": 2}), 1,
     "diagnostics.kbar must be an integer greater than m=5, got 2"),
    ("diagnostics-kbar-beyond-int64", lambda t, r: _run(t, diagnostics={"kbar": 10**30}), 1,
     f"diagnostics.kbar must fit in int64, got {10**30}"),
    ("params-rows-beyond-int64", lambda t, r: _run(t, params={"seed": 0, "rows": 10**30}), 1,
     f"params.rows must fit in int64, got {10**30}"),
    ("params-cols-beyond-int64", lambda t, r: _run(t, params={"seed": 0, "cols": 10**400}), 1,
     "params.cols must fit in int64, got " + HUGE_SHOWN),
    ("params-seed-beyond-int64", lambda t, r: _run(t, params={"seed": 10**400}), 1,
     "params.seed must fit in int64, got " + HUGE_SHOWN),
    ("params-seed-negative", lambda t, r: _run(t, params={"seed": -1}), 1,
     "params.seed must be a nonnegative integer, got -1"),
    ("params-rows-times-cols-too-big",
     lambda t, r: _run(t, params={"seed": 0, "rows": 2**40, "cols": 2**40}), 1,
     "params.rows * params.cols must be at most 1152921504606846975 entries, "
     "got 1099511627776 * 1099511627776"),
    ("quad-l1-rows-times-default-cols-too-big",
     lambda t, r: _run(t, problem="quad-l1", params={"seed": 0, "rows": 2**62}), 1,
     "params.rows * params.cols must be at most 1152921504606846975 entries, "
     "got 4611686018427387904 * 30"),
    ("diagnostics-tau-beyond-float", lambda t, r: _run(t, diagnostics={"tau": 10**400}), 1,
     "diagnostics.tau must be finite, got " + HUGE_SHOWN),
    # run: solver fields past the float or int64 range (JSON's 1e400 is inf)
    ("solver-c-inf", lambda t, r: _run(t, algorithm="npg_major", solver={"c": math.inf}), 1,
     "c must be finite, got inf"),
    ("solver-rho-inf", lambda t, r: _run(t, solver={"rho": math.inf}), 1,
     "rho must be finite, got inf"),
    ("solver-gamma-bounds-inf",
     lambda t, r: _run(t, solver={"gamma_min": math.inf, "gamma_max": math.inf}), 1,
     "gamma_min must be finite, got inf"),
    ("solver-gamma_max-inf", lambda t, r: _run(t, solver={"gamma_max": math.inf}), 1,
     "gamma_max must be finite, got inf"),
    ("solver-delta-inf", lambda t, r: _run(t, solver={"delta": math.inf}), 1,
     "delta must be finite, got inf"),
    ("solver-tol_step-inf", lambda t, r: _run(t, solver={"tol_step": math.inf}), 1,
     "tol_step must be finite, got inf"),
    ("solver-m-beyond-int64", lambda t, r: _run(t, solver={"m": 10**400}), 1,
     "m must fit in int64, got " + HUGE_SHOWN),
    ("solver-max_outer-beyond-int64", lambda t, r: _run(t, solver={"max_outer": 10**400}), 1,
     "max_outer must fit in int64, got " + HUGE_SHOWN),
    ("solver-max_inner-beyond-int64", lambda t, r: _run(t, solver={"max_inner": 10**400}), 1,
     "max_inner must fit in int64, got " + HUGE_SHOWN),
    # run: pgnls holds delta and beta_max at 0
    ("pgnls-delta-nonzero", lambda t, r: _run(t, algorithm="pgnls", solver={"delta": 0.5}), 1,
     "solver.delta must be 0 for algorithm 'pgnls', got 0.5"),
    ("pgnls-delta-string", lambda t, r: _run(t, algorithm="pgnls", solver={"delta": "abc"}), 1,
     "solver.delta must be a real number, got 'abc'"),
    ("pgnls-unknown-solver-field",
     lambda t, r: _run(t, algorithm="pgnls", solver={"momentum": 0.9}), 1,
     "unknown solver field(s) for pgnls: momentum"),
    ("algorithm-problem-mismatch",
     lambda t, r: _run(t, problem="l1-l2-dc", params={"seed": 0}), 1, "concave term"),
    # run: the solve and the outputs
    ("backtracking-exhaustion",
     lambda t, r: _run(t, problem="quad-l1", params={"seed": 0}, algorithm="npg_major",
                       solver={"max_inner": 1, "gamma_min": 0.01, "gamma_max": 0.01,
                               "gamma_init_rule": "constant"}),
     2, "solver failure: "),
    ("run-output-dir-is-a-file",
     lambda t, r: _run(t, output_dir=str(_file(t / "out"))), 1, "cannot write outputs: "),
    ("run-trace-csv-is-a-directory",
     lambda t, r: _run(t, output_dir=str(_directory(t / "out" / "trace.csv").parent)), 1,
     "cannot write outputs: "),
    # usage
    ("usage-no-verb", lambda t, r: [], 1, "required"),
    ("usage-unknown-verb", lambda t, r: ["frobnicate"], 1, "invalid choice"),
    ("usage-sweep-flags", lambda t, r: ["sweep", "x.json"], 1, "required"),
    ("usage-verify-m", lambda t, r: ["verify", "x.csv", "--m", "1.5"], 1, "invalid int value"),
    # sweep
    ("sweep-bad-values", lambda t, r: _sweep(t, "delta", "a,b"), 1, "is not a number"),
    ("sweep-value-over-4300-digits", lambda t, r: _sweep(t, "params.x0", "1" + "0" * 4300), 1,
     "--values entry '1000000000000000000... (4303 characters) is not a number"),
    ("sweep-run-directory-name-too-long",
     lambda t, r: _sweep(t, "params.lam", str(10**300), problem="lasso", params={"seed": 0}),
     1, "run directory name 'params_lam_10000000... (314 characters) is 312 bytes long, "
        "over 255"),
    ("sweep-repeated-value", lambda t, r: _sweep(t, "params.seed", "1,1.0,1,0"), 1,
     "run directory name 'params_seed_1' repeats in --values"),
    ("sweep-values-that-print-alike", lambda t, r: _sweep(t, "delta", "0.1,0.10"), 1,
     "run directory name 'delta_0.1' repeats in --values"),
    ("sweep-param-name-too-long", lambda t, r: _sweep(t, "params." + "x" * 300, "1"), 1,
     "run directory name 'params_xxxxxxxxxxxx... (311 characters) is 309 bytes long, over 255"),
    ("sweep-root-under-a-file",
     lambda t, r: _sweep(t, "m", "1", output_dir=str(_file(t / "root") / "sub")), 1,
     "cannot write outputs: "),
    ("sweep-aggregate-is-a-directory",
     lambda t, r: _sweep(t, "m", "1",
                         output_dir=str(_directory(t / "sweep" / "aggregate.csv").parent)),
     1, "cannot write outputs: "),
    ("sweep-unknown-params-field",
     lambda t, r: _sweep(t, "lamda", "0.1", problem="lasso", params={"seed": 0}), 1,
     "unknown params field(s) for lasso: lamda"),
    ("sweep-diagnostics-unknown-prefix",
     lambda t, r: _sweep(t, "m", "5", diagnostics={"prefix": 1}), 1,
     "unknown diagnostics field(s): prefix"),
    ("sweep-m-past-kbar", lambda t, r: _sweep(t, "m", "5", diagnostics={"kbar": 4}), 1,
     "diagnostics.kbar must be an integer greater than m=5, got 4"),
    # verify: missing flags
    ("verify-no-m-a", lambda t, r: ["verify", str(r[0] / "trace.csv")], 1,
     "audit constants unavailable: give --m and --a"),
    ("verify-no-delta",
     lambda t, r: ["verify", str(r[0] / "trace.csv"), "--algorithm", "pgenls",
                   "--m", "5", "--a", "0.1"], 1,
     "audit constants unavailable: give --delta"),
    # verify: the trace
    ("verify-missing-trace", lambda t, r: ["verify", str(t / "absent.csv"), *r[1]], 1,
     "cannot read"),
    ("verify-empty-file", lambda t, r: _verify(t, r, edit=lambda lines: []), 1,
     "empty trace file (line 1)"),
    ("verify-header-only", lambda t, r: _verify(t, r, edit=lambda lines: lines[:1]), 1,
     "trace.csv: line 2: no rows after the header"),
    ("verify-extra-cell",
     lambda t, r: _verify(t, r, edit=lambda lines: lines[:4] + [lines[4] + ",x"] + lines[5:]),
     1, "line 5: expected"),
    ("verify-unparsable-cell", lambda t, r: _verify(t, r, edit=_set_cells(8, F="abc")), 1,
     "line 10: could not convert"),
    ("verify-nan-step", lambda t, r: _verify(t, r, edit=_set_cells(8, step_norm="nan")), 1,
     "line 10: step_norm is not finite"),
    ("verify-negative-step",
     lambda t, r: _verify(t, r, edit=_set_cells(8, step_norm="-0.5")), 1,
     "line 10: step_norm is negative"),
    ("verify-negative-residual",
     lambda t, r: _verify(t, r, edit=_set_cells(8, residual="-0.5")), 1,
     "line 10: residual is negative"),
    ("verify-impossible-ell", lambda t, r: _verify(t, r, edit=_set_cells(8, ell="99")), 1,
     "line 10: ell 99 outside"),
    ("verify-sidecar-magic",
     lambda t, r: _verify(t, r, sidecar=lambda p: p.write_bytes(b"NOTMAGIC" + p.read_bytes()[8:])),
     1, "not a trace sidecar (bad magic)"),
    ("verify-sidecar-length",
     lambda t, r: _verify(t, r, sidecar=lambda p: p.write_bytes(p.read_bytes()[:-8])), 1,
     "trace.bin: expected"),
    ("verify-sidecar-is-a-directory",
     lambda t, r: _verify(t, r, sidecar=lambda p: (p.unlink(), p.mkdir())), 1,
     "trace.bin: [Errno"),
    # verify: the outputs
    ("verify-report-under-missing-dir",
     lambda t, r: _verify(t, r, "--report", str(t / "missing" / "r.json")), 1,
     "cannot write outputs: "),
    ("verify-report-is-a-directory", lambda t, r: _verify(t, r, "--report", str(t)), 1,
     "cannot write outputs: "),
    # verify: constants that would give a wrong verdict
    ("verify-lf-nan", lambda t, r: _verify(t, r, "--lf", "nan"), 1,
     "lipschitz must be nonnegative, got nan"),
    ("verify-lf-negative", lambda t, r: _verify(t, r, "--lf", "-1"), 1,
     "lipschitz must be nonnegative, got -1.0"),
    ("verify-a-inf", lambda t, r: _verify(t, r, "--a", "inf"), 1, "a must be finite, got inf"),
    ("verify-alpha-nan", lambda t, r: _verify(t, r, "--alpha", "nan"), 1,
     "alpha must lie in [0, 1], got nan"),
    ("verify-delta-negative", lambda t, r: _verify(t, r, "--delta", "-3"), 1,
     "delta must be nonnegative, got -3.0"),
    ("verify-mu-inf", lambda t, r: _verify(t, r, "--mu", "inf"), 1, "mu must be finite, got inf"),
    ("verify-m-beyond-int64", lambda t, r: _verify(t, r, "--m", str(10**30)), 1,
     f"m must fit in int64, got {10**30}"),
    ("verify-m-leaves-no-default-kbar", lambda t, r: _verify(t, r, "--m", str(2**63 - 2)), 1,
     "the default m + 2 for kbar must fit in int64, got 9223372036854775808"),
    ("verify-kbar-not-above-m-one-row",
     lambda t, r: _verify(t, r, "--kbar", "2", edit=lambda lines: lines[:2],
                          sidecar=lambda p: p.unlink()), 1,
     "kbar must be an integer greater than m=5, got 2"),
    # verify: an audit that fails
    ("verify-audit-failure",
     lambda t, r: _verify(t, r, edit=_set_cells(12, F="1000000.0", merit="1000000.0")), 3,
     "audit failure: "),
]


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
    argv = (_run(tmp_path, problem="lasso", params=params) if verb == "run" else
            _sweep(tmp_path, "params.seed", "0", problem="lasso", params=params))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("kldescent: error: out of memory: Unable to allocate 2.00 EiB for an "
                   "array with shape (536870912, 536870912) and data type float64\n")


@pytest.mark.parametrize("build, status, fragment",
                         [pytest.param(*case[1:], id=case[0]) for case in ERROR_PATHS])
def test_error_paths_exit_with_one_line(tmp_path, capsys, dc_run, build, status, fragment):
    argv = build(tmp_path, dc_run)
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("kldescent: error: ") and err.count("\n") == 1, err
    assert err.endswith("\n") and fragment in err, err
