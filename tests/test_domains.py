"""The one rule table of ``kldescent.domains``: every field of each context
has its entry, a name outside its context is rejected, and a value outside
its field's domain is rejected, before any conversion, with one message
naming the field."""

import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from kldescent import catalog, oracles
from kldescent.diagnostics import build_report, derive_audit_inputs
from kldescent.domains import RULES, check, shown
from kldescent.errors import InvalidInputError
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import CompositeProblem, make_power4_1d, zero_oracle
from kldescent.pgenls import PgenlsConfig
from kldescent.trace import CSV_COLUMNS, Trace

# 10**400 as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"
# a one-row trace whose window m leaves its default kbar = m + 2 past int64
DEFAULT_KBAR_PAST_INT64 = Trace(algorithm="npg_major", X=np.zeros((1, 1)),
                                columns=dict.fromkeys(CSV_COLUMNS, [0]),
                                config={"m": 2**63 - 2, "a": 1.0})


def test_every_field_of_every_context_has_one_rule():
    assert set(RULES["npg_major"]) == {f.name for f in fields(NpgConfig)}
    assert set(RULES["pgenls"]) == {f.name for f in fields(PgenlsConfig)}
    # the constants an audit resolves, the gamma_min it derives a from, and
    # the keywords of build_report
    snapshot = {"m": 1, "alpha": 1.0, "delta": 0.5, "gamma_min": 1.0, "c": 1.0}
    resolved = derive_audit_inputs(Trace(algorithm="npg_major", config=snapshot))
    keywords = set(inspect.signature(build_report).parameters) - {"trace", "problem"}
    assert set(RULES["audit"]) == set(resolved) | {"gamma_min"} | keywords
    # one table lists every problem, and only the ridged quad-l1 takes mu
    accepted = {pid: names for pid, (_, _, names) in catalog._REGISTRY.items()}
    assert set(RULES["params"]) == set().union(*accepted.values())
    assert [pid for pid, names in accepted.items() if "mu" in names] == ["quad-l1"]
    assert set(RULES["pgnls"]) == set(RULES["pgenls"])
    assert set(RULES["diagnostics"]) == keywords - {"lipschitz"}
    weighted = (oracles.l1_oracle, oracles.l0_oracle, oracles.l2_norm_oracle,
                oracles.power_iteration_sq_norm)
    weights = {name for fn in weighted for name in inspect.signature(fn).parameters}
    assert set(RULES["oracle"]) == weights - {"A"}


@pytest.mark.parametrize("context", sorted(RULES))
def test_a_name_outside_its_context_is_rejected(context):
    with pytest.raises(InvalidInputError) as exc:
        check(context, "prefix.", bogus=1.0, zzz=2, prefix=3, context=4)
    assert str(exc.value) == f"unknown {context} field(s): bogus, context, prefix, zzz"


@pytest.mark.parametrize("build, message", [
    (lambda: NpgConfig(c=math.inf), "c must be finite, got inf"),
    (lambda: NpgConfig(rho=math.inf), "rho must be finite, got inf"),
    (lambda: NpgConfig(gamma_min=math.inf, gamma_max=math.inf),
     "gamma_min must be finite, got inf"),
    (lambda: NpgConfig(gamma_max=math.inf), "gamma_max must be finite, got inf"),
    (lambda: NpgConfig(tol_step=math.inf), "tol_step must be finite, got inf"),
    (lambda: NpgConfig(tol_step=0.0), "tol_step must be positive, got 0.0"),
    (lambda: NpgConfig(m=10**400), "m must fit in int64, got " + HUGE_SHOWN),
    (lambda: NpgConfig(max_inner=2**63), f"max_inner must fit in int64, got {2**63}"),
    (lambda: NpgConfig(max_outer=0), "max_outer must be a positive integer, got 0"),
    (lambda: NpgConfig(gamma_min=0.0), "gamma bounds must satisfy 0 < gamma_min <= gamma_max, "
                                       "got [0.0, 10000000000.0]"),
    (lambda: PgenlsConfig(delta=math.inf), "delta must be finite, got inf"),
    (lambda: PgenlsConfig(tol_resid=math.inf), "tol_resid must be finite, got inf"),
    (lambda: PgenlsConfig(max_outer=10**400),
     "max_outer must fit in int64, got " + HUGE_SHOWN),
    (lambda: PgenlsConfig(gamma_init_rule=5), "gamma_init_rule must be a string, got 5"),
    (lambda: PgenlsConfig(beta_init_rule="y"),
     "beta_init_rule must be 'constant' or 'nesterov', got 'y'"),
    (lambda: PgenlsConfig(nu=0.5), "nu must lie strictly in (0, 1/rho) = (0, 0.5), got 0.5"),
    (lambda: derive_audit_inputs(Trace(algorithm="pgenls", config={"m": 10**30, "a": 1.0,
                                                                   "delta": 1.0})),
     f"m must fit in int64, got {10**30}"),
    (lambda: derive_audit_inputs(Trace(algorithm="pgenls", config={"m": 1, "alpha": 0.5,
                                                                   "delta": math.inf,
                                                                   "gamma_min": 1.0})),
     "delta must be finite, got inf"),
    (lambda: catalog.make_problem("lasso", {"seed": 0, "rows": 10**30}),
     f"params.rows must fit in int64, got {10**30}"),
    (lambda: catalog.make_problem("lasso", {"seed": -1}),
     "params.seed must be a nonnegative integer, got -1"),
    (lambda: catalog.make_problem("lasso", {"seed": 0, "rows": 2**40, "cols": 2**40}),
     "params.rows * params.cols must be at most 1152921504606846975 entries, "
     "got 1099511627776 * 1099511627776"),
    (lambda: oracles.l1_oracle(-1.0), "lam must be positive, got -1.0"),
    (lambda: oracles.l2_norm_oracle(True), "lam must be a real number, got True"),
    (lambda: build_report(DEFAULT_KBAR_PAST_INT64),
     "the default m + 2 for kbar must fit in int64, got 9223372036854775808"),
], ids=["c-inf", "rho-inf", "gamma-bounds-inf", "gamma_max-inf", "tol_step-inf",
        "tol_step-zero", "m-beyond-int64", "max_inner-2**63", "max_outer-zero",
        "gamma_min-zero", "pgenls-delta-inf", "pgenls-tol_resid-inf",
        "pgenls-max_outer-beyond-int64", "gamma_init_rule-int", "beta_init_rule-bogus",
        "nu-past-1/rho", "audit-m-beyond-int64", "audit-delta-inf", "params-rows-beyond-int64",
        "params-seed-negative", "params-rows-times-cols", "oracle-lam-negative",
        "oracle-lam-bool", "audit-default-kbar-past-int64"])
def test_a_value_outside_its_domain_is_rejected_by_name(build, message):
    with pytest.raises(InvalidInputError) as exc:
        build()
    assert str(exc.value) == message


def test_numpy_integers_are_integers_for_a_solver_config():
    problem = CompositeProblem(f=make_power4_1d(), g=zero_oracle(), h=None, dimension=1)
    cfg = NpgConfig(m=np.int64(2), max_outer=np.int64(4), max_inner=np.int32(60))
    trace = npg_solve(problem, np.array([1.0]), cfg)
    assert len(trace) == 5


def test_a_long_value_is_shortened_in_messages():
    assert shown(10**30) == repr(10**30)  # 31 characters: shown whole
    assert shown(10**400) == HUGE_SHOWN
    assert shown("1" + "0" * 4300) == "'1000000000000000000... (4303 characters)"
