"""The one rule table of ``kldescent.domains``: every field of each context
has its entry, a name outside its context is rejected, and a value outside
its field's domain is rejected, before any conversion, with one message
naming the field."""

import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest

import bad_inputs
import boundary
from kldescent import catalog, domains, oracles
from kldescent import trace as trace_module
from kldescent.descent import DescentConfig
from kldescent.diagnostics import build_report, derive_audit_inputs
from kldescent.domains import RULES, check, shown
from kldescent.errors import InvalidInputError
from kldescent.npg import NpgConfig, npg_solve
from kldescent.oracles import CompositeProblem, make_power4_1d, zero_oracle
from kldescent.pgenls import PgenlsConfig
from kldescent.trace import CSV_COLUMNS, Trace

# 10**400 as an error message shows it: its first 20 characters and its length
HUGE_SHOWN = "10000000000000000000... (401 characters)"
# a one-row trace at window 1, and one whose window m leaves its default
# kbar = m + 2 past int64
ONE_ROW, DEFAULT_KBAR_PAST_INT64 = (
    Trace(algorithm="npg_major", X=np.zeros((1, 1)), columns=dict.fromkeys(CSV_COLUMNS, [0]),
          config={"m": m, "a": 1.0}) for m in (1, 2**63 - 2))


def test_the_shared_solver_fields_are_declared_once_in_rule_order():
    shared = [f.name for f in fields(DescentConfig)]
    assert shared == list(domains._SOLVER)
    for config in (NpgConfig, PgenlsConfig):
        assert [f.name for f in fields(config)][:len(shared)] == shared


@pytest.mark.parametrize("a, checked", [
    (0.1, ["m", "delta", "alpha", "beta_max", "c", "a"]),
    (None, ["m", "gamma_min", "delta", "alpha", "beta_max", "c"]),
], ids=["with-a", "without-a"])
def test_a_trace_checks_exactly_the_snapshot_fields(monkeypatch, a, checked):
    # every field of a solver config, with c, a and a stray audit field added
    config = {**asdict(PgenlsConfig()), "c": 1.0, "a": a, "tau": 0.5}
    seen = []

    def spy(context, *prefix, **values):
        seen.append((context, list(values)))
        return check(context, *prefix, **values)

    monkeypatch.setattr(trace_module, "check", spy)
    Trace(algorithm="pgenls", config=config)
    assert seen == [("audit", checked)]
    assert {*checked, "a"} - {"gamma_min"} == set(RULES["snapshot"])


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


BLOCKS = bad_inputs.blocks()
# each library call that checks the fields of a block: its id, the block and
# the call of one field's value; the audit's fields of a trace's snapshot are
# checked as the trace is made, the others by build_report
API_CALLERS = [
    ("NpgConfig", "npg_major", lambda name, v: NpgConfig(**{name: v})),
    ("PgenlsConfig", "pgenls", lambda name, v: PgenlsConfig(**{name: v})),
    *((f"make_problem-{problem}", f"params-{problem}",
       lambda name, v, problem=problem: catalog.make_problem(problem, {name: v}))
      for problem in catalog._REGISTRY),
    ("audit", "audit", lambda name, v: Trace(algorithm="npg_major", config={name: v})
     if name in RULES["snapshot"] else build_report(ONE_ROW, **{name: v})),
    *((fn.__name__, "oracle", lambda name, v, fn=fn: fn(**{name: v}))
      for fn in (oracles.l1_oracle, oracles.l0_oracle, oracles.l2_norm_oracle)),
]


@pytest.mark.parametrize("call, name, value, message", [
    pytest.param(call, name, value, message, id=case_id)
    for caller, block, call in API_CALLERS
    for case_id, name, _, _, value, message in bad_inputs.field_cases(caller, BLOCKS[block])])
def test_each_bad_value_of_a_field_is_rejected_by_name(call, name, value, message):
    with pytest.raises(InvalidInputError) as exc:
        call(name, value)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: NpgConfig(tol_step=0.0), "tol_step must be positive, got 0.0"),
    (lambda: NpgConfig(max_inner=2**63), f"max_inner must fit in int64, got {2**63}"),
    (lambda: NpgConfig(delta=2.0, max_outer=0), "max_outer must be a positive integer, got 0"),
    (lambda: NpgConfig(gamma_min=0.0), "gamma bounds must satisfy 0 < gamma_min <= gamma_max, "
                                       "got [0.0, 10000000000.0]"),
    (lambda: PgenlsConfig(nu=0.5), "nu must lie strictly in (0, 1/rho) = (0, 0.5), got 0.5"),
    (lambda: NpgConfig(gamma_min=5e-324), "decrease constant a must be positive, got 0.0 "
                                          "from alpha=1.0, delta=0.5, gamma_min=5e-324, c=1.0"),
    (lambda: derive_audit_inputs(Trace(algorithm="pgenls", config={"m": 10**30, "a": 1.0,
                                                                   "delta": 1.0})),
     f"m must fit in int64, got {10**30}"),
    (lambda: catalog.make_problem("lasso", {"seed": 0, "rows": 10**30}),
     f"params.rows must fit in int64, got {10**30}"),
    (lambda: catalog.make_problem("lasso", {"seed": 0, "rows": 2**40, "cols": 2**40}),
     "params.rows * params.cols must be at most 1152921504606846975 entries, "
     "got 1099511627776 * 1099511627776"),
    (lambda: oracles.l1_oracle(-1.0), "lam must be positive, got -1.0"),
    (lambda: build_report(DEFAULT_KBAR_PAST_INT64),
     "the default m + 2 for kbar must fit in int64, got 9223372036854775808"),
], ids=["tol_step-zero", "max_inner-2**63", "shared-field-checked-first", "gamma_min-zero",
        "nu-past-1/rho", "decrease-constant-underflows", "audit-m-beyond-int64",
        "params-rows-beyond-int64", "params-rows-times-cols", "oracle-lam-negative",
        "audit-default-kbar-past-int64"])
def test_a_value_outside_its_domain_is_rejected_by_name(build, message):
    # the rules on two fields and on sizes, the order of the fields, and bad
    # values that the generated cases above do not draw
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


def test_in_domain_values_end_only_as_the_rules_allow(tmp_path):
    # four values of each field through each command, drawn from those that
    # domains.check accepts: no traceback, one stderr line at most, no
    # warning but delta = 0's, and exit 1, 2 or 3 only for a rule on two
    # fields or a size, or a reason that tools/boundary.py lists
    counts, unexplained = boundary.judge(boundary.sample(4, seed=0), tmp_path)
    assert unexplained == [] and counts[0] > 0
