"""Boundary values of every field through the commands that read them.

    PYTHONPATH=src python tools/boundary.py

Each call sets one field of a command's input to one of :data:`VALUES`, the
rest at their defaults: a field of the ``solver``, ``params`` or
``diagnostics`` block of a ``run`` config, the same through ``sweep
--values``, or a flag of ``verify`` after a reference run's complete flags
(``tools/bad_inputs.py``).  Every algorithm runs every problem it takes, the
least-squares ones at 12x20: 13640 calls in about 40 s on a 2-core Xeon.
It prints the count of calls by exit status, then each call whose outcome
:func:`unexplained` does not explain, and exits 1 if there is one.  A change
to ``kldescent/domains.py`` runs it.  :func:`sample` draws a few in-domain
calls of each field, which ``tests/test_domains.py`` runs.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

import bad_inputs
from kldescent import catalog
from kldescent.domains import ALGORITHMS, FIXED, RULES, check
from kldescent.errors import InvalidInputError

VALUES = (0, -0.0, 5e-324, 1e-300, 0.5, 1 - 2**-53, 1, 1 + 2**-52, 2, 3, -1, 1e16, 1e300,
          sys.float_info.max, math.inf, -math.inf, math.nan, 2**63 - 1, 2**63, "x", True, None)
# the least-squares size, and the cap on iterations, of every run but the field's own
SIZE = {"rows": 12, "cols": 20}
MAX_OUTER = 500
DELTA_ZERO = "UserWarning: delta=0 with beta_max>0: the paired-state decrease constant is " \
             "degenerate; audits fall back to the x-block only"


class Case(NamedTuple):
    verb: str       # run, sweep or verify
    source: str     # run and sweep: problem/algorithm; verify: the reference run
    block: str      # solver, params, diagnostics or flag
    name: str
    value: object
    in_domain: bool  # domains.check accepts the value for its field


def _accepts(context: str, name: str, value) -> bool:
    try:
        check(context, **{name: value})
    except InvalidInputError:
        return False
    return True


def cases() -> list:
    """Every call, in a fixed order."""
    found = []
    for problem, (_, _, accepted) in catalog._REGISTRY.items():
        algorithms = ("npg_major",) if problem == "l1-l2-dc" else ALGORITHMS
        for algorithm in algorithms:
            blocks = (("solver", algorithm, RULES[algorithm]), ("params", "params", accepted),
                      ("diagnostics", "diagnostics", RULES["diagnostics"]))
            for block, context, names in blocks:
                for name in names:
                    for value in VALUES:
                        inside = _accepts(context, name, value)
                        found += [Case("run", f"{problem}/{algorithm}", block, name, value, inside),
                                  Case("sweep", f"{problem}/{algorithm}", block, name, value,
                                       inside and not isinstance(value, str))]  # numbers only
    for source in bad_inputs.REFERENCES:
        algorithm = bad_inputs.REFERENCES[source]["algorithm"]
        for name in bad_inputs.AUDITED:
            context = algorithm if name in FIXED.get(algorithm, {}) else "audit"
            found += [Case("verify", source, "flag", name, value, _accepts(context, name, value))
                      for value in VALUES]
    return found


def _config(case: Case) -> dict:
    problem, algorithm = case.source.split("/")
    config = {"problem": problem, "algorithm": algorithm, "solver": {"max_outer": MAX_OUTER},
              "params": {"seed": 0, **(SIZE if problem != "power4-1d" else {})}}
    if case.verb == "run":
        config.setdefault(case.block, {})[case.name] = case.value
    return config


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def call(case: Case):
    """The call of ``case``, as a ``tools/bad_inputs.py`` row makes it."""
    if case.verb == "run":
        return bad_inputs.argv("run", "{here}/c.json", files={"c.json": json.dumps(_config(case))})
    if case.verb == "sweep":
        return bad_inputs.argv("sweep", "{here}/c.json", "--param", f"{case.block}.{case.name}",
                               f"--values={json.dumps(case.value)}",
                               files={"c.json": json.dumps(_config(case))})
    return bad_inputs.verify(case.source, bad_inputs.flag(case.name), _text(case.value))


# the rules on two fields (and sizes) that an in-domain value can break, each
# with the fields it is on; its message names them
PAIR_RULES = {
    "gamma bounds must satisfy 0 < gamma_min <= gamma_max": {"gamma_min", "gamma_max"},
    "nu must lie strictly in (0, 1/rho)": {"nu", "rho"},
    "kbar must be an integer greater than m=": {"kbar", "m"},
    "the default m + 2 for kbar must fit in int64": {"m"},
    "params.rows * params.cols must be at most": {"rows", "cols"},
    "(params.rows + params.cols) * params.cols must be at most": {"rows", "cols"},
    "A_csv and b_csv must be given together": {"A_csv", "b_csv"},
    "decrease constant a must be positive": {"alpha", "delta", "gamma_min", "c"},
}
# the gates that read each flag of verify, which fail when the trace does not
# bear out the value given
CLAIMS = {"m": {"ell"}, "a": {"h1"}, "alpha": {"acceptance"}, "delta": {"acceptance", "h3"},
          "c": {"acceptance"}, "lipschitz": {"bbar_cap", "h3"}}


def _known_failure(case: Case, status: int, message: str) -> bool:
    """Whether exit ``status`` 2 or 3 of an in-domain ``case`` is one the
    program gives for a reason it should, each listed here: backtracking
    that gives out at an extreme value, and an audit that fails on a
    constant the trace does not bear out or on ``h3`` at the rounding floor."""
    value, problem = case.value, case.source.split("/")[0]
    if status == 2:  # backtracking gives out at an extreme value
        return message.startswith("solver failure: no acceptable step") and (
            case.name == "rho" and value == 1 + 2**-52 or case.name == "max_inner" and value <= 3
            or problem == "power4-1d" and case.name == "x0" and value >= 1e16
            or case.name == "delta" and value >= 1e300
            or problem == "quad-l1" and case.name == "mu" and case.block == "params"
            and value >= 1e300)
    failed = set(message.removeprefix("audit failure: ").split(" (see ")[0].split(", "))
    if case.name == "mu" and case.block != "params":  # a given mu below what the trace needs
        return failed <= {"h4", "prop_bound"}
    if case.block == "flag":  # a constant the run's trace does not bear out
        return failed <= CLAIMS.get(case.name, set())
    # item 24: h3 at the rounding floor, of a run to a tolerance of 1e-300 or less
    return case.name in ("tol_step", "tol_resid") and value <= 1e-300 and failed == {"h3"}


def unexplained(case: Case, result: bad_inputs.Outcome) -> Optional[str]:
    """Why ``result`` is not what ``case`` should end in, or ``None``."""
    status, err, caught = result.status, result.stderr, result.warnings
    if status not in (0, 1, 2, 3):
        return f"escaped: {status}"
    if err.count("\n") > 1 or err and not err.startswith("kldescent: error: "):
        return f"stderr: {err!r}"
    if any(w != DELTA_ZERO for w in caught):
        return f"warnings: {caught}"
    message = err.removeprefix("kldescent: error: ").rstrip("\n")
    if status == 1 and not case.in_domain:  # the message names the field, or its flag
        named = message.startswith((f"{case.name} ", f"solver.{case.name} ",
                                    f"{case.block}.{case.name} ",
                                    f"argument {bad_inputs.flag(case.name)}: ")) \
            or case.verb == "sweep" and message.startswith("--values entry")
        return None if named else f"unnamed: {message}"
    if status == 1:
        rule = next((rule for rule in PAIR_RULES if rule in message), None)
        return None if rule and case.name in PAIR_RULES[rule] else f"in domain: {message}"
    if status == 0:
        return None if case.in_domain else "accepted out of domain"
    return None if case.in_domain and _known_failure(case, status, message) \
        else f"exit {status}: {message}"


def sample(per_field: int, seed: int) -> list:
    """``per_field`` in-domain cases of each field through each command,
    each of another of its in-domain values (all, if fewer), its source
    drawn too, with ``seed``."""
    groups = defaultdict(lambda: defaultdict(list))
    for case in cases():
        if case.in_domain:
            groups[case.verb, case.block, case.name][repr(case.value)].append(case)
    rng = random.Random(seed)
    return [rng.choice(by_value[value]) for by_value in groups.values()
            for value in rng.sample(list(by_value), min(per_field, len(by_value)))]


def judge(selected: list, root: Path) -> tuple[Counter, list]:
    """Make each call of ``selected`` under ``root``: the count by exit
    status, and each unexplained case with why."""
    references = bad_inputs.reference_runs(root / "references")
    counts, bad = Counter(), []
    for i, case in enumerate(selected):
        result = bad_inputs.invoke(call(case), root / str(i), references)
        counts[result.status if isinstance(result.status, int) else "escaped"] += 1
        why = unexplained(case, result)
        if why:
            bad.append((case, why))
    return counts, bad


def _main() -> int:
    selected = cases()
    with tempfile.TemporaryDirectory(prefix="kldescent-boundary-") as root:
        counts, bad = judge(selected, Path(root))
    print(f"{len(selected)} calls; by exit status: "
          + ", ".join(f"{status}: {n}" for status, n in sorted(counts.items(), key=str)))
    for case, why in bad:
        print(f"unexplained: {case}: {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
