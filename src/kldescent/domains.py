"""The fields of every input block and the domain of each number in them,
each stated once, and the functions that check names and values against them.

:data:`RULES` maps each field of each context to one :class:`Domain`, so its
keys are the context's fields: ``config`` (an experiment config's top level),
``npg_major``, ``pgenls`` and ``pgnls`` (the solver configs; ``pgnls`` holds
``delta`` and ``beta_max`` at 0), ``audit`` (the constants of a
:class:`~kldescent.trace.Trace`'s config snapshot,
:func:`~kldescent.diagnostics.build_report`, its checks and
:class:`~kldescent.memory.MemoryWindow`), ``diagnostics`` (those a config
sets), ``oracle`` (the weight ``lam`` of the oracle builders) and ``params``
(the catalog's problem parameters).  Rules on two fields follow the table in
:func:`check`.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import InvalidInputError

__all__ = ["Domain", "ALGORITHMS", "RULES", "check", "check_known", "shown"]


class Domain(NamedTuple):
    kind: type                            # numbers.Integral, numbers.Real, str or dict
    test: Optional[Callable] = None       # None: every value of the kind
    rule: str = ""                        # what a value failing ``test`` breaks


_NOUNS = {numbers.Integral: "an integer", numbers.Real: "a real number", str: "a string"}

REAL = Domain(numbers.Real)
POSITIVE = Domain(numbers.Real, lambda v: v > 0.0, "must be positive")
NONNEGATIVE = Domain(numbers.Real, lambda v: v >= 0.0, "must be nonnegative")
ABOVE_ONE = Domain(numbers.Real, lambda v: v > 1.0, "must exceed 1")
OPEN_UNIT = Domain(numbers.Real, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
CLOSED_UNIT = Domain(numbers.Real, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
COUNT = Domain(numbers.Integral, lambda v: v >= 0, "must be a nonnegative integer")
POSITIVE_COUNT = Domain(numbers.Integral, lambda v: v >= 1, "must be a positive integer")
STRING = Domain(str)
OBJECT = Domain(dict)


def _choice(*options: str) -> Domain:
    return Domain(str, lambda v: v in options, "must be " + " or ".join(map(repr, options)))


# the fields both solver configs have; gamma_min's positivity is a pair rule
_SOLVER = {"m": COUNT, "gamma_min": REAL, "gamma_max": REAL, "rho": ABOVE_ONE,
           "max_outer": POSITIVE_COUNT, "max_inner": POSITIVE_COUNT,
           "tol_step": POSITIVE, "tol_resid": POSITIVE,
           "gamma_init_rule": _choice("constant", "spectral")}
_NPG = {**_SOLVER, "delta": OPEN_UNIT, "alpha": CLOSED_UNIT, "c": POSITIVE}
_PGENLS = {**_SOLVER, "delta": NONNEGATIVE, "alpha": OPEN_UNIT, "beta_max": CLOSED_UNIT,
           "nu": REAL, "beta_init_rule": _choice("constant", "nesterov")}
# plain nonmonotone proximal gradient: no proximity term, no extrapolation
_ZERO = Domain(numbers.Real, lambda v: v == 0.0, "must be 0 for algorithm 'pgnls'")
# one audit covers both solvers: alpha as npg_major takes it, which holds
# pgenls's, and delta as pgenls takes it, which holds npg_major's
_AUDIT = {"m": _SOLVER["m"], "a": POSITIVE, "alpha": _NPG["alpha"],
          "delta": _PGENLS["delta"], "c": _NPG["c"], "gamma_min": POSITIVE,
          "beta_max": _PGENLS["beta_max"], "tau": OPEN_UNIT, "mu": NONNEGATIVE,
          "kbar": POSITIVE_COUNT, "lipschitz": NONNEGATIVE}

ALGORITHMS = ("npg_major", "pgenls", "pgnls")

RULES = {
    "config": {"problem": STRING, "params": OBJECT, "algorithm": _choice(*ALGORITHMS),
               "solver": OBJECT, "diagnostics": OBJECT, "output_dir": STRING},
    "npg_major": _NPG,
    "pgenls": _PGENLS,
    "pgnls": {**_PGENLS, "delta": _ZERO, "beta_max": _ZERO},
    "audit": _AUDIT,
    "diagnostics": {name: _AUDIT[name] for name in ("tau", "mu", "kbar")},
    "oracle": {"lam": POSITIVE},
    "params": {"seed": COUNT, "rows": POSITIVE_COUNT, "cols": POSITIVE_COUNT,
               "lam": POSITIVE, "lam_factor": POSITIVE, "A_csv": STRING, "b_csv": STRING,
               "x0": REAL, "mu": POSITIVE},
}

# the most float64 entries numpy holds in one array, whose bytes must fit in intp
_MAX_ENTRIES = (2**63 - 1) // 8


def shown(value) -> str:
    """``repr(value)``, or, past 40 characters (``10**30`` has 31), its first
    20 and its length, so a message never echoes a 4301-digit number whole."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def check_known(names: Iterable[str], known: Iterable[str], what: str) -> None:
    """Reject the ``names`` not in ``known``, sorted, in one message after
    ``what``, as in ``unknown diagnostics field(s): foo``."""
    unknown = sorted(set(names).difference(known))
    if unknown:
        raise InvalidInputError(f"{what}: {', '.join(unknown)}")


def check(context: str, prefix: str = "", /, **values) -> dict:
    """Check each value against its field's domain in ``RULES[context]``, in
    order, then the rules on two fields among them, and return the values as
    the machine numbers they are used as: an integer as an ``int``, a real
    number as a ``float``.  ``prefix`` leads each field's name in the message;
    a name that is not a field of the context is rejected first.

    A value must be of its domain's kind (booleans are not numbers here) and
    convert to its machine number, an int64 or a float, so no later
    conversion to a C integer, a numpy size or a float can raise.  Then it
    must pass its domain's test, and a real number must be finite.  A long
    value is shortened in the message (:func:`shown`).
    """
    rules = RULES[context]
    if not values.keys() <= rules.keys():  # the common case pays for no message
        check_known(values, rules, f"unknown {context} field(s)")
    converted = {}
    for name, value in values.items():
        kind, test, rule = rules[name]
        label = prefix + name
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidInputError(f"{label} must be {_NOUNS[kind]}, got {shown(value)}")
        if kind is numbers.Integral and not -2**63 <= value < 2**63:
            raise InvalidInputError(f"{label} must fit in int64, got {shown(value)}")
        finite = True
        if kind is numbers.Real:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                raise InvalidInputError(f"{label} must be finite, got {shown(value)}") from None
        if test is not None and not test(value):
            raise InvalidInputError(f"{label} {rule}, got {shown(value)}")
        if not finite:
            raise InvalidInputError(f"{label} must be finite, got {shown(value)}")
        converted[name] = (int(value) if kind is numbers.Integral
                           else float(value) if kind is numbers.Real else value)
    v = values
    if "gamma_min" in v and "gamma_max" in v and not 0.0 < v["gamma_min"] <= v["gamma_max"]:
        raise InvalidInputError(f"gamma bounds must satisfy 0 < gamma_min <= gamma_max, "
                                f"got [{v['gamma_min']!r}, {v['gamma_max']!r}]")
    if "nu" in v and "rho" in v and not 0.0 < v["nu"] < 1.0 / v["rho"]:
        raise InvalidInputError(f"nu must lie strictly in (0, 1/rho) = "
                                f"(0, {1.0 / v['rho']!r}), got {v['nu']!r}")
    if "m" in v and "kbar" in v and not v["kbar"] > v["m"]:
        raise InvalidInputError(
            f"{prefix}kbar must be an integer greater than m={v['m']}, got {v['kbar']!r}")
    if "rows" in v and "cols" in v and v["rows"] * v["cols"] > _MAX_ENTRIES:
        raise InvalidInputError(f"{prefix}rows * {prefix}cols must be at most {_MAX_ENTRIES} "
                                f"entries, got {v['rows']!r} * {v['cols']!r}")
    return converted
