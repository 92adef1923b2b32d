"""The domain of every number a solver config, an audit or a catalog problem
takes, each stated once, and the one function that checks values against them.

:data:`RULES` maps each field of each context to one :class:`Domain`.  The
contexts are ``npg_major`` (the fields of :class:`~kldescent.npg.NpgConfig`),
``pgenls`` (:class:`~kldescent.pgenls.PgenlsConfig`), ``audit`` (the
constants :func:`~kldescent.diagnostics.build_report` and its checks take,
and the window length of :class:`~kldescent.memory.MemoryWindow`),
``residual`` (the weights the residual functions of both solvers take) and
``params`` (the problem parameters of the catalog).  The audit and the
residuals share the solvers' entries.  Rules on two fields, ``0 < gamma_min <= gamma_max``,
``nu < 1/rho`` and ``kbar > m``, follow the table in :func:`check`.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple, Optional

from .errors import InvalidInputError

__all__ = ["Domain", "RULES", "check"]


class Domain(NamedTuple):
    kind: type                            # numbers.Integral, numbers.Real or str
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

RULES = {
    "npg_major": _NPG,
    "pgenls": _PGENLS,
    # one audit covers both solvers: alpha as npg_major takes it, which
    # holds pgenls's, and delta as pgenls takes it, which holds npg_major's
    "audit": {"m": _SOLVER["m"], "a": POSITIVE, "alpha": _NPG["alpha"],
              "delta": _PGENLS["delta"], "c": _NPG["c"], "gamma_min": POSITIVE,
              "beta_max": _PGENLS["beta_max"], "tau": OPEN_UNIT, "mu": NONNEGATIVE,
              "kbar": POSITIVE_COUNT, "lipschitz": NONNEGATIVE},
    "residual": {"gamma_prev": POSITIVE, "delta": _PGENLS["delta"]},
    "params": {"seed": COUNT, "rows": POSITIVE_COUNT, "cols": POSITIVE_COUNT,
               "lam": POSITIVE, "lam_factor": POSITIVE, "A_csv": STRING, "b_csv": STRING,
               "x0": REAL, "mu": POSITIVE},
}


def check(context: str, prefix: str = "", **values) -> None:
    """Check each value against its field's domain in ``RULES[context]``, in
    order, then the rules on two fields among them; ``prefix`` leads each
    field's name in the message.

    A value must be of its domain's kind (booleans are not numbers here) and
    convert to the machine number it is used as, an int64 or a float, so no
    later conversion to a C integer, a numpy size or a float can raise.  Then
    it must pass its domain's test, and a real number must be finite.
    """
    rules = RULES[context]
    for name, value in values.items():
        kind, test, rule = rules[name]
        name = prefix + name
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidInputError(f"{name} must be {_NOUNS[kind]}, got {value!r}")
        if kind is numbers.Integral and not -2**63 <= value < 2**63:
            raise InvalidInputError(f"{name} must fit in int64, got {value!r}")
        finite = True
        if kind is numbers.Real:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                raise InvalidInputError(f"{name} must be finite, got {value!r}") from None
        if test is not None and not test(value):
            raise InvalidInputError(f"{name} {rule}, got {value!r}")
        if not finite:
            raise InvalidInputError(f"{name} must be finite, got {value!r}")
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
