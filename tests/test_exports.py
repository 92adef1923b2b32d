"""Each ``__all__`` of the package is exact: every listed name resolves, and
every public function or class a module defines is listed.  No public audit
function takes a constant that the trace's config snapshot holds."""

import importlib
import inspect
import pkgutil

import kldescent
from kldescent import diagnostics

MODULES = [kldescent] + [
    importlib.import_module(f"kldescent.{info.name}")
    for info in pkgutil.iter_modules(kldescent.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


def test_every_all_lists_exactly_the_public_names():
    for module in MODULES:
        if not hasattr(module, "__all__"):
            continue
        listed = set(module.__all__)
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], \
            module.__name__
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert sorted(defined - listed) == [], module.__name__


# the names of the constants the audit reads from the trace: the solver's
# from its config snapshot, gamma_star and the h3 cap's gating from its rows
TRACE_CONSTANTS = {"m", "a", "alpha", "delta", "c", "beta_max", "gamma_min",
                   "gamma_star", "enforce_cap"}


def test_no_audit_function_takes_a_constant_of_the_trace():
    # c_constant is the formula of the path-length constant, not a check
    taken = {name: sorted(TRACE_CONSTANTS.intersection(
                 inspect.signature(getattr(diagnostics, name)).parameters))
             for name in diagnostics.__all__
             if name != "c_constant" and inspect.isfunction(getattr(diagnostics, name))}
    assert {name: params for name, params in taken.items() if params} == {}
