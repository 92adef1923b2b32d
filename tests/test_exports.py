"""Each ``__all__`` of the package is exact: every listed name resolves, and
every public function or class a module defines is listed."""

import importlib
import inspect
import pkgutil

import kldescent

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
