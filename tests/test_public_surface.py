"""The public surface resolves: every module imports, every ``__all__`` name exists.

Packages re-export their modules' names by hand; a deletion that forgets
the ``__init__`` line (or the reverse) would otherwise surface only when
somebody imports that package.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
