import importlib
import pkgutil

import pytest

import thetaforge

MODULES = [
    importlib.import_module(f"thetaforge.{info.name}")
    for info in pkgutil.iter_modules(thetaforge.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve_and_star_import(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
