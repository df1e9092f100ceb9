import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_imports_leave_numpy_unloaded():
    # numpy costs 0.16 s of CPU and 14 MB of resident memory to import
    src = os.path.dirname(next(iter(thetaforge.__path__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, thetaforge.pillowcase, thetaforge.rt_torus, thetaforge.heisenberg,"
        " thetaforge.quantum_group; sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
