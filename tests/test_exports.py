import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_exports_are_defined_in_their_module(module):
    # a re-export is a second public name for one object
    objects = [getattr(module, name) for name in module.__all__]
    foreign = [
        f"{obj.__module__}.{obj.__qualname__}"
        for obj in objects
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != module.__name__
    ]
    assert not foreign, foreign


def _fresh_interpreter_exit_code(code):
    src = os.path.dirname(next(iter(thetaforge.__path__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_imports_leave_numpy_unloaded():
    # numpy costs 0.16 s of CPU and 14 MB of resident memory to import
    code = (
        "import sys, thetaforge.pillowcase, thetaforge.rt_torus, thetaforge.heisenberg,"
        " thetaforge.quantum_group; sys.exit('numpy' in sys.modules)"
    )
    assert _fresh_interpreter_exit_code(code) == 0


def test_imports_leave_dataclasses_unloaded():
    # every record is a NamedTuple: dataclasses would load inspect, ast, dis
    # and tokenize and exec its generated methods in every fresh process
    names = ", ".join(m.__name__ for m in MODULES)
    code = f"import sys, {names}; sys.exit(bool({{'dataclasses', 'inspect'}} & sys.modules.keys()))"
    assert _fresh_interpreter_exit_code(code) == 0


def test_quantum_group_leaves_rt_torus_unloaded():
    # quantum_group builds on scalar and linalg only
    code = "import sys, thetaforge.quantum_group; sys.exit('thetaforge.rt_torus' in sys.modules)"
    assert _fresh_interpreter_exit_code(code) == 0


def _syntax_tree(module):
    with open(module.__file__, encoding="utf-8") as f:
        return ast.parse(f.read())


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if m.__name__ != "thetaforge.scalar"],
    ids=lambda m: m.__name__.rpartition(".")[2],
)
def test_exact_modules_do_not_import_mpmath(module):
    # every module but scalar computes in exact arithmetic only; floats
    # enter through scalar's embedding, and embed_matrix forms every
    # numeric normalisation
    imported = set()
    for node in ast.walk(_syntax_tree(module)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "mpmath"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_modules_use_every_imported_name(module):
    # no linter runs on this code: an import that a deleted code path left
    # behind is caught here, by name, as a linter's unused-import rule would
    tree = _syntax_tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    assert imported <= used, sorted(imported - used)


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_names_have_a_user_elsewhere(module):
    # the exports, __all__ or else every public top-level name, must each
    # be used by another file of the package, its tests or its benchmark
    if hasattr(module, "__all__"):
        public = set(module.__all__)
    else:
        public = set()
        for node in _syntax_tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.add(node.name)
            elif isinstance(node, ast.Assign):
                public.update(t.id for t in node.targets if isinstance(t, ast.Name))
        public = {name for name in public if not name.startswith("_")}
    own = Path(module.__file__).resolve()
    root = own.parents[2]
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if path.resolve() != own:
                used |= _referenced_names(path)
    assert public <= used, sorted(public - used)


def _public_functions(module):
    """(qualified name, function) for the module's public functions and the
    public methods and constructors of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", member


# Every parameter with a default is an option callers may set; adding one
# means editing this list.
DEFAULTED_PARAMETERS = {
    ("thetaforge.heisenberg.HeisAlgElt.__init__", "terms"),
    ("thetaforge.heisenberg.HeisAlgElt.basis", "coeff"),
    ("thetaforge.quantum_group.FusionElement.__init__", "terms"),
    ("thetaforge.rt_torus.TorusSkein.__init__", "terms"),
    ("thetaforge.scalar.Combination.__init__", "terms"),
    ("thetaforge.scalar.CycScalar.__init__", "den"),
    ("thetaforge.scalar.LaurentPoly.__init__", "terms"),
}


def test_defaulted_parameters_are_pinned():
    found = {
        (qualname, param.name)
        for module in MODULES
        for qualname, fn in _public_functions(module)
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    }
    assert found == DEFAULTED_PARAMETERS


# no private name crosses modules: a rule that two modules need has one
# public owner
SHARED_PRIVATE_NAMES = set()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rpartition(".")[2])
def test_modules_take_no_private_names_from_siblings(module):
    # both "from .scalar import _name" and "from . import linalg" followed
    # by "linalg._name" reach a sibling's private name
    package = thetaforge.__name__
    siblings, found = {}, set()
    tree = _syntax_tree(module)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # the modules are one package deep
            source = ".".join(filter(None, (package, node.module)))
        elif (node.module or "").split(".")[0] == package:
            source = node.module
        else:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.add((module.__name__, source, alias.name))
            elif source == package:
                siblings[alias.asname or alias.name] = f"{package}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.add((module.__name__, siblings[node.value.id], node.attr))
    assert found <= SHARED_PRIVATE_NAMES, sorted(found - SHARED_PRIVATE_NAMES)
