import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import topospinor
from topospinor import ddtl, planes

MODULES = sorted(info.name for info in pkgutil.iter_modules(topospinor.__path__, "topospinor."))


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined objects: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"


def test_package_reexports_are_declared_by_their_module():
    # Every public object of the package is one that some module declares in
    # its __all__, so a name dropped from a module cannot linger here.
    declared = {}
    for name in MODULES:
        module = importlib.import_module(name)
        declared.update({n: module for n in module.__all__})
    public = [
        n for n in dir(topospinor) if not n.startswith("_") and not isinstance(getattr(topospinor, n), types.ModuleType)
    ]
    assert public
    for n in public:
        assert n in declared, f"topospinor.{n} is in no module's __all__"
        assert getattr(topospinor, n) is getattr(declared[n], n)


def test_the_plane_model_imports_only_numpy():
    # planes.py is the plane model alone: no other module of the package, no other library.
    tree = ast.parse(Path(planes.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules <= {"numpy", "__future__"}, modules


def test_ddtl_declares_only_the_admm():
    # The closed-form learner lives in planes; ddtl declares the ADMM's objects alone, each defined there.
    admm = {"DdtlConfig", "DdtlState", "DdtlSolution", "ConvergenceReport", "NumericalDivergenceError", "ddtl_fit",
            "initialize_state", "update_k", "update_omega", "update_p", "update_x", "update_duals"}
    assert set(ddtl.__all__) <= admm
    assert all(getattr(ddtl, name).__module__ == ddtl.__name__ for name in ddtl.__all__)
