import importlib
import pkgutil
import types

import pytest

import topospinor

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
