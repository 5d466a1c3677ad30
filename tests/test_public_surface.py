"""Every public name of the package resolves.

A deletion that leaves its name in a module's ``__all__`` or in the package
``__init__`` shows up here rather than at a user's import.
"""

import ast
import importlib
import pkgutil

import pytest

import fuscat

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(fuscat.__path__))


def test_submodules_found():
    assert {"cli", "fusion_ring", "linalg", "subalg", "verify", "wedderburn"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"fuscat.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from fuscat.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_package_imports_resolve():
    # The names that fuscat/__init__.py imports from its submodules, read
    # from its source so that none is missed.
    tree = ast.parse(open(fuscat.__file__, encoding="utf-8").read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert getattr(importlib.import_module(f"fuscat.{module}"), attr) is getattr(fuscat, attr)


@pytest.mark.parametrize("name", ["ce_basis"])
def test_deleted_names_are_gone(name):
    # The table keeps each subalgebra's selected class sums as
    # ``SubalgebraIndex.ce_sums``; the list function over them had no caller.
    from fuscat import subalg

    assert not hasattr(subalg, name) and not hasattr(fuscat, name)
