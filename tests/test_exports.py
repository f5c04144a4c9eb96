"""The public names: each module's ``__all__`` and the package's re-exports."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import deadend

MODULES = [importlib.import_module(info.name)
           for info in pkgutil.iter_modules(deadend.__path__, "deadend.")]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"


def test_package_imports_only_public_names():
    tree = ast.parse(inspect.getsource(deadend))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"deadend.{node.module}").__all__
        private = [alias.name for alias in node.names if alias.name not in public]
        assert not private, f"deadend imports names outside {node.module}.__all__: {private}"
