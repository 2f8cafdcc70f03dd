"""Every exported name resolves, so a deletion cannot leave a stale export,
and every exported name has a caller in the package itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ffsc

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ffsc.__path__))

# Exported names that nothing in the package calls, each kept on purpose.
NO_CALLER_IN_SRC = {
    # criterion 6 calls it as the one geometric block-length planner
    "plan_passes",
    # the reference range coder that the kernels are tested against
    "RangeEncoder",
    "RangeDecoder",
}


def test_package_exports_resolve():
    assert [n for n in ffsc.__all__ if not hasattr(ffsc, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"ffsc.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ffsc import *", namespace)
    assert set(ffsc.__all__) <= set(namespace)


def _names_read_in_src() -> set[str]:
    """Every name and attribute that the submodules read.  Imports,
    strings and docstrings are not reads, and the package's __init__,
    which only re-exports, is left out."""
    read = set()
    for path in Path(ffsc.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller_in_src():
    exported = set(ffsc.__all__)
    for name in SUBMODULES:
        mod = importlib.import_module(f"ffsc.{name}")
        exported |= set(getattr(mod, "__all__", ()))
    assert sorted(exported - _names_read_in_src()) == sorted(NO_CALLER_IN_SRC)
