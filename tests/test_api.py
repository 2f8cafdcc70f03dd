"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import ffsc

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ffsc.__path__))


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
