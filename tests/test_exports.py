"""Every name a polyconv module exports resolves to an attribute."""

import importlib
import pkgutil

import pytest

import polyconv

MODULES = sorted(info.name for info in pkgutil.iter_modules(polyconv.__path__))


def test_every_submodule_is_listed():
    assert set(MODULES) - {"errors"} == set(polyconv._SUBMODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"polyconv.{module}")
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_package_names_resolve():
    assert all(hasattr(polyconv, name) for name in polyconv.__all__)
