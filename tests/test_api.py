"""Every public name a module exports resolves."""

import importlib
import pkgutil

import pytest

import spherewave

MODULES = sorted(info.name for info in pkgutil.iter_modules(spherewave.__path__))


def test_modules_found():
    assert "study" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"spherewave.{name}")
    exported = getattr(module, "__all__", ())
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"spherewave.{name}.__all__ names undefined {missing}"
