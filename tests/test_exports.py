"""Every public name a module lists in ``__all__`` is defined."""

import importlib
import pkgutil

import pytest

import resonancekit

MODULES = ["resonancekit"] + [
    f"resonancekit.{info.name}" for info in pkgutil.iter_modules(resonancekit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
