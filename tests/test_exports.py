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


def test_test_oracles_stay_out_of_the_package():
    # The dense oracles in tests/ check the package; none of them is public.
    import dense_oracles

    oracles = {
        name for name, value in vars(dense_oracles).items()
        if callable(value) and getattr(value, "__module__", None) == "dense_oracles"
    }
    assert "eigh_block" in oracles
    for name in MODULES:
        module = importlib.import_module(name)
        assert oracles.isdisjoint(getattr(module, "__all__", ())), name
