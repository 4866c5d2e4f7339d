import importlib
import pkgutil

import pytest

import cowalk

MODULES = ["cowalk"] + [f"cowalk.{info.name}" for info in pkgutil.iter_modules(cowalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
