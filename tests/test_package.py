import importlib
import pkgutil

import pytest

import qmatball

MODULES = sorted(info.name for info in pkgutil.iter_modules(qmatball.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qmatball.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
