import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qmatball

MODULES = sorted(info.name for info in pkgutil.iter_modules(qmatball.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qmatball.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_relation_data_imports_neither_numpy_nor_the_operator_layer():
    # the relation data is read exactly as well as numerically, so its
    # module must not pull in numpy or the operator layer; the package
    # __init__ imports both, so load the module under a bare package
    src = Path(qmatball.__file__).parent
    code = (
        "import sys, types\n"
        "package = types.ModuleType('qmatball')\n"
        f"package.__path__ = [{str(src)!r}]\n"
        "sys.modules['qmatball'] = package\n"
        "import qmatball.relations\n"
        "print(sorted(m for m in ('numpy', 'qmatball.qoperator') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
