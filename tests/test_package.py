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


def test_string_representations_import_no_masked_arrays():
    # the first np.unique call imports numpy.ma, which the package never
    # uses; evaluate_terms and TensorOperator.terms find their distinct ids
    # with qoperator._distinct, so building a string representation and
    # reading the terms of an image leave numpy.ma unimported
    src = Path(qmatball.__file__).parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from qmatball.matrixball import rep_from_string\n"
        "from qmatball.permgroup import AdmissibleString, enumerate_admissible\n"
        "string = AdmissibleString(4, enumerate_admissible(4)[-1])\n"
        "terms = rep_from_string(string, 0.5, 3).gen(1, 1).terms\n"
        "print(len(terms) > 0, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "True False\n"
