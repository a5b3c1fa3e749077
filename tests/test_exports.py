import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import qergo

MODULES = ["qergo"] + [f"qergo.{m.name}" for m in pkgutil.iter_modules(qergo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_leaves_arpack_unloaded():
    # ARPACK is imported by the solvers that call it, so the import, parse and
    # build stage of a run does not pay for scipy.sparse.linalg
    src = os.path.dirname(os.path.dirname(qergo.__file__))
    code = "import sys, qergo.cli; print('scipy.sparse.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
