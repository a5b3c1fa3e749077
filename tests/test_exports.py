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


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import qergo.cli``."""
    src = os.path.dirname(os.path.dirname(qergo.__file__))
    code = f"import sys, qergo.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_cli_import_leaves_arpack_unloaded():
    # ARPACK is imported by the solvers that call it, so the import, parse and
    # build stage of a run does not pay for scipy.sparse.linalg
    assert not _loaded_by_cli_import("scipy.sparse.linalg")


def test_cli_import_leaves_scipy_special_unloaded():
    # gammaln is imported by uniformized_transition, the one function that uses it
    assert not _loaded_by_cli_import("scipy.special")
