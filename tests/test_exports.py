import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qergo

MODULES = ["qergo"] + [f"qergo.{m.name}" for m in pkgutil.iter_modules(qergo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(qergo.__file__))
    probe = code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import qergo.cli``."""
    return module in _scipy_loaded_after("import sys, qergo.cli")


def test_cli_import_leaves_arpack_unloaded():
    # ARPACK is imported by the solvers that call it, so the import, parse and
    # build stage of a run does not pay for scipy.sparse.linalg
    assert not _loaded_by_cli_import("scipy.sparse.linalg")


def test_cli_import_leaves_scipy_special_unloaded():
    # gammaln is imported by uniformized_transition, the one function that uses it
    assert not _loaded_by_cli_import("scipy.special")


def test_cli_import_loads_no_scipy():
    assert _scipy_loaded_after("import sys, qergo.cli") == []


# a reversible fractional lattice (n = 81) with every diagnostic, on its
# [3/gap, 6/gap] grid (gap = 0.189)
SMALL_FRAC = """\
[model]
id = frac
kind = polynomial
alpha = 1.0
potential = log-power
beta = 2.0
scale = 1.0
half_width = 20.0
h = 0.5

[times]
t_grid = 15.9 19.0 22.2 25.4 28.5 31.7

[diagnostics]
names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness

[diagnostics.quasi_ergodic]
p = inf
sigma = point:40

[family]
base_point = 40
radius = linear:0.6
"""


@pytest.mark.parametrize(
    "config", ["birthdeath_full", "small_frac", "small_frac_early", "ho_oracle"])
def test_reversible_or_oracle_run_loads_no_scipy(tmp_path, config):
    # a reversible run is one eigh, the products of U_t, a numpy connectivity
    # test and find_qsd's subspace iteration, also on an early grid (gap t
    # from 0.09), where the middle U_t's spectrum decays slowly; the oscillator
    # oracle's triple is the same iteration on its U_1: both need numpy only
    if config.startswith("small_frac"):
        path = tmp_path / "frac.ini"
        text = SMALL_FRAC
        if config == "small_frac_early":
            old = "t_grid = 15.9 19.0 22.2 25.4 28.5 31.7"
            assert old in text
            text = text.replace(old, "t_grid = 0.5 1.0 1.5 2.0 2.5 3.0")
        path.write_text(text)
    else:
        path = Path(__file__).parents[1] / "configs" / f"{config}.ini"
    code = (f"import os, sys\nos.environ['QERGO_OUTPUT_DIR'] = {str(tmp_path / 'o')!r}\n"
            f"from qergo.cli import main\nassert main(['run', {str(path)!r}]) in (0, 2)")
    assert _scipy_loaded_after(code) == []
    assert (tmp_path / "o" / "verdict.txt").exists()


def test_nonreversible_run_loads_scipy(tmp_path):
    # the control of the guard above: a cycle's triple and U_t need ARPACK and expm
    path = tmp_path / "cycle.ini"
    path.write_text("[model]\nid = cycle\nn = 12\npotential = power\nbeta = 2.0\nscale = 0.05\n\n"
                    "[times]\nt_grid = 1 2\n\n[diagnostics]\nnames = heat_content\n\n"
                    "[family]\nbase_point = 0\nradius = linear:0.6\n")
    code = (f"import os, sys\nos.environ['QERGO_OUTPUT_DIR'] = {str(tmp_path / 'o')!r}\n"
            f"from qergo.cli import main\nassert main(['run', {str(path)!r}]) in (0, 2)")
    loaded = _scipy_loaded_after(code)
    assert "scipy.linalg" in loaded and "scipy.sparse.linalg" in loaded


# ---------------------------------------------------------------------------
# dead-code guard: no linter is installed, so the standard library's ast
# finds imports a module never uses and private definitions nothing calls

SRC = Path(qergo.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports that ``tree`` never reads; a name in ``__all__``,
    or in a string annotation, is read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """``_private`` functions and classes, methods included, whose name no
    module reads, as a name, an attribute or an imported name."""
    refs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in refs]


def test_no_module_imports_a_name_it_never_uses():
    unused = {p.name: _unused_imports(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_private_function_and_class_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private(trees) == []


def test_dead_code_guard_flags_what_it_should():
    code = ("import os\nimport numpy as np\nfrom .x import kept, dropped\n__all__ = ['kept']\n"
            "def f(a: 'np.ndarray'):\n    return a\n\ndef _dead():\n    pass\n\n"
            "class _Used:\n    def _m(self):\n        return self._m\n\n_Used()\n")
    tree = ast.parse(code)
    assert _unused_imports(tree) == ["os (line 1)", "dropped (line 3)"]
    assert _unreferenced_private({"m.py": tree}) == ["m.py:8 _dead"]
