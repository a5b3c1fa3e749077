import ast
import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qergo

ROOT = Path(__file__).parents[1]
MODULES = ["qergo"] + [f"qergo.{m.name}" for m in pkgutil.iter_modules(qergo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _loaded_after(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(qergo.__file__))
    probe = code + "\nimport sys\nprint(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def _scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    return [m for m in _loaded_after(code) if m.split(".")[0] == "scipy"]


def _run_code(path: Path, out: Path) -> str:
    """Code that runs ``qergo run path`` with its output under ``out``."""
    return (f"import os, sys\nos.environ['QERGO_OUTPUT_DIR'] = {str(out)!r}\n"
            f"from qergo.cli import main\nassert main(['run', {str(path)!r}]) in (0, 2)")


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import qergo.cli``."""
    return module in _scipy_loaded_after("import sys, qergo.cli")


def test_cli_import_leaves_arpack_unloaded():
    # no module calls ARPACK: the non-reversible solvers are a numpy Arnoldi
    assert not _loaded_by_cli_import("scipy.sparse.linalg")


def test_cli_import_leaves_scipy_special_unloaded():
    # no module calls a special function: the free transition is the engine's U_t
    assert not _loaded_by_cli_import("scipy.special")


def test_scipy_probe_sees_an_import():
    # the control of the no-scipy guards: no run loads scipy any more
    assert "scipy.linalg" in _scipy_loaded_after("import sys, scipy.linalg")


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
        path = ROOT / "configs" / f"{config}.ini"
    assert _scipy_loaded_after(_run_code(path, tmp_path / "o")) == []
    assert (tmp_path / "o" / "verdict.txt").exists()


CYCLE12 = ("[model]\nid = cycle\nn = 12\npotential = power\nbeta = 2.0\nscale = 0.05\n\n"
           "[times]\nt_grid = 1 2\n\n[diagnostics]\nnames = heat_content\n\n"
           "[family]\nbase_point = 0\nradius = linear:0.6\n")


@pytest.mark.parametrize("config", ["cycle12", "cycle_nonrev"])
def test_nonreversible_run_loads_no_scipy(tmp_path, config):
    # a cycle's U_t is the nonnegative series step, its triple and find_qsd a
    # numpy Arnoldi: a non-reversible run needs numpy only too.  cycle_nonrev
    # is the benchmark's n = 500 workload with every diagnostic
    path = tmp_path / "cycle.ini"
    if config == "cycle12":
        path.write_text(CYCLE12)
    else:
        write_config = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["write_config"]
        write_config(ROOT, config, 0, path)
    assert _scipy_loaded_after(_run_code(path, tmp_path / "o")) == []
    assert (tmp_path / "o" / "verdict.txt").exists()


@pytest.mark.parametrize("config,loads", [
    ("ho_oracle", False), ("frac_401", False), ("birthdeath_full", True), ("cycle12", True)])
def test_only_sampling_and_arnoldi_load_numpy_random(tmp_path, config, loads):
    # every self-adjoint solve, the oscillator triple and a reversible
    # find_qsd, is a block iteration from a fixed golden-ratio block, so a run
    # with no [mc] and no non-reversible solve never imports numpy.random, nor
    # the secrets, hashlib and OpenSSL modules it pulls in.  birthdeath_full.ini
    # still loads it: its [mc] paths are drawn from a seeded numpy Generator.
    # So does a cycle: Arnoldi starts from a seeded uniform draw, since the
    # golden-ratio start moves cycle_nonrev's gap toward the bench's bar
    if config == "frac_401":  # reversible, n = 401, every diagnostic
        path = tmp_path / "frac.ini"
        text = SMALL_FRAC
        for old, new in [("half_width = 20.0\nh = 0.5", "half_width = 50.0\nh = 0.25"),
                         ("15.9 19.0 22.2 25.4 28.5 31.7", "31.2 37.4 43.6 49.9 56.1 62.3"),
                         ("point:40", "point:200"), ("base_point = 40", "base_point = 200")]:
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
    elif config == "cycle12":
        path = tmp_path / "cycle.ini"
        path.write_text(CYCLE12)
    else:
        path = ROOT / "configs" / f"{config}.ini"
    assert ("numpy.random" in _loaded_after(_run_code(path, tmp_path / "o"))) is loads
    assert (tmp_path / "o" / "verdict.txt").exists()


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
