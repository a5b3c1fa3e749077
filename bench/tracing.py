"""Span tracer for the benchmark's traced runs.

Wrappers replace functions at the names through which the package modules
call each other (``qergo.cli``, ``qergo.diagnostics``, ``qergo.models``), so
nested calls get parents and nothing under ``src/`` changes.  They exist only
in a traced worker between ``install()`` and ``uninstall()``; untraced passes
call nothing wrapped.  A span is named ``<module>.<function>`` after the
module that defines the function, which is its layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import re
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Import sites wrapped, besides every ``dg.<function>`` that qergo.cli calls.
SITES = {
    "qergo.cli": (
        "run_experiment", "feynman_kac_operator", "principal_triple",
        "principal_triple_from_operator", "fk_estimate", "adjoint", "ball_indicator",
    ),
    "qergo.diagnostics": ("feynman_kac_operator", "ball_indicator"),
    "qergo.models": ("zoo_build", "build_ho_discretization"),
}

# Per-layer metric -> (unit, better, the end-to-end metric and workload it should move).
# ``<span>_s`` is the inclusive time of all calls in one pass, ``<span>_calls``
# their number, ``<layer>.self_s`` the layer's spans minus their child spans,
# and ``_1t_s`` the same time with BLAS pinned to one thread, as in the
# end-to-end runs.  Every time here is nonzero on every workload.
PER_LAYER = {
    "operators.self_s": (
        "s", "lower", "run_s and cli_s on frac_rev and cycle_nonrev (expm); no change on ho_kernel"),
    "operators.self_1t_s": ("s", "lower", "as operators.self_s: the single-threaded baseline"),
    "operators.feynman_kac_operator_calls": (
        "count", "lower", "13 on every generator workload, 0 on ho_kernel; run_s on frac_rev and cycle_nonrev"),
    "operators.adjoint_s": ("s", "lower", "run_s on ho_kernel and frac_rev"),
    "spectral.self_s": ("s", "lower", "run_s on frac_rev and cycle_nonrev (full eig) and ho_kernel"),
    "spectral.principal_triple_calls": ("count", "lower", "run_s on frac_rev and cycle_nonrev"),
    "models.self_s": ("s", "lower", "setup_s on frac_rev; run_s on ho_kernel (Mehler kernel)"),
    "models.zoo_build_s": ("s", "lower", "setup_s and peak_rss_mb on frac_rev (model built twice)"),
    "models.build_ho_discretization_calls": ("count", "lower", "4 on ho_kernel; run_s on ho_kernel"),
    "statespace.ball_indicator_calls": ("count", "lower", "run_s on chain_mc (eta bisection and kappa)"),
    "diagnostics.self_s": ("s", "lower", "run_s on the workload where it is largest"),
    "diagnostics.heat_content_s": ("s", "lower", "run_s on the workload where it is largest"),
    "diagnostics.kernel_convergence_error_s": ("s", "lower", "run_s on the workload where it is largest"),
    "montecarlo.paths": ("count", "higher", "120000 on chain_mc; run_s on chain_mc; nothing elsewhere"),
    "cli.run_experiment_s": ("s", "lower", "run_s on chain_mc"),
    "cli.self_s": ("s", "lower", "run_s on chain_mc (orchestration, CSV and verdict writing)"),
    "cli.output_bytes": ("bytes", "lower", "run_s on chain_mc"),
    "bench.trace_overhead_s": ("s", "lower", "traced cli.run_experiment_s minus untraced run_s"),
}

# Printed beside PER_LAYER but left out of the result line: these times are 0
# on the workloads that never call the function.
DETAIL = {
    "operators.feynman_kac_operator_s": ("s", "lower", "run_s and cli_s on frac_rev and cycle_nonrev"),
    "operators.feynman_kac_operator_1t_s": ("s", "lower", "as operators.feynman_kac_operator_s"),
    "spectral.principal_triple_s": ("s", "lower", "run_s on frac_rev and cycle_nonrev"),
    "diagnostics.find_qsd_s": ("s", "lower", "run_s on frac_rev and cycle_nonrev"),
    "spectral.principal_triple_from_operator_s": ("s", "lower", "run_s on ho_kernel"),
    "models.build_ho_discretization_s": ("s", "lower", "run_s on ho_kernel"),
    "statespace.ball_indicator_s": ("s", "lower", "run_s on chain_mc"),
    "diagnostics.uniqueness_condition_check_s": ("s", "lower", "run_s on frac_rev and cycle_nonrev"),
    "diagnostics.survival_pair_s": ("s", "lower", "run_s on frac_rev and cycle_nonrev"),
    "montecarlo.fk_estimate_s": ("s", "lower", "run_s on chain_mc; nothing elsewhere"),
    "montecarlo.paths_per_s": ("1/s", "higher", "run_s on chain_mc"),
}


class Span:
    __slots__ = ("id", "name", "run", "parent", "start", "end", "paths")

    def __init__(self, id_: int, name: str, run: int, parent: int | None):
        self.id, self.name, self.run, self.parent = id_, name, run, parent
        self.start = self.end = 0.0
        self.paths = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that its children cover (they may overlap)."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Records spans in memory; ``dump`` writes them out when the worker ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.installed: list[tuple] = []  # (module, attribute, original function)
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Span | None = None  # parent of spans opened on a helper thread

    def begin_run(self) -> None:
        self.run += 1

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sig = inspect.signature(fn) if name == "montecarlo.fk_estimate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            span = Span(next(self._ids), name, self.run, parent.id if parent else None)
            if sig is not None:
                span.paths = int(sig.bind(*args, **kwargs).arguments["n"])
            is_root = parent is None
            if is_root:
                self._root = span
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if is_root:
                    self._root = None

        return traced

    def install(self) -> None:
        cli = importlib.import_module("qergo.cli")
        sites = {mod: set(names) for mod, names in SITES.items()}
        sites["qergo.diagnostics"] |= set(re.findall(r"\bdg\.(\w+)", inspect.getsource(cli)))
        for modname, names in sites.items():
            module = importlib.import_module(modname)
            for attr in sorted(names):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    self.installed.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed = []

    def summary(self, run: int) -> dict:
        """``<span>_s``, ``<span>_calls``, ``<layer>.self_s`` and the MC path count of one pass."""
        spans = [s for s in self.spans if s.run == run]
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        total, calls, own = Counter(), Counter(), Counter()
        for s in spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            own[s.name.split(".")[0]] += s.end - s.start - _covered(s, children[s.id])
        out = {f"{n}_s": v for n, v in total.items()}
        out.update({f"{n}_calls": v for n, v in calls.items()})
        out.update({f"{layer}.self_s": v for layer, v in own.items()})
        paths = sum(s.paths for s in spans)
        out["montecarlo.paths"] = paths
        out["montecarlo.paths_per_s"] = paths / total["montecarlo.fk_estimate"] if paths else 0.0
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
