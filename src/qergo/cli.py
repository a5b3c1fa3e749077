"""Config-driven experiment runner.

Subcommands: ``run <config>``, ``list-models``, ``spectral <model>``,
``mc <model>``.  A run builds the model, its spectral data and the operators
on the configured time grid, evaluates the requested diagnostics, and writes
a series CSV, a summary CSV with fitted rates, a spectral record and a
plain-text verdict file with one PASS/FAIL line per checked claim.  Exit
codes: 0 all checks pass, 2 any FAIL, 1 configuration or runtime error.

CSV bodies are byte-identical across repeated runs of the same config and
seed; only the leading timestamped comment line varies.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics as dg
from . import models as zoo
from .errors import BadKeyError, ModelError, NonuniquenessWarning
from .models import _Key, parse_model_string, read_keys
from .montecarlo import check_batch, fk_estimate
from .operators import MarkovModel, Survivals, feynman_kac_operator
from .spectral import principal_triple, spectral_to_text
from .statespace import ExhaustingFamily, ball_indicator, tabulated_radius

_FMT = ".17g"
_NO_SPECTRAL = "SKIPPED: no spectral data (reducible chain)"
_NO_FAMILY = "SKIPPED: no [family] section"
_MC_NEEDS = "Monte Carlo needs a Markov generator; zoo id {!r} is kernel-only"
_LOG_MAX = float(np.log(np.finfo(float).max))  # ~709.78


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model_id: str
    model_params: dict
    t_grid: list
    diagnostics: list
    diag_params: dict
    family: dict | None  # its "radius" holds the law, read at parse
    verdicts: dict
    mc: dict | None
    output_dir: str
    source: str


def _nonnegative(x: str) -> float:
    v = float(x)
    if not 0.0 <= v < np.inf:  # nan fails too
        raise ValueError(f"{x} is not finite and >= 0: the law must be nondecreasing from 0 on")
    return v


def _radius_law(spec: str):
    """The radius law ``spec`` names; a ValueError unless it is nonnegative
    and nondecreasing, as an exhausting family needs."""
    kind, _, arg = spec.partition(":")
    if kind in ("linear", "const"):
        v = _nonnegative(arg)
        return (lambda t: v * t) if kind == "linear" else (lambda t: v)
    if kind == "power":
        a, b = (_nonnegative(x) for x in arg.split(","))
        return lambda t: a * t**b
    if kind == "table":  # table:t1:r1,t2:r2,...; the radii are made nondecreasing
        pairs = [p.split(":") for p in arg.split(",")]
        return tabulated_radius(*zip(*[(float(t), _nonnegative(r)) for t, r in pairs]))
    raise ValueError("unknown kind; known: linear, const, power, table")


_POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and > 0")
_NONNEGATIVE = (lambda v: 0.0 <= v < np.inf, "finite and >= 0")
# every key of every section; [model] holds the id and its rows of the zoo's
# table of that id.  The rules that relate keys (the t_grid, names, kappa's split
# and t0, the t_min bound, sigma's kind) are parse_config's; [mc]'s is check_batch's
_KEYS = {
    "times": {"t_grid": _Key(default=...)},
    "diagnostics": {"names": _Key(default="")},
    "diagnostics.quasi_ergodic": {"p": _Key(float, np.inf, lambda v: v >= 1.0, ">= 1 or inf"),
                                  "sigma": _Key(default="uniform")},
    "diagnostics.eta": {"gamma": _Key(float, None, *_POSITIVE)},  # the spectral gap when left out
    "diagnostics.kappa": {"a": _Key(float, 1.0 / 3.0), "b": _Key(float),
                          "t0": _Key(float, None, *_POSITIVE)},
    "family": {"base_point": _Key(), "radius": _Key(_radius_law, _radius_law("linear:1.0")),
               "t_min": _Key(float, 0.0, lambda v: abs(v) < np.inf, "finite")},
    "verdicts": {"qsd_tol": _Key(float, 1e-9, *_NONNEGATIVE),
                 "match_tol": _Key(float, 1e-8, *_NONNEGATIVE),
                 "rate_tol": _Key(float, 0.10, *_NONNEGATIVE),
                 "fit_tail": _Key(float, 0.5, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                 "gsd_level": _Key(float, 10.0, *_POSITIVE)},
    "mc": {"n": _Key(int, 10000), "seed": _Key(int, 0, lambda v: v >= 0, ">= 0")},
    "output": {"dir": _Key(default="out")},
}


def _line_of(path: str, needle: str, section: str | None = None) -> int | None:
    """Line of the section [needle], or of the key ``needle`` in ``section`` or any."""
    current = None
    try:
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                text = line.strip()
                if text == f"[{needle}]":
                    return i
                if text.startswith("[") and text.endswith("]"):
                    current = text[1:-1]
                elif section in (None, current) and re.split("[=:]", text)[0].strip().lower() == needle:
                    return i
    except OSError:
        return None
    return None


def _fail_config(path: str, key: str, msg: str, section: str | None = None) -> ConfigError:
    """The error ``msg`` at the line of ``key``, or of [section] when the key is left out."""
    line = _line_of(path, key, section) or (section and _line_of(path, section))
    where = f"{path}:{line}" if line else path
    return ConfigError(f"{where}: {msg}")


def _section(cp: configparser.ConfigParser, path: str, name: str) -> dict:
    """Section [name] read by its rows of _KEYS, or [model] by those of its id
    in the zoo; a ConfigError names the line of the key that read_keys refuses."""
    raw = dict(cp[name]) if cp.has_section(name) else {}
    try:
        if name != "model":
            return read_keys(_KEYS[name], raw, f"[{name}]")
        model_id = raw.pop("id")
        return read_keys(zoo._zoo_entry(model_id).keys, raw, f"model {model_id!r}")
    except BadKeyError as exc:
        raise _fail_config(path, exc.key, str(exc), name) from None


def parse_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: cannot read config file")
    if cp.defaults():  # configparser would add its keys to every section
        raise _fail_config(path, "DEFAULT", "[DEFAULT] is not read; give each key in its own section")
    for name in cp.sections():
        if name != "model" and name not in _KEYS:
            msg = f"unknown section [{name}]; known: model, {', '.join(_KEYS)}"
            raise _fail_config(path, name, msg)
    if "model" not in cp or "id" not in cp["model"]:
        raise _fail_config(path, "model", "missing [model] section with an id")
    model_params = _section(cp, path, "model")
    sections = {name: _section(cp, path, name) for name in _KEYS}

    try:
        t_grid = [float(v) for v in sections["times"]["t_grid"].split()]
    except ValueError as exc:
        raise _fail_config(path, "t_grid", f"bad t_grid: {exc}")
    if not t_grid:
        raise _fail_config(path, "t_grid", "t_grid needs at least one time")
    if any(s >= t for s, t in zip(t_grid, t_grid[1:])):
        raise _fail_config(path, "t_grid", "t_grid must be strictly increasing")
    if not all(0.0 < t < np.inf for t in t_grid):  # nan fails too
        raise _fail_config(path, "t_grid", "t_grid times must be finite and > 0")

    names = sections["diagnostics"]["names"].split()
    for i, name in enumerate(names):
        if name not in DIAGNOSTIC_NAMES:
            raise _fail_config(path, "names", f"unknown diagnostic {name!r}; known: {DIAGNOSTIC_NAMES}")
        if name in names[:i]:
            raise _fail_config(path, "names", f"diagnostic {name!r} is named twice")
    if "uniqueness" in names and len(t_grid) < 2:
        raise _fail_config(path, "t_grid", "uniqueness needs at least two grid times")
    diag_params = {name: sections.get(f"diagnostics.{name}", {}) for name in names}

    if "kappa" in diag_params:  # the split the run uses, defaults filled in
        kp = diag_params["kappa"]
        key = "b" if "b" in kp else "a"
        a = kp["a"]
        b = kp.setdefault("b", (1.0 - a) / 2.0)
        kp.setdefault("t0", t_grid[0])
        if abs(a + 2.0 * b - 1.0) > 1e-12:
            raise _fail_config(
                path, key, f"kappa needs a + 2b = 1, got {a + 2 * b}", "diagnostics.kappa")
        if not 0.0 < b < 0.5:
            raise _fail_config(path, key, f"kappa needs b in (0, 1/2), got {b}", "diagnostics.kappa")
    sigma = sections["diagnostics.quasi_ergodic"]["sigma"]
    if sigma != "uniform" and not sigma.startswith("point:"):
        raise _fail_config(path, "sigma", f"unknown sigma spec {sigma!r}", "diagnostics.quasi_ergodic")
    family = sections["family"] if cp.has_section("family") else None
    if family is not None and "kappa" in diag_params:  # kappa reads K_{at} and K_{bt} at each time
        s_min, t_min = min(kp["a"], kp["b"]) * t_grid[0], family["t_min"]
        if s_min < t_min:
            raise _fail_config(path, "t_min", f"t_min = {t_min} exceeds {s_min}, the smallest "
                               "family parameter kappa reads (min(a, b) t_grid[0])", "family")
    mc = sections["mc"] if cp.has_section("mc") else None
    if mc is not None:
        if not zoo._zoo_entry(cp["model"]["id"]).generator:
            raise _fail_config(path, "mc", "[mc]: " + _MC_NEEDS.format(cp["model"]["id"]), "mc")
        try:
            check_batch(mc["n"], t_grid[-1])
        except BadKeyError as exc:  # an n left out names the [mc] line
            raise _fail_config(path, exc.key, str(exc), "mc") from None

    return ExperimentConfig(cp["model"]["id"], model_params, t_grid, names, diag_params, family,
                            sections["verdicts"], mc, sections["output"]["dir"], path)


def _state(space, key: str, raw, source: str | None = None):
    """The state that ``key`` (a config key read from ``source``, or a command
    line option) names; a ConfigError unless it is one."""
    try:
        point = type(space.points[0])(raw)
        space.index(point)
    except (TypeError, ValueError, KeyError):
        msg = f"{key} {raw!r} is not a state of the {space.n}-state model"
        raise (ConfigError(msg) if source is None else _fail_config(source, key, msg)) from None
    return point


def _build_family(cfg: ExperimentConfig, space) -> ExhaustingFamily | None:
    if cfg.family is None:
        return None
    return ExhaustingFamily(
        base_point=_state(
            space, "base_point", cfg.family.get("base_point", space.points[0]), cfg.source),
        radius_fn=cfg.family["radius"],
        t_min=cfg.family["t_min"],
    )


def _parse_sigma(cfg: ExperimentConfig, space) -> np.ndarray:
    kind, _, arg = cfg.diag_params["quasi_ergodic"]["sigma"].partition(":")
    if kind == "point":
        return dg.point_mass(space, _state(space, "sigma", arg, cfg.source))
    return np.full(space.n, 1.0 / space.n)


@dataclass
class _Run:
    """One run: its inputs, the survivals and reads of each grid time in grid
    order, and the rows it writes.  It holds no n x n array: each read takes
    what it needs of U_t through its products while the grid pass holds it."""

    cfg: ExperimentConfig
    model: object
    spec: object
    fam: ExhaustingFamily | None
    sigma: np.ndarray | None
    ops: list
    reads: dict
    series_rows: list = field(default_factory=list)
    summary_rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    def add_sample(self, diagnostic: str, t: float, value: float, extra: str = ""):
        self.series_rows.append((self.model.label, diagnostic, t, value, extra))

    def add_fit(self, diagnostic: str, rate: float, intercept: float, r2: float):
        self.summary_rows.append((self.model.label, diagnostic, rate, intercept, r2))

    def add_verdict(self, ok: bool, name: str, detail: str):
        self.verdicts.append((bool(ok), f"{name} {detail}"))

    @property
    def all_pass(self) -> bool:
        return all(ok for ok, _ in self.verdicts)


def _num(x) -> str:
    return format(float(x), _FMT)


def _write_csv(path: str, header: str, rows, stamp: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# run {stamp}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(_num(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row)
                + "\n"
            )


def run_experiment(cfg: ExperimentConfig):
    """Execute one experiment; returns (run, output paths, exit code)."""
    model = zoo.zoo_build(cfg.model_id, cfg.model_params)
    # points named by the config are checked before any operator is built
    fam = _build_family(cfg, model.space)
    sigma = _parse_sigma(cfg, model.space) if "quasi_ergodic" in cfg.diagnostics else None
    if not isinstance(model, MarkovModel):
        # the triple reads U_1, built here so that a traced bench run sees each
        # build as a step of the run; the grid pass reads it first, if t = 1 is on it
        model.operator(1.0)
    try:  # before the grid, so that a grid past the double range below fails before any operator
        spec = principal_triple(model)
    except ModelError:
        spec = None  # reducible chain: spectral diagnostics are unavailable
    # these diagnostics scale U_t by e^{lambda0 t}, which overflows past the double range
    if spec is not None and {"kernel_convergence", "gsd", "uniqueness"} & set(cfg.diagnostics):
        if spec.lambda0 * cfg.t_grid[-1] > _LOG_MAX:
            raise _fail_config(
                cfg.source, "t_grid", f"e^(lambda0 t) overflows: lambda0 = {spec.lambda0:.6g}, "
                f"so the largest usable t is {_LOG_MAX / spec.lambda0:.6g}")

    entries = {name: _DIAGNOSTICS[name] for name in cfg.diagnostics}
    skipped = {name: _NO_SPECTRAL if entry.spectral and spec is None
               else _NO_FAMILY if entry.family and fam is None else None
               for name, entry in entries.items()}
    readers = [name for name, entry in entries.items() if entry.read and not skipped[name]]
    k = len(cfg.t_grid)  # each U_t once, held ones first, then ascending; stored by grid index
    run = _Run(cfg, model, spec, fam, sigma, [None] * k, {name: [None] * k for name in readers})
    for i in sorted(range(k), key=lambda i: not model.holds(cfg.t_grid[i])):
        op = model.operator(cfg.t_grid[i])
        for name in readers:
            run.reads[name][i] = entries[name].read(run, i, op)
        run.ops[i] = Survivals(op.t, op.space, op.survival, op.dual_survival)
        del op  # before the next build: only the engine's rule keeps an operator
    for name, entry in entries.items():
        if skipped[name]:
            run.add_verdict(False, name, skipped[name])
        else:
            entry.report(run, name)

    out_dir = os.environ.get("QERGO_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.now().isoformat()
    paths = {
        "series": os.path.join(out_dir, "series.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "spectral": os.path.join(out_dir, "spectral.txt"),
        "verdict": os.path.join(out_dir, "verdict.txt"),
    }
    _write_csv(paths["series"], "model_id,diagnostic,t,value,extra", run.series_rows, stamp)
    _write_csv(paths["summary"], "model_id,diagnostic,rate,intercept,r2", run.summary_rows, stamp)
    with open(paths["spectral"], "w") as fh:
        if spec is not None:
            fh.write(spectral_to_text(spec))
        else:
            fh.write("# no spectral record: reducible chain\n")

    if cfg.mc is not None:
        paths["mc"] = os.path.join(out_dir, "mc.csv")
        _run_mc_block(run, paths["mc"], stamp)

    with open(paths["verdict"], "w") as fh:
        fh.write(f"# verdict {stamp}\n")
        fh.write(f"# config {cfg.source}\n")
        for key, val in sorted(cfg.verdicts.items()):
            fh.write(f"# default {key} = {val}\n")
        for ok, line in run.verdicts:
            fh.write(("PASS " if ok else "FAIL ") + line + "\n")
        fh.write(f"# overall {'PASS' if run.all_pass else 'FAIL'}\n")
    return run, paths, (0 if run.all_pass else 2)


def _report_heat_content(run, name):
    for op in run.ops:
        z = dg.heat_content(op)
        run.add_sample(name, op.t, z)
        z_dual = dg.heat_content(op, dual=True)
        run.add_verdict(
            abs(z - z_dual) <= 1e-10 * max(1.0, z),
            "heat_content_duality",
            f"t={_num(op.t)} |Z-Z*|={_num(abs(z - z_dual))}",
        )
        if isinstance(run.model, MarkovModel):
            bound = dg.heat_content_upper_bound(run.model, op.t)
            run.add_verdict(
                z <= bound * (1.0 + 1e-12),
                "heat_content_upper_bound",
                f"t={_num(op.t)} Z={_num(z)} bound={_num(bound)}",
            )


def _report_rate(run, name):
    samples = list(zip(run.cfg.t_grid, run.reads[name]))
    series = dg.DiagnosticSeries(name, samples)
    for t, v in series.samples:
        run.add_sample(name, t, v)
    if len(samples) < 4 or any(v <= 0 for _, v in samples):
        why = (f"{len(samples)} samples, a rate fit needs 4" if len(samples) < 4
               else "a sample is <= 0, a log-linear fit needs > 0")
        run.add_verdict(False, f"{name}_rate", f"SKIPPED: {why}")
        return
    rate, intercept, r2 = dg.fit_exponential_rate(series, run.cfg.verdicts["fit_tail"])
    run.add_fit(name, rate, intercept, r2)
    rel = abs(-rate - run.spec.gap) / run.spec.gap if run.spec.gap > 0 else np.inf
    run.add_verdict(
        rel <= run.cfg.verdicts["rate_tol"],
        f"{name}_rate",
        f"fitted={_num(-rate)} gap={_num(run.spec.gap)} rel_err={_num(rel)}",
    )


def _read_qsd(run, i, op):
    """find_qsd's measure and whether it warned (middle time), the residual (first, middle, last)."""
    mid, last = len(run.cfg.t_grid) // 2, len(run.cfg.t_grid) - 1
    found = res = None
    if i == mid:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonuniquenessWarning)
            fixed = dg.find_qsd(op)
        found = fixed, any(issubclass(w.category, NonuniquenessWarning) for w in caught)
    if run.spec is not None and i in (0, mid, last):
        res = dg.qsd_residual(dg.qsd_from_spectral(run.spec, op.space), op)
    return found, res


def _report_qsd(run, name):
    mid, last = len(run.cfg.t_grid) // 2, len(run.cfg.t_grid) - 1
    fixed, nonunique = run.reads[name][mid][0]
    if nonunique:
        run.add_verdict(False, "qsd_uniqueness", "NonuniquenessWarning: dominant eigenvalue degenerate")
    if run.spec is None:  # find_qsd needs no spectral data; the rest does
        run.add_verdict(False, name, _NO_SPECTRAL)
        return
    m = dg.qsd_from_spectral(run.spec, run.model.space)
    dist = float(np.abs(fixed.weights - m.weights).sum())
    if not nonunique:
        run.add_verdict(
            dist <= run.cfg.verdicts["match_tol"],
            "qsd_cross_method",
            f"L1(find_qsd, psi0-mu)={_num(dist)}",
        )
    for i in (0, mid, last):  # a short grid repeats a time
        t, res = run.cfg.t_grid[i], run.reads[name][i][1]
        run.add_sample("qsd_residual", t, res)
        run.add_verdict(res <= run.cfg.verdicts["qsd_tol"], "qsd_residual",
                        f"t={_num(t)} residual={_num(res)}")


def _report_gsd(run, name):
    spec, space = run.spec, run.model.space
    inv_sup_phi = 1.0 / float(spec.phi0.max())
    level = run.cfg.verdicts["gsd_level"]
    sat = float(np.sum(spec.psi0 * space.mu) / spec.Lambda)
    base = run.fam.base_point if run.fam is not None else space.points[0]
    for op in run.ops:
        prof = dg.gsd_profile(op, spec)
        run.add_sample("gsd_sup", op.t, float(prof.max()))
        run.add_verdict(
            bool(prof.min() >= inv_sup_phi * (1.0 - 1e-9)),
            "gsd_reverse_bound",
            f"t={_num(op.t)} min={_num(prof.min())} 1/sup(phi0)={_num(inv_sup_phi)}",
        )
        r = dg.pgsd_radius(prof, space, base, level * sat)
        run.add_sample("pgsd_radius", op.t, -1.0 if r is None else r, extra=f"C={_num(level * sat)}")
    certified, _ = dg.agsd_certificate(run.ops, spec, level)
    run.add_sample("gsd_certified", run.ops[-1].t, float(certified), extra=f"level={_num(level)}")


def _report_eta(run, name):
    gamma = run.cfg.diag_params[name].get("gamma", run.spec.gap)
    vals = []
    for t in run.cfg.t_grid:
        try:
            vals.append(dg.eta_function(run.spec, run.model.space, run.fam, gamma, t))
        except ValueError:
            vals.append(np.nan)
        if np.isfinite(vals[-1]):
            run.add_sample(name, t, vals[-1])
    finite = [v for v in vals if np.isfinite(v)]
    ok = all(a <= b + 1e-12 for a, b in zip(finite, finite[1:]))
    run.add_verdict(ok, "eta_monotone", f"values={[round(v, 6) for v in finite]}")


def _report_kappa(run, name):
    b, t0 = run.cfg.diag_params[name]["b"], run.cfg.diag_params[name]["t0"]
    # a t0 off the grid is asked of the engine after the pass, which may compose it
    op0 = {op.t: op for op in run.ops}.get(t0) or run.model.operator(t0)
    C, ok, detail = None, True, []
    for op, E in zip(run.ops, run.reads[name]):
        kb = dg.kappa_rate(op0, run.spec, run.fam, b, op.t)
        run.add_sample("kappa_b", op.t, kb, extra=f"E={_num(E)}")
        if C is None:
            C = E / kb
        elif E > C * kb * (1.0 + 1e-9):
            ok = False
        detail.append(f"t={op.t:g}:E/kb={E / kb:.3g}")
    run.add_verdict(ok, "kappa_progressive_bound", f"C={_num(C or 0)} " + " ".join(detail))


def _report_uniqueness(run, name):
    stable, sup = dg.uniqueness_condition_check(run.ops, run.spec)
    run.add_sample(name, run.ops[-1].t, sup)
    run.add_verdict(stable, "uniqueness_condition", f"sup={_num(sup)} stabilized={stable}")


class _Diagnostic(NamedTuple):
    """``report(run, name)`` writes samples, fits and verdicts after the grid
    pass; ``read(run, i, U_t)`` is what it takes of U_t at grid index i."""

    report: Callable
    read: Callable | None = None
    spectral: bool = True  # without spectral data, or a [family] when ``family``, it is SKIPPED
    family: bool = False


_DIAGNOSTICS = {
    "heat_content": _Diagnostic(_report_heat_content, spectral=False),
    "kernel_convergence": _Diagnostic(
        _report_rate, lambda run, i, op: dg.kernel_convergence_error(op, run.spec)),
    "quasi_ergodic": _Diagnostic(_report_rate, lambda run, i, op: dg.quasi_ergodic_error(
        op, run.spec, run.sigma, run.cfg.diag_params["quasi_ergodic"]["p"])),
    "qsd": _Diagnostic(_report_qsd, _read_qsd, spectral=False),  # find_qsd needs no spectral data
    "gsd": _Diagnostic(_report_gsd),
    "eta": _Diagnostic(_report_eta, family=True),
    "kappa": _Diagnostic(_report_kappa, family=True, read=lambda run, i, op: dg.progressive_error(
        op, run.spec, ball_indicator(op.space, run.fam, run.cfg.diag_params["kappa"]["a"] * op.t))),
    "uniqueness": _Diagnostic(_report_uniqueness),
}
DIAGNOSTIC_NAMES = tuple(_DIAGNOSTICS)

_MC_HEADER = "model_id,target,t,mean,stderr,n,seed"


def _mc_check(model, x0, op, n: int, seed: int):
    """Feynman-Kac estimate of U_t 1(x0) from n seeded paths, at the time of
    ``op``, against the matrix value: (estimate, target, mc.csv row)."""
    est = fk_estimate(model, x0, op.t, np.ones(model.n), n, seed)
    target = float(op.survival[model.space.index(x0)])
    return est, target, (model.label, "fk_survival", op.t, est.mean, est.stderr, n, seed)


def _run_mc_block(run, path, stamp):
    n, seed = run.cfg.mc["n"], run.cfg.mc["seed"]
    rows = []
    for op in run.ops:
        est, target, row = _mc_check(run.model, run.model.space.points[0], op, n, seed)
        rows.append(row)
        run.add_verdict(
            est.within(target),
            "mc_fk_vs_matrix",
            f"t={_num(op.t)} mc={_num(est.mean)}+-{_num(est.stderr)} matrix={_num(target)}",
        )
    _write_csv(path, _MC_HEADER, rows, stamp)


def list_models() -> str:
    lines = ["available zoo models:"]
    for name, schema in zoo.zoo_catalog():
        lines.append(f"  {name:12s} {schema}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qergo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    sub.add_parser("list-models", help="print zoo ids and parameter schemas")
    p_spec = sub.add_parser("spectral", help="print the spectral record of a model")
    p_spec.add_argument("model")
    p_spec.add_argument("-o", "--output")
    p_mc = sub.add_parser("mc", help="Monte Carlo cross-check of a model")
    p_mc.add_argument("model")
    p_mc.add_argument("--x0", default=None)
    p_mc.add_argument("--t", type=float, default=1.0)
    p_mc.add_argument("--n", default=argparse.SUPPRESS)  # --n and --seed are read by the [mc] rows
    p_mc.add_argument("--seed", default=argparse.SUPPRESS)
    p_mc.add_argument("-o", "--output")
    args = parser.parse_args(argv)

    try:
        if args.command == "list-models":
            print(list_models())
            return 0
        if args.command == "run":
            cfg = parse_config(args.config)
            run, paths, code = run_experiment(cfg)
            for ok, line in run.verdicts:
                print(("PASS " if ok else "FAIL ") + line)
            print(f"wrote {', '.join(sorted(paths.values()))}")
            return code
        if args.command == "spectral":
            spec = principal_triple(zoo.zoo_build(*parse_model_string(args.model)))
            text = spectral_to_text(spec)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                print(text, end="")
            return 0
        if args.command == "mc":
            try:
                given = {key: text for key, text in vars(args).items() if key in _KEYS["mc"]}
                mc = read_keys(_KEYS["mc"], given, "[mc]")
                check_batch(mc["n"], args.t)
            except BadKeyError as exc:
                raise ConfigError(f"--{exc.key}: {exc}") from None
            model_id, params = parse_model_string(args.model)
            if not zoo._zoo_entry(model_id).generator:
                raise ModelError(_MC_NEEDS.format(model_id))
            model = zoo.zoo_build(model_id, params)
            x0 = model.space.points[0] if args.x0 is None else _state(model.space, "--x0", args.x0)
            op = feynman_kac_operator(model, args.t)
            est, target, row = _mc_check(model, x0, op, mc["n"], mc["seed"])
            if args.output:
                _write_csv(args.output, _MC_HEADER, [row], datetime.now().isoformat())
            print(
                f"fk_survival t={args.t:g} mc={est.mean:.6g}+-{est.stderr:.2g} "
                f"matrix={target:.6g} agree3sigma={est.within(target)}"
            )
            return 0
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure distinct from FAIL verdicts
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
