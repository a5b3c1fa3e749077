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
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from . import diagnostics as dg
from . import models as zoo
from .errors import ModelError, NonuniquenessWarning
from .models import MAX_PATH_STEPS, parse_model_string
from .montecarlo import fk_estimate
from .operators import MarkovModel, feynman_kac_operator
from .spectral import principal_triple, spectral_to_text
from .statespace import ExhaustingFamily, ball_indicator, tabulated_radius

DIAGNOSTIC_NAMES = (
    "heat_content",
    "kernel_convergence",
    "quasi_ergodic",
    "qsd",
    "gsd",
    "eta",
    "kappa",
    "uniqueness",
)

_FMT = ".17g"
_LOG_MAX = float(np.log(np.finfo(float).max))  # ~709.78


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model_id: str
    model_params: dict
    t_grid: list
    diagnostics: list
    diag_params: dict = field(default_factory=dict)
    family: dict | None = None  # its "radius" holds the law, read at parse
    verdicts: dict = field(default_factory=dict)
    mc: dict | None = None
    output_dir: str = "out"
    source: str = "<memory>"


# verdict tolerances: the default, and the range as a test (nan fails every one) and in words
_NONNEGATIVE = (lambda v: 0.0 <= v < np.inf, "finite and >= 0")
_TOLERANCES = {
    "qsd_tol": (1e-9, *_NONNEGATIVE), "match_tol": (1e-8, *_NONNEGATIVE),
    "rate_tol": (0.10, *_NONNEGATIVE), "fit_tail": (0.5, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "gsd_level": (10.0, lambda v: 0.0 < v < np.inf, "finite and > 0")}
# the numeric keys of each config section; those of [mc] are integers
_NUMBERS = {
    "diagnostics.kappa": ("a", "b", "t0"), "diagnostics.eta": ("gamma",),
    "diagnostics.quasi_ergodic": ("p",), "family": ("t_min",),
    "verdicts": tuple(_TOLERANCES), "mc": ("n", "seed"),
}
_MC_DEFAULTS = {"n": 10000, "seed": 0}


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
                elif text.split("=")[0].strip() == needle and section in (None, current):
                    return i
    except OSError:
        return None
    return None


def _fail_config(path: str, key: str, msg: str, section: str | None = None) -> ConfigError:
    line = _line_of(path, key, section)
    where = f"{path}:{line}" if line else path
    return ConfigError(f"{where}: {msg}")


def _section(cp: configparser.ConfigParser, path: str, name: str) -> dict:
    """Section ``name`` with its numeric keys converted; a value that is not
    a number of the key's type is a ConfigError naming its line."""
    values = dict(cp[name])
    kind, what = (int, "an integer") if name == "mc" else (float, "a number")
    for key in _NUMBERS.get(name, ()):
        if key in values:
            try:
                values[key] = kind(values[key])
            except ValueError:
                msg = f"bad {key} {values[key]!r}: not {what}"
                raise _fail_config(path, key, msg, name) from None
    return values


def _mc_problem(n: int, seed: int, t_max: float) -> tuple[str, str] | None:
    """(key, message) of the first out-of-range value of a Monte Carlo block
    of n paths to the horizon t_max, or None when all are in range."""
    if n < 2:
        return "n", f"mc needs n >= 2 paths, got {n}"
    if seed < 0:
        return "seed", f"mc needs a seed >= 0, got {seed}"
    if not 0.0 < t_max < np.inf:  # nan fails too
        return "t", f"mc needs a finite t > 0, got {t_max}"
    steps = max(t_max, 1.0)  # a path costs at least one step, however short its horizon
    if n * steps > MAX_PATH_STEPS:
        return "n", (f"{n} paths to t = {t_max:g} exceed the budget of {MAX_PATH_STEPS} path steps "
                     f"(n * max(t_max, 1)); the largest usable n is {int(MAX_PATH_STEPS // steps)}")
    return None


def parse_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"{path}: cannot read config file")
    if "model" not in cp or "id" not in cp["model"]:
        raise _fail_config(path, "model", "missing [model] section with an id")
    model_id = cp["model"]["id"]
    model_params = {k: v for k, v in cp["model"].items() if k != "id"}

    if "times" not in cp or "t_grid" not in cp["times"]:
        raise _fail_config(path, "t_grid", "missing [times] t_grid")
    try:
        t_grid = [float(v) for v in cp["times"]["t_grid"].split()]
    except ValueError as exc:
        raise _fail_config(path, "t_grid", f"bad t_grid: {exc}")
    if any(s >= t for s, t in zip(t_grid, t_grid[1:])) or not t_grid:
        raise _fail_config(path, "t_grid", "t_grid must be strictly increasing")
    if not all(0.0 < t < np.inf for t in t_grid):  # nan fails too
        raise _fail_config(path, "t_grid", "t_grid times must be finite and > 0")

    names = cp.get("diagnostics", "names", fallback="").split()
    for name in names:
        if name not in DIAGNOSTIC_NAMES:
            raise _fail_config(
                path, "names", f"unknown diagnostic {name!r}; known: {DIAGNOSTIC_NAMES}"
            )
    if "uniqueness" in names and len(t_grid) < 2:
        raise _fail_config(path, "t_grid", "uniqueness needs at least two grid times")
    sections = {name: _section(cp, path, name) for name in cp.sections()}
    diag_params = {name: sections.get(f"diagnostics.{name}", {}) for name in names}

    if "kappa" in diag_params:  # the split the run uses, defaults filled in
        kp = diag_params["kappa"]
        key = "b" if "b" in kp else "a"
        a = kp.setdefault("a", 1.0 / 3.0)
        b = kp.setdefault("b", (1.0 - a) / 2.0)
        kp.setdefault("t0", t_grid[0])
        if abs(a + 2.0 * b - 1.0) > 1e-12:
            raise _fail_config(
                path, key, f"kappa needs a + 2b = 1, got {a + 2 * b}", "diagnostics.kappa")
        if not 0.0 < b < 0.5:
            raise _fail_config(path, key, f"kappa needs b in (0, 1/2), got {b}", "diagnostics.kappa")
    for name, key in (("kappa", "t0"), ("eta", "gamma")):
        value = diag_params.get(name, {}).get(key, 1.0)
        if not 0.0 < value < np.inf:  # nan fails too
            raise _fail_config(
                path, key, f"{name} needs a finite {key} > 0, got {value}", f"diagnostics.{name}")
    if not diag_params.get("quasi_ergodic", {}).setdefault("p", np.inf) >= 1.0:  # nan fails too
        raise _fail_config(path, "p", "quasi_ergodic needs p >= 1 or inf", "diagnostics.quasi_ergodic")
    verdicts = sections.get("verdicts", {})
    for key, (_, in_range, what) in _TOLERANCES.items():
        if key in verdicts and not in_range(verdicts[key]):
            raise _fail_config(path, key, f"{key} must be {what}, got {verdicts[key]}", "verdicts")
    if (family := sections.get("family")) is not None:
        t_min = family.setdefault("t_min", 0.0)
        if not abs(t_min) < np.inf:  # nan fails too
            raise _fail_config(path, "t_min", f"t_min must be finite, got {t_min}", "family")
        if "kappa" in diag_params:  # kappa reads the balls K_{at} and K_{bt} at every grid time
            s_min = min(diag_params["kappa"]["a"], diag_params["kappa"]["b"]) * t_grid[0]
            if s_min < t_min:
                raise _fail_config(path, "t_min", f"t_min = {t_min} exceeds {s_min}, the smallest "
                                   "family parameter kappa reads (min(a, b) t_grid[0])", "family")
        family["radius"] = _radius_law(family.get("radius", "linear:1.0"), path)
    if (mc := sections.get("mc")) is not None:
        given, mc = set(mc), {**_MC_DEFAULTS, **mc}
        problem = _mc_problem(mc["n"], mc["seed"], t_grid[-1])
        if problem:  # a key left out takes its default; the [mc] line is named then
            key, msg = problem
            raise _fail_config(path, key if key in given else "mc", msg, "mc")

    return ExperimentConfig(
        model_id, model_params, t_grid, names, diag_params, family, verdicts, mc,
        cp.get("output", "dir", fallback="out"), source=path,
    )


def _nonnegative(x: str) -> float:
    v = float(x)
    if not 0.0 <= v < np.inf:  # nan fails too
        raise ValueError(f"{x} is not finite and >= 0: the law must be nondecreasing from 0 on")
    return v


def _radius_law(spec: str, path: str):
    """The radius law ``spec`` names; a ConfigError on the radius line unless
    it is nonnegative and nondecreasing, as an exhausting family needs."""
    kind, _, arg = spec.partition(":")
    try:
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
    except ValueError as exc:
        raise _fail_config(path, "radius", f"bad radius {spec!r}: {exc}", "family") from None


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
    spec = cfg.diag_params["quasi_ergodic"].get("sigma", "uniform")
    kind, _, arg = spec.partition(":")
    if kind == "point":
        return dg.point_mass(space, _state(space, "sigma", arg, cfg.source))
    if kind == "uniform":
        return np.full(space.n, 1.0 / space.n)
    raise _fail_config(cfg.source, "sigma", f"unknown sigma spec {spec!r}")


class _Report:
    """Collects series rows, summary rows and verdict lines for one run."""

    def __init__(self, model_label: str):
        self.label = model_label
        self.series_rows: list[tuple] = []
        self.summary_rows: list[tuple] = []
        self.verdicts: list[tuple[bool, str]] = []

    def add_sample(self, diagnostic: str, t: float, value: float, extra: str = ""):
        self.series_rows.append((self.label, diagnostic, t, value, extra))

    def add_fit(self, diagnostic: str, rate: float, intercept: float, r2: float):
        self.summary_rows.append((self.label, diagnostic, rate, intercept, r2))

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
    """Execute one experiment; returns (report, output paths, exit code)."""
    model = zoo.zoo_build(cfg.model_id, cfg.model_params)
    space = model.space
    # points named by the config are checked before any operator is built
    fam = _build_family(cfg, space)
    sigma = _parse_sigma(cfg, space) if "quasi_ergodic" in cfg.diagnostics else None
    if cfg.mc is not None and not isinstance(model, MarkovModel):
        raise _fail_config(cfg.source, "mc", "[mc]: needs a Markov generator; "
                           f"the {model.label} oracle is kernel-only")
    ops = [model.semigroup.operator(t) for t in cfg.t_grid]
    try:
        spec = principal_triple(model)
    except ModelError:
        spec = None  # reducible chain: spectral diagnostics are unavailable
    # these diagnostics scale U_t by e^{lambda0 t}, which overflows past the double range
    if spec is not None and {"kernel_convergence", "gsd", "uniqueness"} & set(cfg.diagnostics):
        if spec.lambda0 * cfg.t_grid[-1] > _LOG_MAX:
            raise _fail_config(
                cfg.source, "t_grid", f"e^(lambda0 t) overflows: lambda0 = {spec.lambda0:.6g}, "
                f"so the largest usable t is {_LOG_MAX / spec.lambda0:.6g}")

    report = _Report(model.label)
    rep_tols = {key: cfg.verdicts.get(key, default) for key, (default, *_) in _TOLERANCES.items()}

    for name in cfg.diagnostics:
        if name == "heat_content":
            _run_heat_content(report, model, ops)
        elif name == "qsd":
            _run_qsd(report, spec, ops, rep_tols)
        elif spec is None:
            report.add_verdict(False, name, "SKIPPED: no spectral data (reducible chain)")
        elif name == "kernel_convergence":
            _run_rate_series(
                report, name, [(op.t, dg.kernel_convergence_error(op, spec)) for op in ops],
                spec, rep_tols,
            )
        elif name == "quasi_ergodic":
            p = cfg.diag_params[name]["p"]
            samples = [(op.t, dg.quasi_ergodic_error(op, spec, sigma, p)) for op in ops]
            _run_rate_series(report, name, samples, spec, rep_tols)
        elif name == "gsd":
            _run_gsd(report, spec, fam, ops, rep_tols)
        elif name == "eta":
            _run_eta(report, spec, space, fam, cfg)
        elif name == "kappa":
            _run_kappa(report, model, spec, fam, ops, cfg)
        elif name == "uniqueness":
            stable, sup = dg.uniqueness_condition_check(ops, spec)
            report.add_sample(name, ops[-1].t, sup)
            report.add_verdict(stable, "uniqueness_condition", f"sup={_num(sup)} stabilized={stable}")

    out_dir = os.environ.get("QERGO_OUTPUT_DIR", cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.now().isoformat()
    paths = {
        "series": os.path.join(out_dir, "series.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "spectral": os.path.join(out_dir, "spectral.txt"),
        "verdict": os.path.join(out_dir, "verdict.txt"),
    }
    _write_csv(paths["series"], "model_id,diagnostic,t,value,extra", report.series_rows, stamp)
    _write_csv(paths["summary"], "model_id,diagnostic,rate,intercept,r2", report.summary_rows, stamp)
    with open(paths["spectral"], "w") as fh:
        if spec is not None:
            fh.write(spectral_to_text(spec))
        else:
            fh.write("# no spectral record: reducible chain\n")

    if cfg.mc is not None:
        paths["mc"] = os.path.join(out_dir, "mc.csv")
        _run_mc_block(report, model, ops, cfg, paths["mc"], stamp)

    with open(paths["verdict"], "w") as fh:
        fh.write(f"# verdict {stamp}\n")
        fh.write(f"# config {cfg.source}\n")
        for key, val in sorted(rep_tols.items()):
            fh.write(f"# default {key} = {val}\n")
        for ok, line in report.verdicts:
            fh.write(("PASS " if ok else "FAIL ") + line + "\n")
        fh.write(f"# overall {'PASS' if report.all_pass else 'FAIL'}\n")
    return report, paths, (0 if report.all_pass else 2)


def _run_heat_content(report, model, ops):
    for op in ops:
        z = dg.heat_content(op)
        report.add_sample("heat_content", op.t, z)
        z_dual = dg.heat_content(op, dual=True)
        report.add_verdict(
            abs(z - z_dual) <= 1e-10 * max(1.0, z),
            "heat_content_duality",
            f"t={_num(op.t)} |Z-Z*|={_num(abs(z - z_dual))}",
        )
        if isinstance(model, MarkovModel):
            bound = dg.heat_content_upper_bound(model, op.t)
            report.add_verdict(
                z <= bound * (1.0 + 1e-12),
                "heat_content_upper_bound",
                f"t={_num(op.t)} Z={_num(z)} bound={_num(bound)}",
            )


def _run_qsd(report, spec, ops, tols):
    mid = len(ops) // 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonuniquenessWarning)
        fixed = dg.find_qsd(ops[mid])
    nonunique = any(issubclass(w.category, NonuniquenessWarning) for w in caught)
    if nonunique:
        report.add_verdict(False, "qsd_uniqueness", "NonuniquenessWarning: dominant eigenvalue degenerate")
    if spec is None:
        return
    m = dg.qsd_from_spectral(spec, ops[mid].space)
    dist = float(np.abs(fixed.weights - m.weights).sum())
    if not nonunique:
        report.add_verdict(
            dist <= tols["match_tol"],
            "qsd_cross_method",
            f"L1(find_qsd, psi0-mu)={_num(dist)}",
        )
    for op in (ops[0], ops[mid], ops[-1]):
        res = dg.qsd_residual(m, op)
        report.add_sample("qsd_residual", op.t, res)
        report.add_verdict(res <= tols["qsd_tol"], "qsd_residual",
                           f"t={_num(op.t)} residual={_num(res)}")


def _run_rate_series(report, name, samples, spec, tols):
    series = dg.DiagnosticSeries(name, samples)
    for t, v in series.samples:
        report.add_sample(name, t, v)
    if len(samples) < 4 or any(v <= 0 for _, v in samples):
        why = (f"{len(samples)} samples, a rate fit needs 4" if len(samples) < 4
               else "a sample is <= 0, a log-linear fit needs > 0")
        report.add_verdict(False, f"{name}_rate", f"SKIPPED: {why}")
        return
    rate, intercept, r2 = dg.fit_exponential_rate(series, tols["fit_tail"])
    report.add_fit(name, rate, intercept, r2)
    rel = abs(-rate - spec.gap) / spec.gap if spec.gap > 0 else np.inf
    report.add_verdict(
        rel <= tols["rate_tol"],
        f"{name}_rate",
        f"fitted={_num(-rate)} gap={_num(spec.gap)} rel_err={_num(rel)}",
    )


def _run_gsd(report, spec, fam, ops, tols):
    space = ops[0].space
    inv_sup_phi = 1.0 / float(spec.phi0.max())
    level = tols["gsd_level"]
    sat = float(np.sum(spec.psi0 * space.mu) / spec.Lambda)
    base = fam.base_point if fam is not None else space.points[0]
    for op in ops:
        prof = dg.gsd_profile(op, spec)
        report.add_sample("gsd_sup", op.t, float(prof.max()))
        report.add_verdict(
            bool(prof.min() >= inv_sup_phi * (1.0 - 1e-9)),
            "gsd_reverse_bound",
            f"t={_num(op.t)} min={_num(prof.min())} 1/sup(phi0)={_num(inv_sup_phi)}",
        )
        r = dg.pgsd_radius(prof, space, base, level * sat)
        report.add_sample("pgsd_radius", op.t, -1.0 if r is None else r, extra=f"C={_num(level * sat)}")
    certified, _ = dg.agsd_certificate(ops, spec, level)
    report.add_sample("gsd_certified", ops[-1].t, float(certified), extra=f"level={_num(level)}")


def _run_eta(report, spec, space, fam, cfg):
    if fam is None:
        report.add_verdict(False, "eta", "SKIPPED: no [family] section")
        return
    gamma = cfg.diag_params["eta"].get("gamma", spec.gap)
    vals = []
    for t in cfg.t_grid:
        try:
            vals.append(dg.eta_function(spec, space, fam, gamma, t))
        except ValueError:
            vals.append(np.nan)
        if np.isfinite(vals[-1]):
            report.add_sample("eta", t, vals[-1])
    finite = [v for v in vals if np.isfinite(v)]
    ok = all(a <= b + 1e-12 for a, b in zip(finite, finite[1:]))
    report.add_verdict(ok, "eta_monotone", f"values={[round(v, 6) for v in finite]}")


def _run_kappa(report, model, spec, fam, ops, cfg):
    if fam is None:
        report.add_verdict(False, "kappa", "SKIPPED: no [family] section")
        return
    a, b, t0 = (cfg.diag_params["kappa"][key] for key in ("a", "b", "t0"))
    op0 = model.semigroup.operator(t0)  # asked after the grid, which may compose it
    C, ok, detail = None, True, []
    for op in ops:
        E = dg.progressive_error(op, spec, ball_indicator(op.space, fam, a * op.t))
        kb = dg.kappa_rate(op0, spec, fam, b, op.t)
        report.add_sample("kappa_b", op.t, kb, extra=f"E={_num(E)}")
        if C is None:
            C = E / kb
        elif E > C * kb * (1.0 + 1e-9):
            ok = False
        detail.append(f"t={op.t:g}:E/kb={E / kb:.3g}")
    report.add_verdict(ok, "kappa_progressive_bound", f"C={_num(C or 0)} " + " ".join(detail))


_MC_HEADER = "model_id,target,t,mean,stderr,n,seed"


def _mc_check(model, x0, op, n: int, seed: int):
    """Feynman-Kac estimate of U_t 1(x0) from n seeded paths, at the time of
    ``op``, against the matrix value: (estimate, target, mc.csv row)."""
    est = fk_estimate(model, x0, op.t, np.ones(model.n), n, seed)
    target = float(op.survival()[model.space.index(x0)])
    return est, target, (model.label, "fk_survival", op.t, est.mean, est.stderr, n, seed)


def _run_mc_block(report, model, ops, cfg, path, stamp):
    n, seed = cfg.mc["n"], cfg.mc["seed"]
    rows = []
    for op in ops:
        est, target, row = _mc_check(model, model.space.points[0], op, n, seed)
        rows.append(row)
        report.add_verdict(
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
    p_mc.add_argument("--n", type=int, default=_MC_DEFAULTS["n"])
    p_mc.add_argument("--seed", type=int, default=_MC_DEFAULTS["seed"])
    p_mc.add_argument("-o", "--output")
    args = parser.parse_args(argv)

    try:
        if args.command == "list-models":
            print(list_models())
            return 0
        if args.command == "run":
            cfg = parse_config(args.config)
            report, paths, code = run_experiment(cfg)
            for ok, line in report.verdicts:
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
            problem = _mc_problem(args.n, args.seed, args.t)
            if problem:
                raise ConfigError(f"--{problem[0]}: {problem[1]}")
            model = zoo.zoo_build(*parse_model_string(args.model))
            if not isinstance(model, MarkovModel):
                raise ModelError(f"mc needs a Markov model, not the {model.label} oracle")
            x0 = model.space.points[0] if args.x0 is None else _state(model.space, "--x0", args.x0)
            op = feynman_kac_operator(model, args.t)
            est, target, row = _mc_check(model, x0, op, args.n, args.seed)
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
    return 1


if __name__ == "__main__":
    sys.exit(main())
