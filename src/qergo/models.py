"""Model zoo: jump-chain models with duality, a discretized one-dimensional
fractional Schrodinger model, and the closed-form oscillator operator.

All zoo models share the unit-total-jump-rate convention: the generator of a
model is Q - I - diag(V) in model time, and a fractional model records the
rescale ``time_scale`` relating model time to physical time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gamma as _gamma_fn
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadKeyError, ClassifierError, ModelError
from .operators import Engine, KernelOperator, MarkovModel, _mehler_exponents
from .statespace import StateSpace

__all__ = [
    "PotentialSpec",
    "LevyProfile",
    "build_ctmc_model",
    "build_fractional_model",
    "build_ho_discretization",
    "OscillatorOracle",
    "regime_classifier",
    "lattice_space",
    "parse_model_string",
    "read_keys",
    "zoo_build",
    "zoo_catalog",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Killing potential profile evaluated on point coordinates.

    log-power: scale * (1 v log|x|)^beta, power: scale * (1 v |x|)^beta,
    constant: scale; confining kinds need beta > 0.  A per-point potential is
    an array, given to ``build_ctmc_model`` as V.
    """

    kind: str
    beta: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("log-power", "power", "constant"):
            raise ModelError(f"unknown potential kind {self.kind!r}")
        if self.kind in ("log-power", "power") and self.beta <= 0:
            raise ModelError("confining potentials need beta > 0")
        if self.scale <= 0:
            raise ModelError("scale must be positive")

    def evaluate(self, x) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        if self.kind == "log-power":
            return self.scale * np.maximum(1.0, np.log(np.maximum(ax, 1e-300))) ** self.beta
        if self.kind == "power":
            return self.scale * np.maximum(1.0, ax) ** self.beta
        return np.full_like(ax, self.scale)


def stable_constant(alpha: float, d: int = 1) -> float:
    """Normalizing constant of the isotropic alpha-stable jump density,
    nu(x) = c |x|^{-d-alpha}, matched to characteristic exponent |xi|^alpha."""
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * _gamma_fn((d + alpha) / 2.0)
        / (np.pi ** (d / 2.0) * _gamma_fn(1.0 - alpha / 2.0))
    )


@dataclass(frozen=True)
class LevyProfile:
    """Radial jump-density profile.

    polynomial: c(d, alpha) r^{-d-alpha} (e v r)^{-delta}, which for delta = 0
    is exactly the isotropic alpha-stable density; exponential:
    e^{-m r} (1 ^ r)^{-d-alpha} (1 v r)^{-delta} with delta > (d+1)/2.
    Only d = 1 is realized on lattices here.
    """

    kind: str
    alpha: float
    delta: float = 0.0
    m: float = 1.0

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise ModelError(f"unknown Levy profile kind {self.kind!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ModelError("alpha must lie in (0, 2)")
        if self.delta < 0:
            raise ModelError("delta must be nonnegative")
        if self.kind == "exponential":
            if self.m <= 0:
                raise ModelError("exponential profiles need m > 0")
            if self.delta <= 1.0:
                raise ModelError("exponential profiles need delta > (d+1)/2 = 1")

    def profile(self, r) -> np.ndarray:
        """f(r) for r > 0; nu(x) = f(|x|)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("profile is defined for r > 0")
        if self.kind == "polynomial":
            return (
                stable_constant(self.alpha)
                * r ** (-1.0 - self.alpha)
                * np.maximum(np.e, r) ** (-self.delta)
            )
        return (
            np.exp(-self.m * r)
            * np.minimum(1.0, r) ** (-1.0 - self.alpha)
            * np.maximum(1.0, r) ** (-self.delta)
        )


# ---------------------------------------------------------------------------
# CTMC zoo


def _metropolis_birth_death(mu: np.ndarray) -> np.ndarray:
    """Reversible nearest-neighbour chain on a path: propose +-1 with
    probability 1/2 each, accept with min(1, mu(to)/mu(from)); rejected or
    out-of-range proposals stay put."""
    n = len(mu)
    Q = np.zeros((n, n))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                Q[i, j] = 0.5 * min(1.0, mu[j] / mu[i])
        Q[i, i] = 1.0 - Q[i].sum()
    return Q


def _box_walk(d: int, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Lazy nearest-neighbour walk on {0..side-1}^d; missing neighbours at the
    boundary turn into holding mass."""
    coords = np.stack(
        np.meshgrid(*([np.arange(side)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)
    n = len(coords)
    Q = np.zeros((n, n))
    index = {tuple(c): i for i, c in enumerate(coords)}
    for i, c in enumerate(coords):
        for axis in range(d):
            for step in (-1, 1):
                cc = list(c)
                cc[axis] += step
                j = index.get(tuple(cc))
                if j is not None:
                    Q[i, j] = 1.0 / (2 * d)
        Q[i, i] = 1.0 - Q[i].sum()
    return Q, coords.astype(float)


# desk-scale state budget: no model holds more points; the zoo's n rows read it as their range
MAX_STATES = 2001
_IN_BUDGET = (lambda n: n <= MAX_STATES, f"<= {MAX_STATES}, the desk-scale state budget")


def _check_states(n: int) -> None:
    """Refuse a model of n points before any array is formed: a gap, rate or QSD needs 2."""
    if n < 2:
        raise ModelError(f"{n}-state model: a gap, rate or QSD needs at least 2 states")
    if not _IN_BUDGET[0](n):
        raise ModelError(f"{n} points exceed the desk-scale state budget of {MAX_STATES}")


def build_ctmc_model(n: int, q_spec, mu=None, V=None, label: str | None = None) -> MarkovModel:
    """Assemble a MarkovModel from a kernel recipe.

    Recipes: "swap2" (the canonical 2-state swap), "birth-death" (Metropolis
    path chain, reversible for the given mu), "box:d" (lazy walk on a box in
    Z^d with side^d = n), "complete", "cycle" (non-reversible rotation), or an
    explicit row-stochastic matrix.  The dual kernel is derived from the
    duality relation; a recipe/measure pair for which mu is not invariant is
    rejected as a ModelError, as is an n outside 2 ... MAX_STATES.
    """
    _check_states(n)
    mu_arr = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    if mu_arr.shape != (n,):
        raise ModelError(f"mu needs {n} values, got {mu_arr.size}")
    if not np.all((mu_arr > 0) & (mu_arr < np.inf)):
        raise ModelError("mu must be finite and > 0 at every point")
    coords = dist = None
    if isinstance(q_spec, str):
        recipe = q_spec
        if recipe == "swap2":
            if n != 2:
                raise ModelError("swap2 is a 2-state recipe")
            Q = np.array([[0.0, 1.0], [1.0, 0.0]])
            coords = np.array([[0.0], [1.0]])
        elif recipe == "birth-death":
            Q = _metropolis_birth_death(mu_arr)
            coords = (np.arange(n) - (n - 1) / 2.0)[:, None]
        elif recipe.startswith("box"):
            d = int(recipe.split(":", 1)[1]) if ":" in recipe else 1
            if d < 1:
                raise ModelError(f"a box needs dimension d >= 1, got {d}")
            side = round(n ** (1.0 / d))
            if side**d != n:
                raise ModelError(f"n={n} is not a {d}-dimensional box size")
            Q, coords = _box_walk(d, side)
            coords = coords - coords.mean(axis=0)
        elif recipe == "complete":
            Q = (np.ones((n, n)) - np.eye(n)) / (n - 1)
            dist = 1.0 - np.eye(n)  # discrete metric, no coordinates: potentials read at 0
        elif recipe == "cycle":
            Q = np.roll(np.eye(n), 1, axis=1)
        else:
            raise ModelError(f"unknown kernel recipe {q_spec!r}")
    else:
        Q = np.asarray(q_spec, dtype=float)
        if Q.shape != (n, n):
            raise ModelError("user matrix has the wrong shape")
    if coords is None and dist is None:
        coords = np.arange(n, dtype=float)[:, None]
    space = StateSpace(tuple(range(n)), mu_arr, coords, dist)
    if V is None:
        V_arr = np.zeros(n)
    elif isinstance(V, PotentialSpec):
        V_arr = V.evaluate(np.zeros(n) if coords is None else np.linalg.norm(space.coords, axis=1))
    else:
        V_arr = np.asarray(V, dtype=float)
    name = label or (q_spec if isinstance(q_spec, str) else "user")
    model = MarkovModel(space, Q, V_arr, label=name)
    if isinstance(q_spec, str) and not model.irreducible:
        raise ModelError(f"recipe {q_spec!r} produced a reducible chain")
    return model


# ---------------------------------------------------------------------------
# fractional lattice model


def lattice_space(half_width: float, h: float) -> StateSpace:
    """Symmetric 1D lattice {-K h, ..., K h}, mu = h per point, within the state budget."""
    for name, value in (("half_width", half_width), ("h", h)):
        if not (np.isfinite(value) and value > 0):
            raise ModelError(f"lattice {name} must be finite and positive, got {value!r}")
    K = int(round(half_width / h))
    _check_states(2 * K + 1)
    xs = (np.arange(-K, K + 1)) * h
    return StateSpace(tuple(range(len(xs))), np.full(len(xs), h), xs[:, None])


def _lattice_points(space: StateSpace) -> np.ndarray:
    """The points of an increasing 1-D lattice whose steps agree to relative 1e-12."""
    xs = np.zeros(1) if space.coords is None or space.coords.shape[1] != 1 else space.coords[:, 0]
    steps = np.diff(xs)
    if not (steps.size and steps.min() > 0 and steps.max() - steps.min() <= 1e-12 * steps.max()):
        raise ModelError("needs an increasing, equally spaced 1-D lattice of at least 2 points")
    _check_states(len(xs))
    return xs


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """T[i, j] = row[|i - j|], a read-only view of its 2n - 1 values."""
    return sliding_window_view(np.concatenate([row[::-1], row[1:]]), len(row))[::-1]


def build_fractional_model(
    grid: StateSpace | tuple, levy: LevyProfile, V: PotentialSpec
) -> MarkovModel:
    """Discretized 1D non-local Schrodinger model on a truncated lattice.

    Jump weights are w(x,y) = nu(y-x) h for y != x (profile at lattice
    differences; jumps below one lattice cell are absent by construction),
    a Toeplitz matrix of the profile at the offsets x_k - x_0 of an equally
    spaced 1-D lattice (else ModelError).  The weights are uniformized at the
    maximal total rate: Q(x,y) = w/rate_max off the diagonal with holding
    mass on it, so that a single recorded ``time_scale`` = rate_max maps model
    time to physical time exactly, and the stored potential is V/rate_max.
    """
    space = grid if isinstance(grid, StateSpace) else lattice_space(*grid)
    xs = _lattice_points(space)
    offsets = xs[1:] - xs[0]
    w = _toeplitz(np.concatenate([[0.0], levy.profile(offsets) * offsets[0]]))
    rates = w.sum(axis=1)
    rate_max = float(rates.max())
    Q = w / rate_max
    np.fill_diagonal(Q, 1.0 - rates / rate_max)
    V_arr = V.evaluate(xs) / rate_max
    return MarkovModel(
        space,
        Q,
        V_arr,
        time_scale=rate_max,
        label=f"frac({levy.kind},a={levy.alpha:g},d={levy.delta:g},{V.kind},b={V.beta:g})",
    )


def build_ho_discretization(grid: StateSpace | tuple, t: float) -> KernelOperator:
    """Closed-form oscillator operator: density u[x][y] = mehler_kernel(t,x,y)
    on an equally spaced 1-D lattice (else ModelError) with mu = spacing
    weights, the continuum oracle: the Hankel matrix e^{c - a (x+y)^2} at the
    sums x_0 + x_k, x_k + x_{n-1} times the Toeplitz e^{-b (x-y)^2} at x_k - x_0."""
    c, a, b = _mehler_exponents(t)
    space = grid if isinstance(grid, StateSpace) else lattice_space(*grid)
    xs = _lattice_points(space)
    sums = np.concatenate([xs[0] + xs, xs[1:] + xs[-1]])
    hankel = sliding_window_view(np.exp(c - a * sums**2), len(xs))
    u = hankel * _toeplitz(np.exp(-b * (xs - xs[0]) ** 2))
    return KernelOperator(t, u, space, {"method": "mehler-closed-form"})


class OscillatorOracle(Engine):
    """Kernel-only model of the oscillator on a lattice: it has a space, a
    label and ``operator(t)`` like a MarkovModel, but no Q, V or generator.
    It is its own engine of Mehler kernels, and holds one of them at a time.
    """

    label = "ho"

    def __init__(self, space: StateSpace):
        self.space = space

    @property
    def n(self) -> int:
        return self.space.n

    def _build(self, t: float) -> KernelOperator:
        return build_ho_discretization(self.space, t)


# ---------------------------------------------------------------------------
# regime classification


def regime_classifier(levy: LevyProfile, V: PotentialSpec) -> str:
    """Predicted large-|x| regime from the growth comparison of V against
    |log nu| (ground-state domination) and log|x| (heat content).

    Returns "aGSD", "non-aGSD-finite-Z" or "non-aGSD-infinite-Z"; the
    prediction is confirmed by profile diagnostics on the discretized model.
    """
    if V.kind not in ("log-power", "power"):
        raise ClassifierError("classification needs a confining potential profile")
    beta = V.beta
    if levy.kind == "polynomial":
        # |log nu| grows like log r
        agsd = beta >= 1.0 if V.kind == "log-power" else True
        if agsd:
            return "aGSD"
        # here V is log-power with beta < 1, so V/log r -> 0
        return "non-aGSD-infinite-Z"
    # exponential profile: |log nu| grows like r
    agsd = beta >= 1.0 if V.kind == "power" else False
    if agsd:
        return "aGSD"
    if V.kind == "power":
        return "non-aGSD-finite-Z"  # r^beta / log r diverges for beta > 0
    return "non-aGSD-finite-Z" if beta >= 1.0 else "non-aGSD-infinite-Z"


# ---------------------------------------------------------------------------
# key tables: a config section and a zoo id alike are read by rows of _Key


class _Key(NamedTuple):
    """A key: ``type`` reads its text, ``default`` stands in when it is left out (None: absent
    then, ...: required), and ``ok`` is its range as a test (nan fails every one) and ``words``."""

    type: Callable = str
    default: object = None
    ok: Callable = lambda v: True
    words: str = ""


_NOT_OF_TYPE = {float: "not a number", int: "not an integer"}


def read_keys(keys: dict, raw, where: str) -> dict:
    """``raw`` read by the rows of ``keys``, a table that messages call ``where``, each key left
    out at its default; a BadKeyError names a key that the table does not hold, a value not of
    its key's type or range, and a required key left out."""
    values = {}
    for key, text in raw.items():
        if key not in keys:
            raise BadKeyError(key, f"unknown key {key!r}; {where} has {', '.join(keys)}")
        kind = keys[key]
        try:
            values[key] = kind.type(text)
        except (TypeError, ValueError) as exc:
            msg = f"bad {key!r} value {text!r}: {_NOT_OF_TYPE.get(kind.type, exc)}"
            raise BadKeyError(key, msg) from None
        if not kind.ok(values[key]):
            raise BadKeyError(key, f"{key} must be {kind.words}, got {values[key]}")
    for key, kind in keys.items():
        if kind.default is ... and key not in values:
            raise BadKeyError(key, f"missing key {key!r}, a required parameter of {where}")
    return {key: kind.default for key, kind in keys.items() if kind.default is not None} | values


# ---------------------------------------------------------------------------
# zoo registry: one entry per id holds its ``list-models`` schema, its key
# table, a builder of the model from the values read and its compact form


def _floats(raw) -> np.ndarray:
    """Numbers given as a sequence or as one string, with spaces between the
    numbers and ';' between the rows of a matrix: mu, v and q alike."""
    if isinstance(raw, str):
        rows = [[float(x) for x in row.split()] for row in raw.split(";")]
        raw = rows if ";" in raw else rows[0]
    return np.array(raw, dtype=float)


_POTENTIAL = {"potential": _Key(), "beta": _Key(float), "scale": _Key(float)}


def _potential(v: dict, kind: str | None = None) -> PotentialSpec | None:
    """The profile of the potential/beta/scale values, None when none is given
    and ``kind`` does not default it."""
    if kind is None and not _POTENTIAL.keys() & v.keys():
        return None
    return PotentialSpec(v.get("potential", kind or "power"), v.get("beta", 1.0), v.get("scale", 1.0))


def _chain(recipe: str, label: str) -> Callable:
    """The builder of the n-state chain ``recipe`` labelled ``label(n)``."""
    return lambda v: build_ctmc_model(
        v["n"], recipe, mu=v.get("mu"), V=_potential(v), label=f"{label}({v['n']})")


class _ZooEntry(NamedTuple):
    """``build`` makes the model from the values that ``keys`` reads; ``args``
    names the keys that the compact form's positions fill, in order; a model
    without a ``generator`` is kernel-only, and Monte Carlo cannot run on it."""

    schema: str
    keys: dict
    build: Callable
    args: tuple = ()
    generator: bool = True


_CHAIN = {"n": _Key(int, ..., *_IN_BUDGET), **_POTENTIAL}
_ZOO = {
    "birthdeath": _ZooEntry(
        "birthdeath(n) [mu=..., potential kind/beta/scale]",
        {**_CHAIN, "mu": _Key(_floats)}, _chain("birth-death", "birthdeath"), ("n",)),
    "box": _ZooEntry(
        "box(d, n) lazy walk on a box in Z^d",
        {"d": _Key(int, 1, lambda v: v >= 1, ">= 1"), **_CHAIN},
        lambda v: build_ctmc_model(
            v["n"], f"box:{v['d']}", V=_potential(v), label=f"box({v['d']},{v['n']})"), ("d", "n")),
    "complete": _ZooEntry("complete(n) uniform jumps", _CHAIN, _chain("complete", "complete"), ("n",)),
    "cycle": _ZooEntry("cycle(n) non-reversible rotation", _CHAIN, _chain("cycle", "cycle"), ("n",)),
    "frac": _ZooEntry(
        "frac(alpha, delta, beta, kind) 1D fractional Schrodinger lattice",
        {"alpha": _Key(float, ...), "delta": _Key(float, 0.0), "kind": _Key(str, "polynomial"),
         **_POTENTIAL, "m": _Key(float, 1.0), "half_width": _Key(float, 50.0), "h": _Key(float, 0.25)},
        lambda v: build_fractional_model(
            (v["half_width"], v["h"]), LevyProfile(v["kind"], v["alpha"], v["delta"], v["m"]),
            # as in the two worked example families: polynomial with log-power, exponential with power
            _potential(v, "power" if v["kind"] == "exponential" else "log-power")),
        ("alpha", "delta", "beta", "kind"),
    ),
    "ho": _ZooEntry(
        "ho(half_width, h) closed-form oscillator kernel lattice",
        {"half_width": _Key(float, 8.0), "h": _Key(float, 0.05)},
        lambda v: OscillatorOracle(lattice_space(v["half_width"], v["h"])), ("half_width", "h"),
        generator=False),
    "swap2": _ZooEntry(
        "swap2 canonical 2-state swap",
        _POTENTIAL, lambda v: build_ctmc_model(2, "swap2", V=_potential(v), label="swap2")),
    "user": _ZooEntry(
        "user [q = rows separated by ';', mu = ..., v = ...]",
        {"q": _Key(_floats, ...), "mu": _Key(_floats), "v": _Key(_floats)},
        lambda v: build_ctmc_model(len(v["q"]), v["q"], mu=v.get("mu"), V=v.get("v"), label="user")),
}


def _zoo_entry(model_id: str) -> _ZooEntry:
    """The entry of ``model_id``; a BadKeyError on the ``id`` key when the zoo has none."""
    if model_id not in _ZOO:
        raise BadKeyError("id", f"unknown zoo id {model_id!r}; known: {', '.join(_ZOO)}")
    return _ZOO[model_id]


def zoo_catalog() -> list[tuple[str, str]]:
    """Stable-ordered (id, parameter schema) listing of the model zoo."""
    return [(model_id, entry.schema) for model_id, entry in sorted(_ZOO.items())]


def parse_model_string(text: str) -> tuple[str, dict]:
    """Compact zoo address ``id`` or ``id(arg, ...)``: swap2, birthdeath(20),
    box(2,25), frac(alpha,delta,beta,kind), ho(8,0.05).  The arguments fill
    the id's signature in order, each read by its key's row; ``zoo_build``
    gives the omitted ones their defaults or rejects them as missing."""
    text = text.strip()
    model_id, paren, rest = (s.strip() for s in text.partition("("))
    entry = _zoo_entry(model_id)
    if not paren:
        return model_id, {}
    args = [a.strip() for a in rest[:-1].split(",")] if rest[:-1].strip() else []
    if not rest.endswith(")") or len(args) > len(entry.args):
        raise ModelError(f"{text!r} does not match {model_id}({', '.join(entry.args)})")
    given = dict(zip(entry.args, args))
    try:
        return model_id, read_keys({key: entry.keys[key] for key in given}, given, text)
    except ModelError as exc:
        raise ModelError(f"{text!r}: {exc}") from None


def zoo_build(model_id: str, params: dict):
    """Build a zoo entry by id: a model with ``space``, ``label``, ``n`` and
    ``operator(t)``, each its own engine: a MarkovModel for every id but "ho",
    whose kernel-only OscillatorOracle has no generator.  ``params`` is read by
    the id's key table, so a key it does not hold, a required key left out or a
    value not of its key's type is a BadKeyError, raised before any build."""
    entry = _zoo_entry(model_id)
    return entry.build(read_keys(entry.keys, params, f"model {model_id!r}"))
