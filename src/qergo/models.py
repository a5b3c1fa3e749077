"""Model zoo: jump-chain models with duality, a discretized one-dimensional
fractional Schrodinger model, and the closed-form oscillator operator.

All zoo models share the unit-total-jump-rate convention: the generator of a
model is Q - I - diag(V) in model time, and a fractional model records the
rescale ``time_scale`` relating model time to physical time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from math import gamma as _gamma_fn
from typing import NamedTuple

import numpy as np

from .errors import ClassifierError, ModelError
from .operators import KernelOperator, MarkovModel, feynman_kac_operator, mehler_kernel
from .statespace import StateSpace

__all__ = [
    "PotentialSpec",
    "LevyProfile",
    "build_ctmc_model",
    "build_fractional_model",
    "check_djp",
    "build_ho_discretization",
    "OscillatorOracle",
    "regime_classifier",
    "lattice_space",
    "parse_model_string",
    "zoo_build",
    "zoo_catalog",
]


@dataclass(frozen=True)
class PotentialSpec:
    """Killing potential profile evaluated on point coordinates.

    log-power: scale * (1 v log|x|)^beta, power: scale * (1 v |x|)^beta;
    confining kinds need beta > 0.  ``table`` supplies explicit per-point
    values for kind == "custom-table".
    """

    kind: str
    beta: float = 1.0
    scale: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("log-power", "power", "constant", "custom-table"):
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
        if self.kind == "constant":
            return np.full_like(ax, self.scale)
        vals = np.asarray(self.table, dtype=float)
        if vals.shape != ax.shape:
            raise ModelError("custom-table length must match the point count")
        return vals


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


def build_ctmc_model(n: int, q_spec, mu=None, V=None, label: str | None = None) -> MarkovModel:
    """Assemble a MarkovModel from a kernel recipe.

    Recipes: "swap2" (the canonical 2-state swap), "birth-death" (Metropolis
    path chain, reversible for the given mu), "box:d" (lazy walk on a box in
    Z^d with side^d = n), "complete", "cycle" (non-reversible rotation), or an
    explicit row-stochastic matrix.  The dual kernel is derived from the
    duality relation; a recipe/measure pair for which mu is not invariant is
    rejected as a ModelError.
    """
    mu_arr = np.ones(n) if mu is None else np.asarray(mu, dtype=float)
    if mu_arr.shape != (n,):
        raise ModelError(f"mu needs {n} values, got {mu_arr.size}")
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
    if isinstance(q_spec, str) and not model.is_irreducible():
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
    if 2 * K + 1 > 2001:
        raise ModelError(f"lattice of {2 * K + 1} points exceeds the 2000-state desk-scale budget")
    xs = (np.arange(-K, K + 1)) * h
    return StateSpace(tuple(range(len(xs))), np.full(len(xs), h), xs[:, None])


def build_fractional_model(
    grid: StateSpace | tuple, levy: LevyProfile, V: PotentialSpec
) -> MarkovModel:
    """Discretized 1D non-local Schrodinger model on a truncated lattice.

    Jump weights are w(x,y) = nu(y-x) h for y != x (profile at lattice
    differences; jumps below one lattice cell are absent by construction).
    The weights are uniformized at the maximal total rate: Q(x,y) = w/rate_max
    off the diagonal with holding mass on it, so that a single recorded
    ``time_scale`` = rate_max maps model time to physical time exactly, and
    the stored potential is V/rate_max.
    """
    space = grid if isinstance(grid, StateSpace) else lattice_space(*grid)
    xs = space.coords[:, 0]
    diff = xs[None, :] - xs[:, None]
    off = ~np.eye(space.n, dtype=bool)
    w = np.zeros(off.shape)
    w[off] = levy.profile(np.abs(diff[off])) * (xs[1] - xs[0])
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
        meta={"levy": levy, "potential": V, "h": float(xs[1] - xs[0])},
    )


def physical_time_operator(model: MarkovModel, t_phys: float) -> KernelOperator:
    """Operator of the physical-time semigroup e^{t(rate (Q - I) - V_phys)}."""
    return feynman_kac_operator(model, model.time_scale * t_phys)


def check_djp(levy: LevyProfile, grid: StateSpace | tuple) -> float | None:
    """Direct-jump constant sup_x (f1 * f1)(x) h / f1(x) with f1 = f ^ 1.

    The convolution is scanned on the given lattice and again on a lattice of
    twice the range; None is returned when the constant keeps growing under
    the range extension (no stable DJP constant).
    """
    space = grid if isinstance(grid, StateSpace) else lattice_space(*grid)
    xs = space.coords[:, 0]
    h = xs[1] - xs[0]
    R = float(xs.max())

    def const(R_range: float) -> float:
        K = int(round(R_range / h))
        zs = np.arange(-K, K + 1) * h
        f1 = np.minimum(levy.profile(np.abs(np.where(zs == 0, h, zs))), 1.0)
        conv = np.convolve(f1, f1)[K : 3 * K + 1] * h
        # underflowed profile tails with surviving convolution mass are an
        # immediate divergence signal
        ratio = np.full_like(f1, 0.0)
        pos = f1 > 0
        ratio[pos] = conv[pos] / f1[pos]
        if np.any(~pos & (conv > 0)):
            return np.inf
        return float(ratio.max())

    c1, c2 = const(R), const(2.0 * R)
    if not np.isfinite(c2) or c2 > 1.10 * c1:
        return None
    return c2


def build_ho_discretization(grid: StateSpace | tuple, t: float) -> KernelOperator:
    """Closed-form oscillator operator: density u[x][y] = mehler_kernel(t,x,y)
    on a symmetric lattice with mu = spacing weights.  No exponentials are
    computed; this is the continuum oracle."""
    if t <= 0:
        raise ValueError("t must be positive")
    space = grid if isinstance(grid, StateSpace) else lattice_space(*grid)
    xs = space.coords[:, 0]
    u = mehler_kernel(t, xs[:, None, None], xs[None, :, None])
    return KernelOperator(t, u, space, {"method": "mehler-closed-form"})


class OscillatorOracle:
    """Kernel-only model of the oscillator on a lattice: it has a space, a
    label and a semigroup like a MarkovModel, but no Q, V or generator.

    It is its own engine: ``operator(t)`` is the Mehler-kernel operator,
    built once per t and kept for the oracle's lifetime, and ``survival(t)``
    its lattice row sums U_t 1.
    """

    label = "ho"

    def __init__(self, space: StateSpace):
        self.space = space
        self._ops: dict[float, KernelOperator] = {}

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def semigroup(self) -> "OscillatorOracle":
        return self

    def operator(self, t: float) -> KernelOperator:
        key = float(t)
        if key not in self._ops:
            self._ops[key] = build_ho_discretization(self.space, key)
        return self._ops[key]

    def survival(self, t: float) -> np.ndarray:
        """U_t 1 per point."""
        return self.operator(t).survival()


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
# zoo registry: one entry per id holds its ``list-models`` schema, the
# signature of its compact string form and a builder that pops the keys it takes


def _floats(raw) -> np.ndarray:
    """Numbers given as a sequence or as one string, with spaces between the
    numbers and ';' between the rows of a matrix: mu, v and q alike."""
    if isinstance(raw, str):
        rows = [[float(x) for x in row.split()] for row in raw.split(";")]
        raw = rows if ";" in raw else rows[0]
    return np.array(raw, dtype=float)


def _take(p: dict, key: str, kind=float, default=...):
    """Pop ``key`` converted by ``kind``; ``default`` when it is absent, which
    the default ``...`` marks as an error."""
    if key not in p:
        if default is ...:
            raise ModelError(f"needs a {key!r} parameter")
        return default
    raw = p.pop(key)
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ModelError(f"bad {key!r} value {raw!r}") from None


def _potential(p: dict) -> PotentialSpec | None:
    """The potential/beta/scale keys, if a kind or an exponent is given."""
    if "potential" not in p and "beta" not in p:
        return None
    kind = _take(p, "potential", str, "power")
    return PotentialSpec(kind, _take(p, "beta", float, 1.0), _take(p, "scale", float, 1.0))


def _build_chain(p, recipe: str, label: str, mu=None):
    """The n-state chain ``recipe`` labelled ``label(n)``."""
    n = _take(p, "n", int)
    return partial(build_ctmc_model, n, recipe, mu=mu, V=_potential(p), label=f"{label}({n})")


def _build_box(p):
    d, n = _take(p, "d", int, 1), _take(p, "n", int)
    return partial(build_ctmc_model, n, f"box:{d}", V=_potential(p), label=f"box({d},{n})")


def _build_frac(p):
    kind, alpha = _take(p, "kind", str, "polynomial"), _take(p, "alpha")
    levy = LevyProfile(kind, alpha, _take(p, "delta", float, 0.0), _take(p, "m", float, 1.0))
    grid = (_take(p, "half_width", float, 50.0), _take(p, "h", float, 0.25))
    pot = _potential(p)
    if pot is None:
        raise ModelError("needs a potential spec (potential or beta)")
    return partial(build_fractional_model, grid, levy, pot)


def _build_ho(p):
    grid = (_take(p, "half_width", float, 8.0), _take(p, "h", float, 0.05))
    return lambda: OscillatorOracle(lattice_space(*grid))


def _build_user(p):
    Q, mu, v = _take(p, "q", _floats), _take(p, "mu", _floats, None), _take(p, "v", _floats, None)
    return partial(build_ctmc_model, len(Q), Q, mu=mu, V=v, label="user")


class _ZooEntry(NamedTuple):
    """``build`` pops the keys it takes and returns the model's constructor,
    which ``zoo_build`` calls once no key is left over.  ``args`` names the
    compact form's positions with their types, and ``build`` decides which
    are required; ``implied`` adds the parameters the given ones entail."""

    schema: str
    build: Callable
    args: tuple = ()
    implied: Callable = lambda args: {}


_ZOO = {
    "birthdeath": _ZooEntry(
        "birthdeath(n) [mu=..., potential kind/beta/scale]",
        lambda p: _build_chain(p, "birth-death", "birthdeath", _take(p, "mu", _floats, None)),
        (("n", int),),
    ),
    "box": _ZooEntry("box(d, n) lazy walk on a box in Z^d", _build_box, (("d", int), ("n", int))),
    "complete": _ZooEntry(
        "complete(n) uniform jumps", lambda p: _build_chain(p, "complete", "complete"), (("n", int),)
    ),
    "cycle": _ZooEntry(
        "cycle(n) non-reversible rotation", lambda p: _build_chain(p, "cycle", "cycle"), (("n", int),)
    ),
    "frac": _ZooEntry(
        "frac(alpha, delta, beta, kind) 1D fractional Schrodinger lattice",
        _build_frac,
        (("alpha", float), ("delta", float), ("beta", float), ("kind", str)),
        # each kind's potential follows the two worked example families:
        # polynomial with log-power, exponential with power
        lambda args: {"potential": "power" if args.get("kind") == "exponential" else "log-power"},
    ),
    "ho": _ZooEntry(
        "ho(half_width, h) closed-form oscillator kernel lattice",
        _build_ho,
        (("half_width", float), ("h", float)),
    ),
    "swap2": _ZooEntry(
        "swap2 canonical 2-state swap",
        lambda p: partial(build_ctmc_model, 2, "swap2", V=_potential(p), label="swap2"),
    ),
    "user": _ZooEntry("user [q = rows separated by ';', mu = ..., v = ...]", _build_user),
}


def _zoo_entry(model_id: str) -> _ZooEntry:
    if model_id not in _ZOO:
        raise ModelError(f"unknown zoo id {model_id!r}")
    return _ZOO[model_id]


def zoo_catalog() -> list[tuple[str, str]]:
    """Stable-ordered (id, parameter schema) listing of the model zoo."""
    return [(model_id, entry.schema) for model_id, entry in sorted(_ZOO.items())]


def parse_model_string(text: str) -> tuple[str, dict]:
    """Compact zoo address ``id`` or ``id(arg, ...)``: swap2, birthdeath(20),
    box(2,25), frac(alpha,delta,beta,kind), ho(8,0.05).  The arguments fill
    the id's signature in order; ``zoo_build`` gives the omitted ones their
    defaults or rejects them as missing."""
    text = text.strip()
    model_id, paren, rest = (s.strip() for s in text.partition("("))
    entry = _zoo_entry(model_id)
    if not paren:
        return model_id, {}
    args = [a.strip() for a in rest[:-1].split(",")] if rest[:-1].strip() else []
    names = [name for name, _ in entry.args]
    if not rest.endswith(")") or len(args) > len(names):
        raise ModelError(f"{text!r} does not match {model_id}({', '.join(names)})")
    given = dict(zip(names, args))
    try:
        params = {name: _take(given, name, kind) for name, kind in entry.args[: len(args)]}
    except ModelError as exc:
        raise ModelError(f"{text!r}: {exc}") from None
    return model_id, {**params, **entry.implied(params)}


def zoo_build(model_id: str, params: dict):
    """Build a zoo entry by id: a model with ``space``, ``label``, ``n`` and
    ``semigroup``, a MarkovModel for every id but "ho", whose kernel-only
    OscillatorOracle has no generator.  A key that the entry's builder does
    not take is a ModelError, raised before any build."""
    entry = _zoo_entry(model_id)
    p = dict(params)
    try:
        construct = entry.build(p)
        if p:
            raise ModelError(f"unknown parameter(s) {', '.join(map(repr, sorted(p)))}")
    except ModelError as exc:
        raise ModelError(f"model {model_id!r}: {exc}") from None
    return construct()
