"""Quasi-ergodicity diagnostics: heat content, kernel convergence error,
quasi-ergodic errors, ground-state-domination profiles, the eta and kappa_b
rate functions, and quasi-stationary-measure residuals.

Suprema over L^p unit balls are evaluated in closed form through the dual
L^q(mu) norm, so the reported errors are exact rather than lower bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSupportError, FitError, NonuniquenessWarning
from .operators import KernelOperator, MarkovModel, ModalOperator, _rows
from .spectral import _DEGEN_TOL, SpectralData, _arnoldi, _positive_direction, _top_two
from .statespace import ExhaustingFamily, StateSpace, _radius_crossing, ball_indicator, exhaustion_time

__all__ = [
    "DiagnosticSeries",
    "QuasiStationaryMeasure",
    "point_mass",
    "heat_content",
    "heat_content_upper_bound",
    "heat_content_limit",
    "qsd_from_spectral",
    "qsd_residual",
    "find_qsd",
    "kernel_limit",
    "kernel_convergence_error",
    "quasi_ergodic_error",
    "progressive_error",
    "gsd_profile",
    "pgsd_radius",
    "agsd_certificate",
    "ho_pgsd_radius",
    "eta_function",
    "kappa_rate",
    "uniqueness_condition_check",
    "fit_exponential_rate",
]


@dataclass
class DiagnosticSeries:
    """(t, value) samples of one diagnostic, with an optional fitted rate."""

    name: str
    samples: list = field(default_factory=list)
    fit: tuple | None = None

    def __post_init__(self):
        ts = [t for t, _ in self.samples]
        if any(s >= t for s, t in zip(ts, ts[1:])):
            raise ValueError("sample times must be strictly increasing")
        if not all(np.isfinite(v) for _, v in self.samples):
            raise ValueError("sample values must be finite")

    def append(self, t: float, value: float) -> None:
        if self.samples and t <= self.samples[-1][0]:
            raise ValueError("sample times must be strictly increasing")
        if not np.isfinite(value):
            raise ValueError("sample values must be finite")
        self.samples.append((float(t), float(value)))

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])


@dataclass(frozen=True, eq=False)
class QuasiStationaryMeasure:
    """Probability vector over states, tagged with how it was obtained."""

    weights: np.ndarray
    source: str = "user"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-14):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def point_mass(space: StateSpace, point) -> np.ndarray:
    w = np.zeros(space.n)
    w[space.index(point)] = 1.0
    return w


def _as_weights(sigma) -> np.ndarray:
    if isinstance(sigma, QuasiStationaryMeasure):
        return sigma.weights
    return np.asarray(sigma, dtype=float)


def _conjugate(p) -> float:
    p = np.inf if p in ("inf", np.inf) else float(p)
    if p < 1:
        raise ValueError("norm index p must lie in [1, inf]")
    if p == 1:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def _lq_norm(g: np.ndarray, mu: np.ndarray, q: float) -> float:
    if q == np.inf:
        return float(np.max(np.abs(g)))
    if q == 1.0:
        return float(np.sum(np.abs(g) * mu))
    return float(np.sum(np.abs(g) ** q * mu) ** (1.0 / q))


# ---------------------------------------------------------------------------
# heat content


def heat_content(op: KernelOperator, dual: bool = False) -> float:
    """Z(t) = <U_t 1, 1>_mu, or with ``dual`` the same number <1, U*_t 1>_mu
    summed in the other order: the operator's cached row or column sums."""
    return float((op.dual_survival if dual else op.survival) @ op.space.mu)


def heat_content_upper_bound(model: MarkovModel, t: float) -> float:
    """The potential-only bound Z(t) <= sum_x e^{-t V(x)} mu(x)."""
    return float(np.sum(np.exp(-t * model.V) * model.space.mu))


def heat_content_limit(spec: SpectralData, mu: np.ndarray) -> float:
    """Large-time constant ||phi0||_1 ||psi0||_1 / Lambda of e^{lambda0 t} Z(t)."""
    return float(np.sum(spec.phi0 * mu) * np.sum(spec.psi0 * mu) / spec.Lambda)


# ---------------------------------------------------------------------------
# quasi-stationary measures


def qsd_from_spectral(
    spec: SpectralData, space: StateSpace, adjoint: bool = False
) -> QuasiStationaryMeasure:
    """m = psi0 mu / ||psi0||_1, or m* = phi0 mu / ||phi0||_1 with the flag."""
    f = spec.phi0 if adjoint else spec.psi0
    w = f * space.mu
    return QuasiStationaryMeasure(w / w.sum(), source="from-psi0")


def qsd_residual(sigma, op: KernelOperator) -> float:
    """Worst quasi-stationarity defect over ||f||_inf <= 1 at the operator's time.

    Evaluates sum_y |nu(y) - sigma(y)| where nu is the normalized one-step
    evolution of sigma; zero within tolerance certifies quasi-stationarity.
    """
    w = _as_weights(sigma)
    mu = op.space.mu
    evolved = op.left(w) * mu
    mass = evolved.sum()
    if mass <= 0:
        raise DegenerateSupportError("sigma(U_t 1) vanishes")
    return float(np.sum(np.abs(evolved / mass - w)))


def find_qsd(op: KernelOperator) -> QuasiStationaryMeasure:
    """Normalized positive left fixed direction of the transition form u D of U_t.

    A self-adjoint U_t takes the two largest-modulus eigenvalues of
    S = D^{1/2} u D^{1/2} and S x0 from ``_top_two``, the kernel triple's block
    subspace iteration, which also finds both copies of a repeated one (two
    blocks with equal Perron roots); the left Perron vector of u D is D^{1/2} S x0.
    Any other U_t takes the two largest-modulus eigenvalues of the adjoint
    transition matrix from ``_arnoldi`` (k = 2), the non-reversible triple's
    Krylov solver, which raises NondegeneracyError past 400 steps.  Emits
    NonuniquenessWarning when the dominant eigenvalue is not simple within 1e-10
    (relative): the measure is then one of several quasi-stationary candidates.
    Otherwise a direction with mixed signs raises PositivityError.
    """
    if op.self_adjoint():
        r = np.sqrt(op.space.mu)
        w, Sx0 = _top_two(op, r)  # one Ritz value when n = 1
        v = r * Sx0
    else:
        w, v = _arnoldi(op.transition().T, 2)
    rho0 = abs(w[0])
    if rho0 == 0:
        raise DegenerateSupportError("transition operator is nilpotent")
    if len(w) > 1 and abs(w[1]) >= rho0 * (1.0 - _DEGEN_TOL):
        warnings.warn(
            "dominant transition eigenvalue is not simple; the quasi-stationary "
            "measure need not be unique",
            NonuniquenessWarning,
        )
        v = np.abs(np.real(v))  # one candidate of the dominant eigenspace
    else:
        v = _positive_direction(v, "quasi-stationary direction")
    return QuasiStationaryMeasure(v / v.sum(), source="from-fixed-point")


# ---------------------------------------------------------------------------
# convergence errors


def kernel_limit(
    spec: SpectralData, rows: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """The rows ``rows`` of the large-time limit phi0(x) psi0(y) / Lambda of
    e^{lambda0 t} u_t(x, y), written into ``out`` when it is given: psi0
    copied in, scaled by each phi0 row, then divided by Lambda: the two
    roundings of outer(phi0, psi0) / Lambda."""
    phi = spec.phi0[rows, None]
    if out is None:
        out = np.empty((len(phi), len(spec.psi0)))
    out[...] = spec.psi0
    out *= phi
    out /= spec.Lambda
    return out


def kernel_convergence_error(op: KernelOperator, spec: SpectralData) -> float:
    """sup_{x,y} |e^{lambda0 t} u_t(x,y) - phi0(x) psi0(y) / Lambda| at the time of ``op``.

    On a ``ModalOperator`` of the model whose triple is ``spec`` the difference
    is the positive semidefinite sum_{k>=1} e^{-(lambda_k - lambda0) t} b_k b_k^T
    over the kept modes, so |E_xy| <= sqrt(E_xx E_yy) and the sup is its
    largest diagonal entry, summed with no cancellation.  Otherwise each
    64-row block of the density, scaled, is compared with the same rows of
    ``kernel_limit`` in two preallocated 64 x n buffers.  No entry of a block
    exceeds max(s max u, max phi0 max psi0 / Lambda) + s max(0, -min u) in
    floating point (s = e^{lambda0 t}, phi0, psi0 >= 0), so blocks are read by
    descending bound and one at most the running sup is skipped: the value is
    the unblocked expression's bit for bit.  KernelOperator refuses nan; a nan
    density handed in otherwise gives nan.
    """
    scale = np.exp(spec.lambda0 * op.t)
    if isinstance(op, ModalOperator):
        return float((op.X[:, :-1] ** 2 @ (scale * op.c[:-1])).max(initial=0.0))
    u, phi, psi = op.density, spec.phi0, spec.psi0
    buf, lim = np.empty((64, len(phi))), np.empty((64, len(phi)))
    blocks = list(_rows(len(phi)))
    bound = np.array([max(scale * u[r].max(), phi[r].max() * psi.max() / spec.Lambda)
                      + scale * max(0.0, -u[r].min()) for r in blocks])
    if min(phi.min(), psi.min()) < 0 or not spec.Lambda > 0:
        bound[:] = np.inf  # a signed limit bounds nothing: every block is read
    sup = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if not bound[i] <= sup:  # a nan bound or sup visits every block
            rows = u[blocks[i]]
            diff = np.multiply(scale, rows, out=buf[:len(rows)])
            diff -= kernel_limit(spec, blocks[i], lim[:len(diff)])
            sup = np.maximum(sup, np.abs(diff, out=diff).max())
    return float(sup)


def quasi_ergodic_error(op: KernelOperator, spec: SpectralData, sigma, p) -> float:
    """sup over ||f||_{L^p(mu)} <= 1 of |sigma(U_t f)/sigma(U_t 1) - m(f)|.

    Computed exactly as the dual L^q(mu) norm of the density difference
    between the survival-conditioned evolution of sigma and m.
    """
    w = _as_weights(sigma)
    mu = op.space.mu
    su = op.left(w)
    mass = su @ mu
    if mass <= 0:
        raise DegenerateSupportError("sigma(U_t 1) vanishes")
    g = su / mass - spec.psi0 / np.sum(spec.psi0 * mu)
    return _lq_norm(g, mu, _conjugate(p))


def progressive_error(op: KernelOperator, spec: SpectralData, mask: np.ndarray) -> float:
    """Ball-restricted progressive error E(t): the sup over x in ``mask`` of
    ||u_t(x, .) / (U_t 1)(x) - m||_{L^1(mu)}, the L^inf quasi-ergodic error
    of the point masses at the masked points taken all at once."""
    mu = op.space.mu
    u = op.rows(mask)  # the one copy: divided, shifted and taken |.| in place
    u /= (u @ mu)[:, None]
    u -= spec.psi0 / np.sum(spec.psi0 * mu)
    return float((np.abs(u, out=u) @ mu).max())


# ---------------------------------------------------------------------------
# ground state domination


def gsd_profile(op: KernelOperator, spec: SpectralData) -> np.ndarray:
    """Domination profile x -> e^{lambda0 t} (U_t 1)(x) / phi0(x).

    aGSD holds at level C and time t when the profile's sup over all points
    is <= C; the pGSD radius at level C is the largest ball radius on which
    the sup stays <= C.
    """
    if np.any(spec.phi0 <= 0):
        raise ValueError("phi0 must be strictly positive")
    return np.exp(spec.lambda0 * op.t) * op.survival / spec.phi0


def pgsd_radius(
    profile: np.ndarray, space: StateSpace, base_point, C: float
) -> float | None:
    """Largest radius r with sup of the profile over B_r(base) <= C.

    Returns None when even the base point violates the level (void set).
    """
    d = space.distances(space.index(base_point))
    order = np.argsort(d, kind="stable")
    ds = d[order]
    # the sup over B_r is the running max up to the last point at distance r
    sup = np.maximum.accumulate(profile[order])[np.searchsorted(ds, ds, side="right") - 1]
    inside = ds[sup <= C]
    return float(inside[-1]) if inside.size else None


def agsd_certificate(ops, spec: SpectralData, level: float = 10.0) -> tuple[bool, float]:
    """Desk-scale asymptotic-domination certificate on a truncated window.

    On a finite window every semigroup is eventually dominated, and the
    profile sup relaxes toward its saturation value ||psi0||_1 / Lambda
    rather than growing without bound.  The measured signature of the aGSD
    regime is therefore that sup_x profile stays within ``level`` times the
    saturation value at the times of all the operators ``ops`` (a grid of
    U_t, or its ``Survivals``); models outside the regime exceed it by orders
    of magnitude over the same grid while their domination radius is still
    sweeping the window.  Returns (certified, worst ratio).
    """
    saturation = float(np.sum(spec.psi0 * ops[0].space.mu) / spec.Lambda)
    worst = max(float(gsd_profile(op, spec).max()) / saturation for op in ops)
    return worst <= level, worst


def ho_pgsd_radius(t: float, C: float, d: int) -> float | None:
    """Closed-form oscillator domination radius at level C and time t.

    Returns sqrt((e^{4t}+1)(log C - (d/2) log(2 sqrt(pi)) + (d/2) log(1+e^{-4t})))
    or None when the inner expression is negative (void region).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    inner = np.log(C) - 0.5 * d * np.log(2.0 * np.sqrt(np.pi)) + 0.5 * d * np.log1p(
        np.exp(-4.0 * t)
    )
    if inner < 0:
        return None
    return float(np.sqrt((np.exp(4.0 * t) + 1.0) * inner))


# ---------------------------------------------------------------------------
# progressive rates


def eta_function(
    spec: SpectralData,
    space: StateSpace,
    fam: ExhaustingFamily,
    gamma: float,
    t: float,
) -> float:
    """Generalized inverse matching the ground-state infimum to e^{-gamma t}.

    With h(s) = min(inf_{K_s} phi0, inf_{K_s} psi0), returns the largest
    family parameter s with h(s) >= e^{-gamma t}: the parameter at which the
    ball first reaches a point below the target, found by bisecting the
    radius law; when no point lies below the target the exhaustion time is
    returned.  Raises for t below the admissible range (target above h(t_min)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = space.distances(space.index(fam.base_point))
    below = d[np.minimum(spec.phi0, spec.psi0) < np.exp(-gamma * t)]
    if below.size and float(fam.radius_fn(fam.t_min)) >= below.min():
        raise ValueError("t below the admissible range: e^{-gamma t} exceeds h at t_min")
    s_exh = exhaustion_time(space, fam)
    if not below.size:
        return s_exh
    return _radius_crossing(fam, float(below.min()), fam.t_min, s_exh)[0]


def kappa_rate(
    op0: KernelOperator, spec: SpectralData, fam: ExhaustingFamily, b: float, t: float
) -> float:
    """Progressive quasi-ergodicity rate, with U_t0 the operator ``op0``,

    kappa_b(t) = e^{-gamma b t} + sup_{x not in K_{bt}} U_t0 1(x)
                                + sup_{x not in K_{bt}} U*_t0 1(x),

    with empty-complement sups counted as 0.
    """
    if not 0.0 < b < 0.5:
        raise ValueError("b must lie in (0, 1/2)")
    s, sd = op0.survival, op0.dual_survival
    outside = ~ball_indicator(op0.space, fam, b * t)
    extra = float(s[outside].max() + sd[outside].max()) if outside.any() else 0.0
    return float(np.exp(-spec.gap * b * t) + extra)


def uniqueness_condition_check(ops, spec: SpectralData) -> tuple[bool, float]:
    """Boundedness probe of e^{lambda0 t} sup_x (U_t 1 + U*_t 1)(x) at the
    times of the operators ``ops`` (a grid of U_t, or its ``Survivals``).

    Returns (stabilized, sup over the grid); stabilized means the last pair
    of consecutive values has ratio within 1e-3 of 1.
    """
    if len(ops) < 2:
        raise ValueError("need at least two grid times")
    vals = [
        float(np.exp(spec.lambda0 * op.t) * np.max(op.survival + op.dual_survival))
        for op in ops
    ]
    stabilized = abs(vals[-1] / vals[-2] - 1.0) <= 1e-3
    return stabilized, float(max(vals))


# ---------------------------------------------------------------------------
# rate fitting


def fit_exponential_rate(
    series: DiagnosticSeries, tail_fraction: float = 0.5
) -> tuple[float, float, float]:
    """Least-squares fit of log(value) against t over the tail of a series.

    Returns (rate, intercept, r_squared) and records it on the series.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    t = series.times()
    v = series.values()
    k = max(int(np.ceil(tail_fraction * len(v))), 4)
    if k > len(v):
        raise ValueError("fewer than 4 samples in the tail window")
    t, v = t[-k:], v[-k:]
    if np.any(v <= 0):
        raise FitError("nonpositive values in the fit window")
    y = np.log(v)
    A = np.vstack([t, np.ones_like(t)]).T
    (rate, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([rate, intercept])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-20 else 0.0)
    fit = (float(rate), float(intercept), float(r2))
    series.fit = fit
    return fit
