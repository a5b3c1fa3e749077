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
from scipy.linalg import eig

from .errors import DegenerateSupportError, FitError, NonuniquenessWarning
from .operators import KernelOperator, MarkovModel
from .spectral import SpectralData, _positive_direction
from .statespace import ExhaustingFamily, StateSpace, ball_indicator, exhaustion_time

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
    "kernel_error_matrix",
    "kernel_convergence_error",
    "unif_conv_bound_matrix",
    "quasi_ergodic_error",
    "progressive_error",
    "asymptotic_projection_error",
    "gsd_profile",
    "pgsd_radius",
    "agsd_certificate",
    "ho_pgsd_radius",
    "eta_function",
    "survival_pair",
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


def heat_content(op: KernelOperator) -> float:
    """Z(t) = sum_x (U_t 1)(x) mu(x); identical for the adjoint operator."""
    mu = op.space.mu
    return float(mu @ op.density @ mu)


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
    evolved = (w @ op.density) * mu
    mass = evolved.sum()
    if mass <= 0:
        raise DegenerateSupportError("sigma(U_t 1) vanishes")
    return float(np.sum(np.abs(evolved / mass - w)))


def find_qsd(op: KernelOperator, tol: float = 1e-10) -> QuasiStationaryMeasure:
    """Normalized positive left fixed direction of the transition form of U_t.

    The two largest-modulus eigenvalues of the adjoint transition matrix come
    from ARPACK (``eigs``, k = 2) with a fixed start vector, or from a dense
    eig when n <= 3 or ARPACK fails (breakdown, or no convergence within 100
    restarts).  Emits NonuniquenessWarning when the dominant eigenvalue is not
    simple within ``tol`` (relative), in which case the returned measure is
    only one of several quasi-stationary candidates.  Otherwise a direction
    with mixed signs raises PositivityError.
    """
    T = op.transition()
    n = T.shape[0]
    w = None
    if n > 3:  # ARPACK needs k = 2 < n - 1
        from scipy.sparse.linalg import ArpackError, eigs

        # a fixed start vector keeps the result identical across repeats
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        try:
            w, vl = eigs(T.T, k=2, which="LM", v0=v0, maxiter=100)
        except ArpackError:
            pass  # no convergence (clustered spectrum) or breakdown: dense solver below
    if w is None:
        w, vl = eig(T, left=True, right=False)
    order = np.argsort(-np.abs(w))
    rho0 = abs(w[order[0]])
    if rho0 == 0:
        raise DegenerateSupportError("transition operator is nilpotent")
    v = vl[:, order[0]]
    if abs(w[order[1]]) >= rho0 * (1.0 - max(tol, 1e-12)):
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


def kernel_error_matrix(op: KernelOperator, spec: SpectralData) -> np.ndarray:
    """Pointwise defect |e^{lambda0 t} u_t(x,y) - phi0(x) psi0(y) / Lambda|."""
    target = np.outer(spec.phi0, spec.psi0) / spec.Lambda
    return np.abs(np.exp(spec.lambda0 * op.t) * op.density - target)


def kernel_convergence_error(op: KernelOperator, spec: SpectralData) -> float:
    """sup_{x,y} |e^{lambda0 t} u_t(x,y) - phi0(x) psi0(y) / Lambda|."""
    return float(kernel_error_matrix(op, spec).max())


def unif_conv_bound_matrix(
    model: MarkovModel, spec: SpectralData, t: float, s: float = 0.0, r: float = 0.0
) -> np.ndarray:
    """Shape matrix kappa(t,s,r,x,y) of the refined uniform-convergence bound.

    For s, r >= 0 with t - s - r > 0 this is
    e^{-gamma (t-s-r)} [e^{lambda0 s} U_s 1(x)] [e^{lambda0 r} U*_r 1(y)],
    where a factor degenerates to 1 when its time vanishes.  The measured
    kernel error is bounded by C * kappa for a single calibration constant C.
    """
    if s < 0 or r < 0 or t - s - r <= 0:
        raise ValueError("need s, r >= 0 and t - s - r > 0")
    n = model.n
    left = np.ones(n)
    right = np.ones(n)
    if s > 0:
        left = np.exp(spec.lambda0 * s) * model.semigroup.survival(s)
    if r > 0:
        right = np.exp(spec.lambda0 * r) * model.semigroup.dual_survival(r)
    return np.exp(-spec.gap * (t - s - r)) * np.outer(left, right)


def quasi_ergodic_error(op: KernelOperator, spec: SpectralData, sigma, p) -> float:
    """sup over ||f||_{L^p(mu)} <= 1 of |sigma(U_t f)/sigma(U_t 1) - m(f)|.

    Computed exactly as the dual L^q(mu) norm of the density difference
    between the survival-conditioned evolution of sigma and m.
    """
    w = _as_weights(sigma)
    mu = op.space.mu
    su = w @ op.density
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
    u = op.density[mask]
    m_density = spec.psi0 / np.sum(spec.psi0 * mu)
    return float((np.abs(u / (u @ mu)[:, None] - m_density[None, :]) @ mu).max())


def asymptotic_projection_error(op: KernelOperator, spec: SpectralData, sigma, f) -> float:
    """|e^{lambda0 t} sigma(U_t f) - (1/Lambda) sigma(phi0) sum f psi0 mu| for one f."""
    w = _as_weights(sigma)
    mu = op.space.mu
    fv = np.asarray(f, dtype=float)
    lhs = np.exp(spec.lambda0 * op.t) * float(w @ op.apply(fv))
    rhs = float(w @ spec.phi0) * float(np.sum(fv * spec.psi0 * mu)) / spec.Lambda
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# ground state domination


def gsd_profile(op: KernelOperator, spec: SpectralData) -> np.ndarray:
    """Domination profile x -> e^{lambda0 t} (U_t 1)(x) / phi0(x).

    aGSD holds at level C and time t when the profile's sup over all points
    is <= C; the pGSD radius at level C is the largest ball radius on which
    the sup stays <= C.
    """
    return _domination_profile(op.survival(), op.t, spec)


def _domination_profile(survival: np.ndarray, t: float, spec: SpectralData) -> np.ndarray:
    if np.any(spec.phi0 <= 0):
        raise ValueError("phi0 must be strictly positive")
    return np.exp(spec.lambda0 * t) * survival / spec.phi0


def pgsd_radius(
    profile: np.ndarray, space: StateSpace, base_point, C: float
) -> float | None:
    """Largest radius r with sup of the profile over B_r(base) <= C.

    Returns None when even the base point violates the level (void set).
    """
    d = space.dist[space.index(base_point)]
    order = np.argsort(d, kind="stable")
    ds, ps = d[order], profile[order]
    best = None
    running = -np.inf
    i = 0
    while i < len(ds):
        j = i
        while j < len(ds) and ds[j] == ds[i]:
            j += 1
        running = max(running, float(ps[i:j].max()))
        if running <= C:
            best = float(ds[i])
        else:
            break
        i = j
    return best


def agsd_certificate(model, spec: SpectralData, t_grid, level: float = 10.0) -> tuple[bool, float]:
    """Desk-scale asymptotic-domination certificate on a truncated window.

    On a finite window every semigroup is eventually dominated, and the
    profile sup relaxes toward its saturation value ||psi0||_1 / Lambda
    rather than growing without bound.  The measured signature of the aGSD
    regime is therefore that sup_x profile stays within ``level`` times the
    saturation value across the whole grid; models outside the regime exceed
    it by orders of magnitude over the same grid while their domination
    radius is still sweeping the window.  Any zoo model works, as only its
    semigroup's survival is read.  Returns (certified, worst ratio).
    """
    mu = model.space.mu
    saturation = float(np.sum(spec.psi0 * mu) / spec.Lambda)
    worst = 0.0
    for t in t_grid:
        prof = _domination_profile(model.semigroup.survival(t), t, spec)
        worst = max(worst, float(prof.max()) / saturation)
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
    family parameter s with h(s) >= e^{-gamma t}, located by bisection; when
    h never drops below the target the exhaustion time is returned.  Raises
    for t below the admissible range (target above h(t_min)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    both = np.minimum(spec.phi0, spec.psi0)

    def h(s: float) -> float:
        mask = ball_indicator(space, fam, s)
        return float(both[mask].min()) if mask.any() else np.inf

    target = np.exp(-gamma * t)
    if h(fam.t_min) < target:
        raise ValueError(
            "t below the admissible range: e^{-gamma t} exceeds h at t_min"
        )
    s_exh = exhaustion_time(space, fam)
    if h(s_exh) >= target:
        return s_exh
    lo, hi = fam.t_min, s_exh
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if h(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def survival_pair(model: MarkovModel, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """(U_t0 1, U*_t0 1) from the model's semigroup; reusable across kappa calls."""
    return model.semigroup.survival(t0), model.semigroup.dual_survival(t0)


def kappa_rate(
    model: MarkovModel,
    spec: SpectralData,
    fam: ExhaustingFamily,
    t0: float,
    b: float,
    t: float,
    survivals: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Progressive quasi-ergodicity rate

    kappa_b(t) = e^{-gamma b t} + sup_{x not in K_{bt}} U_t0 1(x)
                                + sup_{x not in K_{bt}} U*_t0 1(x),

    with empty-complement sups counted as 0.  ``survivals`` may carry a
    precomputed (U_t0 1, U*_t0 1) pair to amortize the exponential.
    """
    if not 0.0 < b < 0.5:
        raise ValueError("b must lie in (0, 1/2)")
    s, sd = survivals if survivals is not None else survival_pair(model, t0)
    outside = ~ball_indicator(model.space, fam, b * t)
    extra = float(s[outside].max() + sd[outside].max()) if outside.any() else 0.0
    return float(np.exp(-spec.gap * b * t) + extra)


def uniqueness_condition_check(
    model: MarkovModel, spec: SpectralData, t_grid
) -> tuple[bool, float]:
    """Boundedness probe of e^{lambda0 t} sup_x (U_t 1 + U*_t 1)(x) over a grid.

    Returns (stabilized, sup over the grid); stabilized means the last pair
    of consecutive values has ratio within 1e-3 of 1.
    """
    t_grid = list(t_grid)
    if len(t_grid) < 2:
        raise ValueError("need at least two grid times")
    sg = model.semigroup
    vals = [
        float(np.exp(spec.lambda0 * t) * np.max(sg.survival(t) + sg.dual_survival(t)))
        for t in t_grid
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
