"""Kernel operators: uniformized transitions, Feynman-Kac exponentials and
the closed-form harmonic-oscillator (Mehler) kernel.

All kernel densities are stored with respect to the reference measure mu, so
that U_t f(x) = sum_y u_t(x, y) f(y) mu(y).  The transition form is
P_t(x, y) = u_t(x, y) mu(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, expm
from scipy.special import gammaln

from .errors import ModelError
from .statespace import StateSpace

__all__ = [
    "MarkovModel",
    "Semigroup",
    "KernelOperator",
    "dual_model",
    "uniformized_transition",
    "feynman_kac_operator",
    "adjoint",
    "compose",
    "identity_operator",
    "mehler_kernel",
    "log_mehler_kernel",
    "ho_survival",
    "log_ho_survival",
]

_STOCH_TOL = 1e-12
# Q_dual == Q within a few ulps of entries in [0, 1] marks a reversible model
_REV_TOL = 8 * np.finfo(float).eps
# relative floor of a non-reversible transition form: far below round-off, and
# the product of two entries above it is a normal number while max(P) > 2^-11
_FLOOR = 2.0**-500


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Generator data (Q, Q_dual, V) of a Feynman-Kac semigroup on a space.

    Q is the one-step jump matrix of a rate-1 continuous-time chain; the dual
    kernel satisfies mu(x) Q(x,y) = mu(y) Q_dual(y,x).  Both must be
    row-stochastic, which forces mu to be invariant for Q.  The generator
    acting on functions is G = Q - I - diag(V).
    """

    space: StateSpace
    Q: np.ndarray
    V: np.ndarray
    Q_dual: np.ndarray = field(default=None)  # type: ignore[assignment]
    time_scale: float = 1.0
    label: str = "model"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.space.n
        Q = np.asarray(self.Q, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if Q.shape != (n, n):
            raise ModelError("Q must be square over the state space")
        if np.any(Q < -_STOCH_TOL):
            raise ModelError("Q has negative entries")
        if np.max(np.abs(Q.sum(axis=1) - 1.0)) > _STOCH_TOL:
            raise ModelError("rows of Q must sum to 1 within 1e-12")
        if V.shape != (n,) or not np.all(np.isfinite(V)):
            raise ModelError("V must be one finite value per point")
        mu = self.space.mu
        Qd = self.Q_dual
        if Qd is None:
            Qd = (Q * mu[:, None]).T / mu[:, None]
        else:
            Qd = np.asarray(Qd, dtype=float)
        if np.max(np.abs(mu[:, None] * Q - (mu[:, None] * Qd).T)) > _STOCH_TOL:
            raise ModelError("duality identity mu(x)Q(x,y) = mu(y)Q_dual(y,x) violated")
        if np.max(np.abs(Qd.sum(axis=1) - 1.0)) > _STOCH_TOL:
            raise ModelError(
                "dual kernel is not stochastic: mu is not an invariant measure of Q"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Q_dual", Qd)
        for arr in (Q, V, Qd):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.space.n

    def generator(self) -> np.ndarray:
        """G = Q - I - diag(V), acting on functions."""
        return self.Q - np.eye(self.n) - np.diag(self.V)

    @cached_property
    def semigroup(self) -> "Semigroup":
        """The model's semigroup engine, built on first use and shared by all callers."""
        return Semigroup(self)

    def is_irreducible(self) -> bool:
        from scipy.sparse.csgraph import connected_components

        ncomp, _ = connected_components(self.Q > 0, directed=True, connection="strong")
        return ncomp == 1


def dual_model(model: MarkovModel) -> MarkovModel:
    """The model of the adjoint semigroup: jump kernel Q_dual, same V."""
    return MarkovModel(
        model.space,
        model.Q_dual,
        model.V,
        Q_dual=model.Q,
        time_scale=model.time_scale,
        label=model.label + "*",
        meta=dict(model.meta),
    )


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Kernel density u_t(x, y) of U_t with respect to mu, at a fixed time t."""

    t: float
    density: np.ndarray
    space: StateSpace
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.density, dtype=float)
        n = self.space.n
        if u.shape != (n, n):
            raise ValueError("density must be square over the state space")
        if np.any(u < -1e-14):
            raise ValueError("kernel density must be nonnegative")
        object.__setattr__(self, "density", u)
        u.setflags(write=False)

    def apply(self, f) -> np.ndarray:
        """U_t f(x) = sum_y u(x,y) f(y) mu(y)."""
        return self.density @ (np.asarray(f, float) * self.space.mu)

    def apply_adjoint(self, g) -> np.ndarray:
        """U*_t g(y) = sum_x u(x,y) g(x) mu(x)."""
        return self.density.T @ (np.asarray(g, float) * self.space.mu)

    def survival(self) -> np.ndarray:
        """U_t 1 per point."""
        return self.density @ self.space.mu

    def dual_survival(self) -> np.ndarray:
        """U*_t 1 per point."""
        return self.density.T @ self.space.mu

    def transition(self) -> np.ndarray:
        """Transition form P_t(x,y) = u(x,y) mu(y)."""
        return self.density * self.space.mu[None, :]

    def positivity_improving(self) -> bool:
        return bool(np.all(self.density > 0))


def _floored(P: np.ndarray) -> np.ndarray:
    """P, in place, clamped at 0 and with entries below 2^-500 max(P) zeroed."""
    np.maximum(P, 0.0, out=P)
    P[P < _FLOOR * P.max()] = 0.0
    return P


def _mu_symmetric_eigh(M: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, B) of a matrix M self-adjoint in L2(mu): ascending eigenvalues and
    L2(mu)-orthonormal eigenvectors B = D^{-1/2} W, from one eigh of the
    symmetric S = D^{1/2} M D^{-1/2} = W diag(w) W^T with D = diag(mu)."""
    r = np.sqrt(mu)
    S = r[:, None] * M / r[None, :]
    w, W = eigh(0.5 * (S + S.T), driver="evd")
    return w, W / r[:, None]


class Semigroup:
    """U_t = exp(tG) of one model for any t > 0, with no factorization repeated.

    Reversible models (Q_dual == Q, so G is self-adjoint in L2(mu)) take a
    single eigh of S = D^{1/2} G D^{-1/2} with D = diag(mu).  With
    S = W diag(w) W^T and B = D^{-1/2} W, the density is u_t = B e^{tw} B^T
    (one GEMM) and U_t 1 = B (e^{tw} B^T mu) (one GEMV).  The eigenvalue
    problem of a symmetric matrix is well conditioned, so this agrees with
    the exponential to round-off.

    Other models scale and square: with k the fewest halvings that bring
    t ||G||_1 below 1, the dense exponential of the unit-norm step
    (t / 2^k) G is squared k times.  Operators are memoized by t; a time that
    is the sum of two memoized times is instead their product, one GEMM, so
    an equally spaced ascending grid costs one exponential.  After the
    exponential, each squaring and each product, the transition form is
    clamped at 0 and entries below 2^-500 max(P) are zeroed.  That floor lies
    ~1e-135 below the exponential's normwise error eps max(P), so it drops
    nothing the error bound resolves, and it keeps the spatially decaying
    entries of a non-normal U_t out of the subnormal range, where x86
    arithmetic runs in slow microcode.
    """

    def __init__(self, model: MarkovModel):
        self.model = model
        self.reversible = bool(np.max(np.abs(model.Q_dual - model.Q)) <= _REV_TOL)
        self._expm: dict[float, KernelOperator] = {}

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, B): ascending eigenvalues of G and L2(mu)-orthonormal eigenvectors.

        Only reversible models have this factorization.
        """
        if not self.reversible:
            raise ValueError("only a reversible model has a symmetric spectrum")
        return _mu_symmetric_eigh(self.model.generator(), self.model.space.mu)

    def operator(self, t: float) -> KernelOperator:
        """U_t as a kernel operator, entries clamped at 0 against round-off."""
        if t <= 0:
            raise ValueError("t must be positive")
        space = self.model.space
        if self.reversible:
            w, B = self.spectrum
            u = np.maximum((B * np.exp(t * w)) @ B.T, 0.0)
            return KernelOperator(t, u, space, {"method": "eigh"})
        memo, key = self._expm, float(t)
        if key not in memo:
            s = next((s for s in memo if s < key and key - s in memo), None)
            if s is None:
                A = key * self.model.generator()
                k = max(math.frexp(np.linalg.norm(A, 1))[1], 0)  # ||A||_1 / 2^k < 1
                P = _floored(expm(A / 2.0**k))
                for _ in range(k):
                    P = _floored(P @ P)
            else:  # U_t = U_s U_{t-s}: one product of nonnegative memoized factors
                P = _floored(memo[s].transition() @ memo[key - s].transition())
            memo[key] = KernelOperator(t, P / space.mu[None, :], space, {"method": "expm"})
        return memo[key]

    def survival(self, t: float) -> np.ndarray:
        """U_t 1 per point."""
        if not self.reversible:
            return self.operator(t).survival()
        if t <= 0:
            raise ValueError("t must be positive")
        w, B = self.spectrum
        return B @ (np.exp(t * w) * (B.T @ self.model.space.mu))

    def dual_survival(self, t: float) -> np.ndarray:
        """U*_t 1 per point; equal to U_t 1 when u_t is symmetric."""
        if self.reversible:
            return self.survival(t)
        return self.operator(t).dual_survival()


def identity_operator(space: StateSpace) -> KernelOperator:
    """The t -> 0 limit: density I/mu, the unit for composition."""
    return KernelOperator(0.0, np.diag(1.0 / space.mu), space, {"method": "identity"})


def _poisson_terms(t: float, eps: float) -> int:
    """Smallest N with Poisson(t) tail mass above N below eps.

    Uses the survival-function quantile, which stays accurate where the naive
    running-sum of e^{-t} t^k/k! underflows for large t.
    """
    from scipy.stats import poisson

    N = int(poisson.isf(eps, t))
    while poisson.sf(N, t) >= eps:  # guard against quantile edge rounding
        N += 1
    return N


def uniformized_transition(model: MarkovModel, t: float, eps: float = 1e-14) -> KernelOperator:
    """Free transition operator P_t = e^{-t} sum_n t^n/n! Q^n, V ignored.

    The series is truncated once the neglected Poisson(t) tail mass drops
    below eps; the chosen order is recorded in the operator metadata.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    N = _poisson_terms(t, eps)
    n = model.n
    # log-space Poisson weights keep t^k/k! finite for large t
    P = np.zeros((n, n))
    M = np.eye(n)
    for k in range(N + 1):
        logw = -t + k * np.log(t) - gammaln(k + 1) if k > 0 else -t
        P += np.exp(logw) * M
        if k < N:
            M = M @ model.Q
    density = P / model.space.mu[None, :]
    return KernelOperator(
        t, density, model.space, {"method": "uniformized", "poisson_terms": N, "eps": eps}
    )


def feynman_kac_operator(model: MarkovModel, t: float) -> KernelOperator:
    """U_t = exp(t (Q - I - diag(V))) as a kernel operator, taken from the
    model's semigroup engine: one eigh per reversible model, a memoized
    exponential otherwise.  Raises ValueError for t <= 0."""
    return model.semigroup.operator(t)


def adjoint(op: KernelOperator) -> KernelOperator:
    """The L^2(mu)-adjoint: u*(x,y) = u(y,x)."""
    return KernelOperator(op.t, op.density.T.copy(), op.space, dict(op.meta))


def compose(op_s: KernelOperator, op_t: KernelOperator) -> KernelOperator:
    """Chapman-Kolmogorov product: u_{s+t}(x,y) = sum_z u_s(x,z) u_t(z,y) mu(z)."""
    a, b = op_s.space, op_t.space
    if a is not b and not (a.points == b.points and np.array_equal(a.mu, b.mu)):
        raise ValueError("operators live on different state spaces")
    u = (op_s.density * op_s.space.mu[None, :]) @ op_t.density
    return KernelOperator(op_s.t + op_t.t, u, op_s.space, {"method": "compose"})


def _pair_norms(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sq_plus = np.sum(np.atleast_1d(x + y) ** 2, axis=-1)
    sq_minus = np.sum(np.atleast_1d(x - y) ** 2, axis=-1)
    d = np.atleast_1d(x).shape[-1] if np.ndim(x) else 1
    return sq_plus, sq_minus, d


def log_mehler_kernel(t: float, x, y) -> np.ndarray | float:
    """log of the Mehler kernel; stable far from the origin."""
    if t <= 0:
        raise ValueError("t must be positive")
    sq_plus, sq_minus, d = _pair_norms(x, y)
    out = -0.5 * d * np.log(2.0 * np.pi * np.sinh(2.0 * t)) - 0.25 * (
        np.tanh(t) * sq_plus + sq_minus / np.tanh(t)
    )
    return out if out.shape else float(out)


def mehler_kernel(t: float, x, y) -> np.ndarray | float:
    """Heat kernel of the d-dimensional quantum harmonic oscillator,

    u_t(x,y) = (2 pi sinh 2t)^{-d/2} exp(-(tanh t |x+y|^2 + coth t |x-y|^2)/4).
    """
    return np.exp(log_mehler_kernel(t, x, y))


def log_ho_survival(t: float, x) -> np.ndarray | float:
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    sq = np.sum(np.atleast_1d(x) ** 2, axis=-1)
    d = np.atleast_1d(x).shape[-1] if np.ndim(x) else 1
    out = -0.5 * d * np.log(np.cosh(2.0 * t)) - 0.5 * sq * np.tanh(2.0 * t)
    return out if out.shape else float(out)


def ho_survival(t: float, x) -> np.ndarray | float:
    """U_t 1(x) = (cosh 2t)^{-d/2} exp(-|x|^2 / (2 coth 2t)) for the oscillator."""
    return np.exp(log_ho_survival(t, x))
