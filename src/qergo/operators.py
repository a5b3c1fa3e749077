"""Kernel operators: Feynman-Kac exponentials and the closed-form
harmonic-oscillator (Mehler) kernel.

All kernel densities are stored with respect to the reference measure mu, so
that U_t f(x) = sum_y u_t(x, y) f(y) mu(y).  The transition form is
P_t(x, y) = u_t(x, y) mu(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ModelError
from .statespace import StateSpace

__all__ = [
    "MarkovModel",
    "strongly_connected",
    "Engine",
    "Semigroup",
    "KernelOperator",
    "feynman_kac_operator",
    "compose",
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over two arrays of one shape, taken 64 rows at a time so
    that no temporary is larger than a block; nan when an entry is nan."""
    blocks = (a[i:i + 64] - b[i:i + 64] for i in range(0, len(a), 64))
    return float(np.max([np.abs(d, out=d).max(initial=0.0) for d in blocks], initial=0.0))


def strongly_connected(adj: np.ndarray) -> bool:
    """Whether every state reaches every other along the boolean adjacency ``adj``:
    a breadth-first search from state 0 along ``adj`` and along its transpose."""
    for a in (adj, adj.T):
        seen = np.zeros(adj.shape[0], dtype=bool)
        frontier = np.array([0])
        while frontier.size:
            seen[frontier] = True
            frontier = np.flatnonzero(a[frontier].any(axis=0) & ~seen)
        if not seen.all():
            return False
    return True


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Generator data (Q, V) of a Feynman-Kac semigroup on a space.

    Q is the one-step jump matrix of a rate-1 continuous-time chain.  The
    dual kernel ``Q_dual`` = D^{-1} Q^T D, D = diag(mu), is derived from the
    duality relation mu(x) Q(x,y) = mu(y) Q_dual(y,x); both must be
    row-stochastic, which forces mu to be invariant for Q.  The generator
    acting on functions is G = Q - I - diag(V).
    """

    space: StateSpace
    Q: np.ndarray
    V: np.ndarray
    time_scale: float = 1.0
    label: str = "model"

    def __post_init__(self):
        n = self.space.n
        Q = np.asarray(self.Q, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if Q.shape != (n, n) or not np.all(np.isfinite(Q)):
            raise ModelError("Q must be square over the state space, with finite entries")
        if np.any(Q < -_STOCH_TOL):
            raise ModelError("Q has negative entries")
        if np.max(np.abs(Q.sum(axis=1) - 1.0)) > _STOCH_TOL:
            raise ModelError("rows of Q must sum to 1 within 1e-12")
        if V.shape != (n,) or not np.all(np.isfinite(V)):
            raise ModelError("V must be one finite value per point")
        mu = self.space.mu
        Qd = (Q * mu[:, None]).T / mu[:, None]
        if np.max(np.abs(Qd.sum(axis=1) - 1.0)) > _STOCH_TOL:
            raise ModelError("dual kernel is not stochastic: mu is not an invariant measure of Q")
        object.__setattr__(self, "Q", _read_only(Q))
        object.__setattr__(self, "V", _read_only(V))
        object.__setattr__(self, "Q_dual", _read_only(Qd))

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
        """Whether the jump graph Q > 0 is strongly connected, found once per model."""
        return self._irreducible

    @cached_property
    def _irreducible(self) -> bool:
        return strongly_connected(self.Q > 0)


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
        object.__setattr__(self, "density", _read_only(u))

    def apply(self, f) -> np.ndarray:
        """U_t f(x) = sum_y u(x,y) f(y) mu(y)."""
        return self.density @ (np.asarray(f, float) * self.space.mu)

    def apply_adjoint(self, g) -> np.ndarray:
        """U*_t g(y) = sum_x u(x,y) g(x) mu(x)."""
        return self.density.T @ (np.asarray(g, float) * self.space.mu)

    def survival(self) -> np.ndarray:
        """U_t 1 per point, formed on first use and read-only."""
        return self._survival

    def dual_survival(self) -> np.ndarray:
        """U*_t 1 per point, formed on first use and read-only."""
        return self._dual_survival

    @cached_property
    def _survival(self) -> np.ndarray:
        return _read_only(self.density @ self.space.mu)

    @cached_property
    def _dual_survival(self) -> np.ndarray:
        return _read_only(self.density.T @ self.space.mu)

    def transition(self) -> np.ndarray:
        """Transition form P_t(x,y) = u(x,y) mu(y)."""
        return self.density * self.space.mu[None, :]

    def positivity_improving(self) -> bool:
        return bool(np.all(self.density > 0))

    def self_adjoint(self) -> bool:
        """Whether the density is symmetric within a few ulps of its largest entry."""
        u = self.density
        return bool(_max_abs_diff(u, u.T) <= _REV_TOL * max(u.max(), -u.min()))


def _floored(P: np.ndarray) -> np.ndarray:
    """P, in place, clamped at 0 and with entries below 2^-500 max(P) zeroed."""
    np.maximum(P, 0.0, out=P)
    P[P < _FLOOR * P.max()] = 0.0
    return P


def _symmetric_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, W): ascending eigenvalues and orthonormal eigenvectors of the
    symmetric S.

    When S equals its index reversal J S J within _REV_TOL max |S|, S maps the
    even vectors (x, y, Jx) and the odd ones (x, 0, -Jx) to themselves (y is
    the centre entry when n is odd).  Their coordinates give two blocks of
    about n/2: even A + BJ, bordered by sqrt2 S[:h, h] and S[h, h] when n is
    odd, and odd A - BJ, with A = S[:h, :h] and BJ = S[:h, n-h:] J.  Their two
    eigh cost about a quarter of one n x n eigh.  Eigenvalues tied across the
    two blocks are taken even first.  Any other S takes one eigh.
    """
    if _max_abs_diff(S, S[::-1, ::-1]) > _REV_TOL * max(S.max(), -S.min()):
        return np.linalg.eigh(S)
    n = S.shape[0]
    h, mid = divmod(n, 2)
    A, BJ = S[:h, :h], S[:h, n - h:][:, ::-1]
    even = A + BJ
    if mid:
        s = np.sqrt(2.0) * S[:h, h:h + 1]
        even = np.block([[even, s], [s.T, S[h:h + 1, h:h + 1]]])
    we, Ue = np.linalg.eigh(even)
    wo, Uo = np.linalg.eigh(A - BJ)
    w = np.concatenate([we, wo])
    order = np.argsort(w, kind="stable")
    top = np.hstack([Ue[:h], Uo]) / np.sqrt(2.0)
    W = np.vstack([top, np.hstack([Ue[h:], np.zeros((mid, h))]),
                   top[::-1] * np.repeat([1.0, -1.0], [h + mid, h])])
    return w[order], W[:, order]


def _exp_step(S: np.ndarray) -> np.ndarray:
    """e^S for a step S with off-diagonal entries >= 0, as the series
    e^{-c} sum_{j<=N} B^j / j! of B = S + cI >= 0, c = -min diag S.

    Every term is >= 0, so each entry is accurate, not only the norm (Xue &
    Ye, Numer. Math. 2008).  N is the first order whose term bound
    ||B||_1^N / N! is below eps/10 of the partial sum of those bounds.  The
    sum is taken Paterson-Stockmeyer style: Horner's rule in B^s over blocks
    of the powers B^0 ... B^{s-1}, s = floor(sqrt N), which is s - 1 + N // s
    products (8 at ||B||_1 = 2).
    """
    n = len(S)
    c = -S.diagonal().min()
    B = S + c * np.eye(n)
    b, bounds = np.linalg.norm(B, 1), [1.0]  # b^j / j!
    while bounds[-1] > 0.1 * np.finfo(float).eps * sum(bounds):
        bounds.append(bounds[-1] * b / len(bounds))
    N = len(bounds) - 1
    s = max(math.isqrt(N), 1)
    powers = [np.eye(n), B]
    for _ in range(s - 1):
        powers.append(powers[-1] @ B)
    P = None
    for i in range(N // s, -1, -1):
        C = sum(powers[j] / math.factorial(i * s + j) for j in range(min(s, N - i * s + 1)))
        P = C if P is None else P @ powers[s] + C
    return math.exp(-c) * P


class Engine:
    """U_t of one model for any t > 0, built by the subclass hook ``_build(t)``
    once per t and kept for the engine's lifetime, keyed in the order asked."""

    @cached_property
    def _ops(self) -> dict[float, KernelOperator]:
        return {}

    def operator(self, t: float) -> KernelOperator:
        if t <= 0:
            raise ValueError("t must be positive")
        key = float(t)
        if key not in self._ops:
            self._ops[key] = self._build(key)
        return self._ops[key]


class Semigroup(Engine):
    """U_t = exp(tG) of one model, entries clamped at 0, no factorization repeated.

    Reversible models (Q_dual == Q, so G is self-adjoint in L2(mu)) take one
    eigh of S = D^{1/2} G D^{-1/2} with D = diag(mu), or two of half its size
    when S commutes with the index reversal (``_symmetric_eigh``): a lattice
    symmetric about its centre with an even potential and measure, as are all
    the shipped reversible models.  The spectrum then takes ~0.05 s against
    ~0.10 s at n = 801, and ~0.5 s against ~1.4 s at n = 2001 (one BLAS
    thread).  With
    S = W diag(w) W^T and B = D^{-1/2} W, the density is u_t = B e^{tw} B^T,
    one GEMM over the modes with t (w_k - max w) >= log(eps c) only, where
    c = min(min(mu) max g^2, (g.mu)^2 / sum(mu)) <= 1 for the ground mode g.
    The modes dropped have L2(mu) norm below eps ||U_t||, under the error
    ~t eps ||S|| the eigh already leaves in e^{tw}; c also puts them below eps
    times max u, max U_t 1 and <U_t 1, 1>_mu where mu is far from uniform.
    The eigenvalue problem of a symmetric matrix is well conditioned, so this
    agrees with the exponential to round-off.

    Other models scale and square: with k the fewest halvings that bring
    t ||G||_1 below 1, the nonnegative series ``_exp_step`` of the unit-norm
    step (t / 2^k) G is squared k times, about 8 + k GEMMs and no solve.  A
    time that is the sum of two cached times is instead their product, one
    GEMM, so an equally spaced ascending grid costs one exponential.  After
    the step, each squaring and each product, the transition form is clamped
    at 0 and entries below 2^-500 max(P) are zeroed.  That floor lies ~1e-135
    below the exponential's normwise error eps max(P), so it drops nothing the
    error bound resolves, and it keeps the spatially decaying entries of a
    non-normal U_t out of the subnormal range, where x86 arithmetic runs in
    slow microcode.
    """

    def __init__(self, model: MarkovModel):
        self.model = model
        self.reversible = bool(_max_abs_diff(model.Q_dual, model.Q) <= _REV_TOL)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, B): ascending eigenvalues of G and L2(mu)-orthonormal eigenvectors.

        Only reversible models have this factorization.
        """
        if not self.reversible:
            raise ValueError("only a reversible model has a symmetric spectrum")
        r = np.sqrt(self.model.space.mu)
        S = r[:, None] * self.model.generator() / r[None, :]
        w, B = _symmetric_eigh(0.5 * (S + S.T))
        B /= r[:, None]
        return w, B

    def _build(self, t: float) -> KernelOperator:
        space = self.model.space
        if self.reversible:
            w, B = self.spectrum
            g, mu = B[:, -1], space.mu  # the ground mode and the measure
            c = min(mu.min() * np.max(g**2), (g @ mu) ** 2 / mu.sum())
            # c = 0 (a ground mode orthogonal to mu, as an odd mode tied with the
            # even top one) or nan bounds nothing: every mode is kept
            floor = np.finfo(float).eps * c
            k = int(np.searchsorted(t * (w - w[-1]), np.log(floor))) if 0 < c < np.inf else 0
            u = np.maximum((B[:, k:] * np.exp(t * w[k:])) @ B[:, k:].T, 0.0)
            return KernelOperator(t, u, space, {"method": "eigh", "modes": w.size - k})
        s = next((s for s in self._ops if s < t and t - s in self._ops), None)
        if s is None:
            A = t * self.model.generator()
            k = max(math.frexp(np.linalg.norm(A, 1))[1], 0)  # ||A||_1 / 2^k < 1
            P = _floored(_exp_step(A / 2.0**k))
            for _ in range(k):
                P = _floored(P @ P)
        else:  # U_t = U_s U_{t-s}: one product of nonnegative cached factors
            P = _floored(self._ops[s].transition() @ self._ops[t - s].transition())
        return KernelOperator(t, P / space.mu[None, :], space, {"method": "expm"})


def feynman_kac_operator(model: MarkovModel, t: float) -> KernelOperator:
    """U_t = exp(t (Q - I - diag(V))) as a kernel operator, taken from the
    model's semigroup engine: one eigh per reversible model, a cached
    exponential otherwise.  Raises ValueError for t <= 0."""
    return model.semigroup.operator(t)


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
    sq_plus = np.asarray(np.sum(np.atleast_1d(x + y) ** 2, axis=-1))
    sq_minus = np.asarray(np.sum(np.atleast_1d(x - y) ** 2, axis=-1))
    d = np.atleast_1d(x).shape[-1] if np.ndim(x) else 1
    return sq_plus, sq_minus, d


def log_mehler_kernel(t: float, x, y) -> np.ndarray | float:
    """log of the Mehler kernel; stable far from the origin."""
    if t <= 0:
        raise ValueError("t must be positive")
    sq_plus, sq_minus, d = _pair_norms(x, y)
    # c - (tanh t |x+y|^2 + |x-y|^2 / tanh t) / 4 in place: a lattice kernel
    # takes no n x n temporary past the two norms
    out = np.multiply(sq_plus, np.tanh(t), out=sq_plus)
    out += np.divide(sq_minus, np.tanh(t), out=sq_minus)
    out *= 0.25
    np.subtract(-0.5 * d * np.log(2.0 * np.pi * np.sinh(2.0 * t)), out, out=out)
    return out if out.shape else float(out)


def mehler_kernel(t: float, x, y) -> np.ndarray | float:
    """Heat kernel of the d-dimensional quantum harmonic oscillator,

    u_t(x,y) = (2 pi sinh 2t)^{-d/2} exp(-(tanh t |x+y|^2 + coth t |x-y|^2)/4).
    """
    log_u = log_mehler_kernel(t, x, y)
    return np.exp(log_u, out=log_u) if isinstance(log_u, np.ndarray) else np.exp(log_u)


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
