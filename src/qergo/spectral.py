"""Principal eigentriple (lambda0, phi0, psi0) and spectral gap of -G.

The left eigenfunction psi0 is taken with respect to the mu-weighted pairing,
so that U*_t psi0 = e^{-lambda0 t} psi0 holds as a kernel identity; it differs
from the plain-transpose left eigenvector by a factor 1/mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig

from .errors import ModelError, NondegeneracyError, PositivityError
from .operators import _REV_TOL, KernelOperator, MarkovModel, _mu_symmetric_eigh

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
    eigenvalues: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for arr in (self.phi0, self.psi0, self.eigenvalues):
            if arr is not None:
                np.asarray(arr).setflags(write=False)


def _positive_direction(v: np.ndarray, what: str) -> np.ndarray:
    """Fix the sign of a principal eigenvector and insist on positivity.

    Entries are allowed to be negative only at the level of eigensolver
    round-off (relative 1e-8); genuinely mixed signs raise PositivityError.
    """
    v = np.real(v)
    v = v * np.sign(v[np.argmax(np.abs(v))])
    vmax = np.abs(v).max()
    if np.any(v < -1e-8 * vmax):
        raise PositivityError(
            f"{what} has mixed signs; the chain is reducible or positivity fails"
        )
    return np.abs(v)


def principal_triple(model) -> SpectralData:
    """Eigendecomposition of -G = I - Q + diag(V), the one triple of any zoo model.

    Reversible models read it from the eigh of their semigroup engine, where
    psi0 = phi0; other Markov models take a dense eig.  Requires an
    irreducible Q (checked by a reachability scan).  A kernel-only model,
    which has no generator, gives the triple of its operator at t = 1.
    Raises NondegeneracyError when the dominant eigenvalue is not simple
    within 1e-10 and PositivityError when an eigenvector has mixed signs.
    """
    if not isinstance(model, MarkovModel):
        return principal_triple_from_operator(model.semigroup.operator(1.0))
    if not model.is_irreducible():
        raise ModelError("principal_triple requires an irreducible jump matrix")
    mu = model.space.mu
    G = model.generator()
    engine = model.semigroup
    if engine.reversible:
        w, B = engine.spectrum
        eigenvalues = -w[::-1]
        right, left = B[:, -1], None
    else:
        w, vl, vr = eig(-G, left=True, right=True)
        order = np.argsort(w.real)
        eigenvalues = w[order]
        right, left = vr[:, order[0]], vl[:, order[0]]
    lam0 = eigenvalues[0].real
    if abs(eigenvalues[1] - eigenvalues[0]) < _DEGEN_TOL:
        raise NondegeneracyError("dominant eigenvalue of -G is not simple")
    gap = float(eigenvalues[1].real - lam0)
    phi = _positive_direction(right, "right eigenfunction")
    phi = phi / np.sqrt(np.sum(phi**2 * mu))
    if left is None:
        psi = phi
    else:
        # plain left eigenvector of -G, reweighted to the mu-pairing convention
        psi = _positive_direction(left, "left eigenfunction") / mu
        psi = psi / np.sqrt(np.sum(psi**2 * mu))
    # psi0 solves the dual-generator eigenproblem (Q_dual - I - V) psi = -lam0 psi,
    # which is the mu-pairing form of the left eigenequation
    G_dual = model.Q_dual - np.eye(model.n) - np.diag(model.V)
    res_r = np.max(np.abs(G @ phi + lam0 * phi))
    res_l = np.max(np.abs(G_dual @ psi + lam0 * psi))
    scale = max(1.0, np.abs(G).max())
    if max(res_r, res_l) > _RESID_TOL * scale:
        raise NondegeneracyError(
            f"eigen residuals {res_r:.2e}, {res_l:.2e} exceed tolerance"
        )
    Lam = float(np.sum(phi * psi * mu))
    return SpectralData(float(lam0), phi, psi, Lam, gap, eigenvalues)


def principal_triple_from_operator(op: KernelOperator) -> SpectralData:
    """Eigentriple extracted from a single kernel operator at time t > 0.

    Self-adjoint kernels only (the oscillator oracle, which has no generator):
    a symmetric density makes U_t self-adjoint in L2(mu), so one eigh gives
    e^{-lambda0 t} with psi0 = phi0, and the gap comes from the second-largest
    eigenvalue modulus over the whole real spectrum.
    """
    if op.t <= 0:
        raise ValueError("need a positive-time operator")
    u, mu = op.density, op.space.mu
    if np.max(np.abs(u - u.T)) > _REV_TOL * np.abs(u).max():
        raise ValueError("kernel density is not symmetric; U_t is not self-adjoint")
    w, B = _mu_symmetric_eigh(op.transition(), mu)
    order = np.argsort(-np.abs(w))
    rho0, rho1 = w[order[0]], abs(w[order[1]])
    if rho0 <= 0:
        raise NondegeneracyError("dominant transition eigenvalue is not positive")
    if rho0 - rho1 < _DEGEN_TOL * rho0:
        raise NondegeneracyError("dominant eigenvalue of U_t is not simple")
    lam0 = -np.log(rho0) / op.t
    gap = (-np.log(rho1) / op.t - lam0) if rho1 > 0 else np.inf
    phi = _positive_direction(B[:, order[0]], "principal eigenfunction")
    phi = phi / np.sqrt(np.sum(phi**2 * mu))
    return SpectralData(float(lam0), phi, phi, float(np.sum(phi**2 * mu)), float(gap), w[order])


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
