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
from typing import NamedTuple

import numpy as np

from .errors import ModelError
from .statespace import StateSpace, _mirror_tiles, _read_only

__all__ = [
    "MarkovModel",
    "strongly_connected",
    "Engine",
    "KernelOperator",
    "ModalOperator",
    "Survivals",
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


def _rows(n: int):
    """Slices of 64 rows that cover n rows: the blocks of a blockwise pass."""
    return (slice(i, i + 64) for i in range(0, n, 64))


def _abs_max(blocks) -> float:
    """max |d| over the arrays ``blocks``, each overwritten by |d| as it comes,
    so that no temporary is larger than a block; nan when an entry is nan."""
    return float(np.max([np.abs(d, out=d).max(initial=0.0) for d in blocks], initial=0.0))


# buckets of the jump guide table; a power of two, so floor(x * B) is exact
_GUIDE_BUCKETS = 1024


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Guide table of the inverse-transform jump step (Chen & Asau 1974).

    ``G[s, b]`` is min(#{j : cum[s, j] < b/B}, n - 1) when no threshold of
    row s lies in the bucket [b/B, (b+1)/B); that count is then exact for
    every r in the bucket, whether or not the row is monotone.  Buckets that
    hold a threshold are -1 and need the full count.  G is formed 64 rows at a
    time and returned flat, so that entry (s, b) sits at s * B + b.
    """
    n, B = cum.shape[0], _GUIDE_BUCKETS
    G = np.empty((n, B), dtype=np.intp)
    for r in _rows(n):
        # bucket of each threshold: -1 below 0, B at or above 1
        idx = np.clip(np.floor(cum[r] * B), -1, B).astype(np.intp) + 1
        idx += np.arange(len(idx))[:, None] * (B + 2)
        slots = np.bincount(idx.ravel(), minlength=len(idx) * (B + 2)).reshape(-1, B + 2)
        G[r] = np.where(slots[:, 1:B + 1] == 0, np.minimum(np.cumsum(slots[:, :B], axis=1), n - 1), -1)
    return G.ravel()


def _dual_rows(Q: np.ndarray, mu: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows of the dual kernel D^{-1} Q^T D, D = diag(mu): (Q(y, x) mu(y)) / mu(x)
    at (x, y), rows contiguous as Q's are."""
    Qd = np.multiply(Q[:, rows].T, mu, order="C")
    Qd /= mu[rows, None]
    return Qd


def strongly_connected(adj: np.ndarray) -> bool:
    """Whether every state reaches every other along the boolean adjacency ``adj``:
    a breadth-first search from state 0 along ``adj`` and along its transpose."""
    for a in (adj, adj.T):
        seen = np.zeros(adj.shape[0], dtype=bool)
        frontier = np.array([0])
        while frontier.size:
            seen[frontier] = True
            # one state, as along a path, reads its row as a view
            reach = a[frontier[0]] if frontier.size == 1 else a[frontier].any(axis=0)
            frontier = (reach > seen).nonzero()[0]
        if not seen.all():
            return False
    return True


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Kernel density u_t(x, y) of U_t with respect to mu, at a fixed time t.
    Readers reach it through ``rows``, the left product w u and the right
    product u F, which a ``ModalOperator`` forms from its modes."""

    t: float
    density: np.ndarray = field(repr=False)  # a modal one is formed only on a read
    space: StateSpace
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.density, dtype=float)
        n = self.space.n
        if u.shape != (n, n):
            raise ValueError("density must be square over the state space")
        if not u.min(initial=0.0) >= -1e-14:  # nan fails too
            raise ValueError("kernel density must be nonnegative, with no nan entry")
        object.__setattr__(self, "density", _read_only(u))

    def rows(self, idx) -> np.ndarray:
        """The density's rows at the index array or mask ``idx``, a new array."""
        return self.density[idx]

    def left(self, w) -> np.ndarray:
        """w u for a vector w (or rows of vectors)."""
        return w @ self.density

    def right(self, F) -> np.ndarray:
        """u F for a vector F (or columns of vectors)."""
        return self.density @ F

    def apply(self, f) -> np.ndarray:
        """U_t f(x) = sum_y u(x,y) f(y) mu(y)."""
        return self.right(np.asarray(f, float) * self.space.mu)

    def apply_adjoint(self, g) -> np.ndarray:
        """U*_t g(y) = sum_x u(x,y) g(x) mu(x)."""
        return self.left(np.asarray(g, float) * self.space.mu)

    @cached_property
    def survival(self) -> np.ndarray:
        """U_t 1 per point, formed on first use and read-only."""
        return _read_only(self.right(self.space.mu))

    @cached_property
    def dual_survival(self) -> np.ndarray:
        """U*_t 1 per point, formed on first use and read-only."""
        return _read_only(self.left(self.space.mu))

    def transition(self) -> np.ndarray:
        """Transition form P_t(x,y) = u(x,y) mu(y)."""
        return self.density * self.space.mu[None, :]

    def positivity_improving(self) -> bool:
        return bool(self.density.min(initial=np.inf) > 0)

    def self_adjoint(self) -> bool:
        """Whether the density is symmetric within a few ulps of its largest entry."""
        u = self.density  # max |u - u^T| by mirror tile pairs
        asymmetry = _abs_max(u[I, J] - u[J, I].T for I, J in _mirror_tiles(len(u)))
        return bool(asymmetry <= _REV_TOL * max(u.max(), -u.min()))


class ModalOperator(KernelOperator):
    """U_t of a reversible model as its kept modes X = B[:, k:], ground mode
    last, and scales c = e^{t w[k:]} (``MarkovModel._build``): each product
    costs O(n m) for m modes, unclamped, and the density, the build's
    (X c) X^T clamped at 0, is formed only when something reads it."""

    def __init__(self, t: float, X: np.ndarray, c: np.ndarray, space: StateSpace, meta: dict):
        for name, value in (("t", t), ("X", X), ("c", c), ("space", space), ("meta", meta)):
            object.__setattr__(self, name, value)

    @cached_property
    def density(self) -> np.ndarray:
        return _read_only(self.rows(slice(None)))

    def rows(self, idx) -> np.ndarray:
        u = (self.X[idx] * self.c) @ self.X.T
        return np.maximum(u, 0.0, out=u)

    def left(self, w) -> np.ndarray:
        return ((w @ self.X) * self.c) @ self.X.T

    def right(self, F) -> np.ndarray:
        return self.X @ ((F.T @ self.X) * self.c).T

    def self_adjoint(self) -> bool:
        return True


class Survivals(NamedTuple):
    """U_t 1 and U*_t 1 of an operator, kept once its density is dropped: what
    the survival readers take of an operator (t, space and the two sums)."""

    t: float
    space: StateSpace
    survival: np.ndarray
    dual_survival: np.ndarray


def _floored(P: np.ndarray) -> np.ndarray:
    """P, in place, clamped at 0 and with entries below 2^-500 max(P) zeroed."""
    np.maximum(P, 0.0, out=P)
    P[P < _FLOOR * P.max()] = 0.0
    return P


def _symmetric_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, W): ascending eigenvalues and orthonormal eigenvectors of the
    symmetric S, which the call owns: W may be written over S, so the caller
    passes an array it no longer reads.

    When S equals its index reversal J S J within _REV_TOL max |S|, S maps the
    even vectors (x, y, Jx) and the odd ones (x, 0, -Jx) to themselves (y is
    the centre entry when n is odd).  Their coordinates give two blocks of
    about n/2: even A + BJ, bordered by sqrt2 S[:h, h] and S[h, h] when n is
    odd, and odd A - BJ, with A = S[:h, :h] and BJ = S[:h, n-h:] J.  Their two
    eigh cost about a quarter of one n x n eigh.  Eigenvalues tied across the
    two blocks are taken even first.  The even block is dropped once its eigh
    returns, and S once both blocks are solved: W is written over S in sorted
    column order, so the split holds no n x n array besides S.  Any other S
    takes one eigh, and W is a new array.
    """
    if _abs_max(S[r] - S[::-1, ::-1][r] for r in _rows(len(S))) > _REV_TOL * max(S.max(), -S.min()):
        return np.linalg.eigh(S)
    n = S.shape[0]
    h, mid = divmod(n, 2)
    A, BJ = S[:h, :h], S[:h, n - h:][:, ::-1]
    even = A + BJ
    if mid:
        s = np.sqrt(2.0) * S[:h, h:h + 1]
        even = np.block([[even, s], [s.T, S[h:h + 1, h:h + 1]]])
    we, Ue = np.linalg.eigh(even)
    del even
    wo, Uo = np.linalg.eigh(A - BJ)
    w = np.concatenate([we, wo])
    order = np.argsort(w, kind="stable")
    ce, co = np.split(np.argsort(order), [h + mid])  # sorted columns of the block vectors
    Ue[:h] /= np.sqrt(2.0)
    Uo /= np.sqrt(2.0)
    W = S  # written in sorted column order
    W[:h, ce], W[h:n - h, ce], W[n - h:, ce] = Ue[:h], Ue[h:], Ue[:h][::-1]
    W[:h, co], W[h:n - h, co], W[n - h:, co] = Uo, 0.0, -Uo[::-1]
    return w[order], W


def _exp_step(S: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """e^S for a step S with off-diagonal entries >= 0, as the series
    e^{-c} sum_{j<=N} B^j / j! of B = S + cI >= 0, c = -min diag S.

    Every term is >= 0, so each entry is accurate, not only the norm (Xue &
    Ye, Numer. Math. 2008).  N is the first order whose term bound
    ||B||_1^N / N! is below eps/10 of the partial sum of those bounds.
    S is overwritten by B.  The sum is Horner's rule P <- I + (B P) / j,
    j = N ... 1, in the style of Al-Mohy & Higham (SIAM J. Sci. Comput. 2011),
    which holds three n x n arrays: P, the next P and a third.

    ``cols``, when given, holds the columns of every off-diagonal nonzero of
    each row of S, n x d padded with the row's own index
    (``MarkovModel.jump_columns``, d <= 2).  B P is then diag(B) P plus, per
    column of ``cols``, the rows of P gathered there and scaled by B's
    entries, no GEMM; once those entries are read, S's array is a Horner
    buffer and the third array takes the gathered rows.  Otherwise B P is one
    GEMM into the third array, beside B.
    """
    c = -S.diagonal().min()
    B = S
    np.fill_diagonal(B, S.diagonal() + c)
    b, bounds = np.linalg.norm(B, 1), [1.0]  # b^j / j!
    while bounds[-1] > 0.1 * np.finfo(float).eps * sum(bounds):
        bounds.append(bounds[-1] * b / len(bounds))
    N = len(bounds) - 1
    P = np.divide(B, N)  # P = I + B / N, the step j = N
    np.fill_diagonal(P, P.diagonal() + 1.0)
    if cols is None:
        Y = np.empty_like(B)
    else:
        rows = np.arange(len(B))[:, None]
        diag, w = B.diagonal().copy(), np.where(cols == rows, 0.0, B[rows, cols])
        Y, g = B, np.empty_like(B)
    for j in range(N - 1, 0, -1):
        if cols is None:
            np.matmul(B, P, out=Y)
        else:
            np.einsum("i,ij->ij", diag, P, out=Y)
            for m in range(cols.shape[1]):
                # mode "raise" would buffer ``out``: one more n x n array
                np.take(P, cols[:, m], axis=0, out=g, mode="wrap")
                g *= w[:, m, None]
                Y += g
        Y /= j
        np.fill_diagonal(Y, Y.diagonal() + 1.0)
        P, Y = Y, P
    P *= math.exp(-c)
    return P


class Engine:
    """U_t of one model for any finite t > 0, built by the subclass hook ``_build(t)``.
    It keeps its most recent operator until the next build no longer reads it.
    One that ``composes`` also keeps its first operator, once a later build
    begins, but only as the transition form P_s that ``_factors`` reads (the
    step U_s of a grid composed as U_t = U_s U_{t-s}); any other releases its
    one operator before the next build."""

    composes = False

    @cached_property
    def _ops(self) -> dict[float, KernelOperator]:
        """The most recent operator by its time: one at most."""
        return {}

    @cached_property
    def _first(self) -> dict[float, np.ndarray]:
        """The first operator's transition form by its time, once a later build begins."""
        return {}

    def holds(self, t: float) -> bool:
        """Whether U_t is held, so that ``operator(t)`` builds nothing."""
        return float(t) in self._ops

    def operator(self, t: float) -> KernelOperator:
        if not 0 < t < np.inf:  # nan fails too, before any build
            raise ValueError("t must be positive and finite")
        key = float(t)
        if key not in self._ops:
            if not self.composes:
                self._ops.clear()
            elif self._ops and not self._first:  # formed once, by transition()'s arithmetic
                s = next(iter(self._ops))
                self._first[s] = self._ops[s].transition()
            op = self._build(key)
            self._ops.clear()
            self._ops[key] = op
        return self._ops[key]

    def _factors(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """The transition forms (P_s, P_r) of the first pair of held times whose
        sum is t within 4 ulp(t), so that a decimal grid such as 0.1 0.2 0.3
        composes: (first, first), (first, latest) or (latest, latest); None
        when no pair sums to t.  The latest operator leaves the engine here, so
        that a pair which reads it holds only its transition form at the product."""
        f, F = next(iter(self._first.items()), (math.nan, None))
        r, latest = next(iter(self._ops.items()), (math.nan, None))
        self._ops.clear()

        def near(a: float, b: float) -> bool:
            return abs(a + b - t) <= 4 * math.ulp(t)

        if near(f, f):
            return F, F
        if near(f, r) or near(r, r):
            L = latest.transition()
            return (F, L) if near(f, r) else (L, L)
        return None


@dataclass(frozen=True, eq=False)
class MarkovModel(Engine):
    """Generator data (Q, V) of a Feynman-Kac semigroup on a space, and the
    engine of that semigroup: ``operator(t)`` is U_t = exp(tG), entries
    clamped at 0, no factorization repeated.

    Q is the one-step jump matrix of a rate-1 continuous-time chain.  The
    dual kernel ``Q_dual`` = D^{-1} Q^T D, D = diag(mu), is derived from the
    duality relation mu(x) Q(x,y) = mu(y) Q_dual(y,x); both must be
    row-stochastic, which forces mu to be invariant for Q.  Q_dual is formed
    lazily: the constructor checks its row sums as (mu Q) / mu, ``reversible``
    reads it 64 rows at a time and the triple applies it as ((psi mu) Q) / mu,
    so no run forms it.  The generator acting on functions is G = Q - I - diag(V).

    Reversible models (Q_dual == Q, so G is self-adjoint in L2(mu)) take one
    eigh of S = D^{1/2} G D^{-1/2}, or two of half its size
    when S commutes with the index reversal (``_symmetric_eigh``): a lattice
    symmetric about its centre with an even potential and measure, as are all
    the shipped reversible models.  The spectrum then takes ~0.05 s against
    ~0.10 s at n = 801, and ~0.5 s against ~1.4 s at n = 2001 (one BLAS
    thread).  With
    S = W diag(w) W^T and B = D^{-1/2} W, U_t is the ``ModalOperator`` of
    u_t = B e^{tw} B^T over the modes with t (w_k - max w) >= log(eps c), where
    c = min(min(mu) max g^2, (g.mu)^2 / sum(mu)) <= 1 for the ground mode g.
    The modes dropped have L2(mu) norm below eps ||U_t||, under the error
    ~t eps ||S|| the eigh already leaves in e^{tw}; c also puts them below eps
    times max u, max U_t 1 and <U_t 1, 1>_mu where mu is far from uniform.
    The eigenvalue problem of a symmetric matrix is well conditioned, so this
    agrees with the exponential to round-off.  A build forms no n x n array
    and reads only the spectrum, so it does not compose and the engine
    releases its latest operator before each build.

    Other models scale and square: with k the fewest halvings that bring
    t ||G||_1 below 1, the nonnegative series ``_exp_step`` of the unit-norm
    step (t / 2^k) G is squared k times, and no solve.  The series is one
    Horner loop of N <= 24 terms in three n x n arrays: its B P takes no GEMM
    when no row of Q has more than 2 jumps (``jump_columns``), and one a term
    otherwise.  The step is formed in the generator's own array, and the
    series in place over it.  A time within 4 ulp of the sum of two held
    times is instead their product, one GEMM, so an equally spaced ascending
    grid costs one exponential; such a model ``composes``, and keeps its
    most recent operator and its first one's transition form as factors.
    After the step, each squaring and each product, the transition form is clamped
    at 0 and entries below 2^-500 max(P) are zeroed.  That floor lies ~1e-135
    below the exponential's normwise error eps max(P), so it drops nothing the
    error bound resolves, and it keeps the spatially decaying entries of a
    non-normal U_t out of the subnormal range, where x86 arithmetic runs in
    slow microcode.
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
        lo, hi = Q.min(initial=0.0), Q.max(initial=0.0)
        if Q.shape != (n, n) or not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError("Q must be square over the state space, with finite entries")
        if lo < -_STOCH_TOL:
            raise ModelError("Q has negative entries")
        if np.max(np.abs(Q.sum(axis=1) - 1.0)) > _STOCH_TOL:
            raise ModelError("rows of Q must sum to 1 within 1e-12")
        if V.shape != (n,) or not np.all(np.isfinite(V)):
            raise ModelError("V must be one finite value per point")
        mu = self.space.mu  # the dual's row sums are (mu Q) / mu
        if np.max(np.abs((mu @ Q) / mu - 1.0)) > _STOCH_TOL:
            raise ModelError("dual kernel is not stochastic: mu is not an invariant measure of Q")
        object.__setattr__(self, "Q", _read_only(Q))
        object.__setattr__(self, "V", _read_only(V))

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def composes(self) -> bool:
        """Whether a build may read earlier operators, the most recent and the first, which
        the engine then keeps as its transition form: a non-reversible U_t is the
        product of two held ones."""
        return not self.reversible

    @cached_property
    def jump_columns(self) -> np.ndarray | None:
        """The columns of the off-diagonal nonzeros of each row of Q, ascending,
        as an n x d array padded with the row's own index, d the most any row
        has; None when some row has more than 2.  ``_exp_step`` gathers the
        rows of its series there."""
        Q = self.Q
        count = np.count_nonzero(Q, axis=1) - (Q.diagonal() != 0)
        if count.max() > 2:
            return None
        rows, cols = np.nonzero(Q)
        rows, cols = rows[rows != cols], cols[rows != cols]
        jumps = np.repeat(np.arange(self.n)[:, None], count.max(), axis=1)
        jumps[rows, np.arange(rows.size) - (np.cumsum(count) - count)[rows]] = cols
        return _read_only(jumps)

    @cached_property
    def jump_guide(self) -> tuple[np.ndarray, np.ndarray]:
        """(cum, G): the cumulative rows of Q and their guide table, which a
        Monte Carlo path reads at each jump; built once per model."""
        cum = np.cumsum(self.Q, axis=1)
        return _read_only(cum), _read_only(_guide_table(cum))

    def generator(self) -> np.ndarray:
        """G = Q - I - diag(V), acting on functions: a copy of Q with
        (Q_ii - 1) - V_i on its diagonal, in one n x n array."""
        G = np.array(self.Q)
        np.fill_diagonal(G, (self.Q.diagonal() - 1.0) - self.V)
        return G

    @cached_property
    def irreducible(self) -> bool:
        """Whether the jump graph Q > 0 is strongly connected, found once per model."""
        return strongly_connected(self.Q > 0)

    @cached_property
    def Q_dual(self) -> np.ndarray:
        """The dual kernel D^{-1} Q^T D, formed on first use and read-only."""
        return _read_only(_dual_rows(self.Q, self.space.mu))

    @cached_property
    def reversible(self) -> bool:
        """Whether Q_dual == Q within a few ulps, found once per model, 64 dual rows at a time."""
        Q, mu = self.Q, self.space.mu
        return bool(_abs_max(_dual_rows(Q, mu, r) - Q[r] for r in _rows(self.n)) <= _REV_TOL)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, B): ascending eigenvalues of G and L2(mu)-orthonormal eigenvectors.

        Only reversible models have this factorization.  S is formed and
        symmetrized in one array that ``_symmetric_eigh`` owns: the parity
        split writes the eigenvectors over it, and B is those scaled in place,
        so past Q the split holds no n x n array besides S and its half blocks.
        """
        if not self.reversible:
            raise ValueError("only a reversible model has a symmetric spectrum")
        Q, V, r = self.Q, self.V, np.sqrt(self.space.mu)
        S = np.multiply(r[:, None], Q)  # S = D^{1/2} G D^{-1/2} in one array
        S /= r
        np.fill_diagonal(S, r * ((Q.diagonal() - 1.0) - V) / r)
        for I, J in _mirror_tiles(len(S)):  # 0.5 (S + S^T), in place
            S[I, J] = 0.5 * (S[I, J] + S[J, I].T)
            S[J, I] = S[I, J].T
        w, B = _symmetric_eigh(S)
        B /= r[:, None]
        return w, B

    def _build(self, t: float) -> KernelOperator:
        space = self.space
        if self.reversible:
            w, B = self.spectrum
            g, mu = B[:, -1], space.mu  # the ground mode and the measure
            c = min(mu.min() * np.max(g**2), (g @ mu) ** 2 / mu.sum())
            # c = 0 (a ground mode orthogonal to mu, as an odd mode tied with the
            # even top one) or nan bounds nothing: every mode is kept
            floor = np.finfo(float).eps * c
            k = int(np.searchsorted(t * (w - w[-1]), np.log(floor))) if 0 < c < np.inf else 0
            meta = {"method": "eigh", "modes": w.size - k}
            return ModalOperator(t, _read_only(B[:, k:]), np.exp(t * w[k:]), space, meta)
        factors = self._factors(t)
        if factors is None:  # tG and its step tG / 2^k in one array, which the series overwrites
            P = self.generator()
            P *= t
            k = max(math.frexp(np.linalg.norm(P, 1))[1], 0)  # ||tG||_1 / 2^k < 1
            P /= 2.0**k
            P = _floored(_exp_step(P, self.jump_columns))
            for _ in range(k):
                P = _floored(P @ P)
        else:  # U_t = U_s U_r: one product of nonnegative held factors
            P = _floored(np.matmul(*factors))
        return KernelOperator(t, np.divide(P, space.mu, out=P), space, {"method": "expm"})


def feynman_kac_operator(model: MarkovModel, t: float) -> KernelOperator:
    """U_t = exp(t (Q - I - diag(V))) as a kernel operator: ``model.operator(t)``,
    one eigh per reversible model, a cached exponential otherwise.  Raises
    ValueError for a t that is not finite and positive."""
    return model.operator(t)


def compose(op_s: KernelOperator, op_t: KernelOperator) -> KernelOperator:
    """Chapman-Kolmogorov product: u_{s+t}(x,y) = sum_z u_s(x,z) u_t(z,y) mu(z)."""
    a, b = op_s.space, op_t.space
    if a is not b and not (a.points == b.points and np.array_equal(a.mu, b.mu)):
        raise ValueError("operators live on different state spaces")
    u = (op_s.density * op_s.space.mu[None, :]) @ op_t.density
    return KernelOperator(op_s.t + op_t.t, u, op_s.space, {"method": "compose"})


def _mehler_exponents(t: float, d: int = 1) -> tuple[float, float, float]:
    """(c, a, b) with log u_t(x, y) = c - a |x+y|^2 - b |x-y|^2 for the d-dimensional
    Mehler kernel: c = -d/2 log(2 pi sinh 2t), a = tanh(t)/4 and b = coth(t)/4."""
    if t <= 0:
        raise ValueError("t must be positive")
    return -0.5 * d * np.log(2.0 * np.pi * np.sinh(2.0 * t)), 0.25 * np.tanh(t), 0.25 / np.tanh(t)


def log_mehler_kernel(t: float, x, y) -> np.ndarray | float:
    """log of the Mehler kernel; stable far from the origin."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    c, a, b = _mehler_exponents(t, np.atleast_1d(x).shape[-1] if np.ndim(x) else 1)
    sq_plus = np.sum(np.atleast_1d(x + y) ** 2, axis=-1)
    sq_minus = np.sum(np.atleast_1d(x - y) ** 2, axis=-1)
    out = c - a * sq_plus - b * sq_minus
    return out if np.ndim(out) else float(out)


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
