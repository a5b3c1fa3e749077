"""Path-sampling estimators of Feynman-Kac functionals and exit probabilities.

Paths of the rate-1 uniformized chain are piecewise constant, so the killing
weight e^{-int_0^t V(X_s) ds} is computed exactly from holding times; the only
quadrature bias in this module sits in the Euler scheme of the continuum
stable estimator.  Estimators draw from seeded generators and record the seed
so that identical (seed, parameters) reproduce estimates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadKeyError
from .models import PotentialSpec
from .operators import _GUIDE_BUCKETS, MarkovModel

__all__ = [
    "EstimateWithError",
    "check_batch",
    "fk_estimate",
    "fk_conditioned_estimate",
    "exit_probability",
    "sample_stable_increment",
    "fk_estimate_levy",
]


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    stderr: float
    n_samples: int
    seed: int | None = None

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def within(self, target: float, k: float = 3.0, atol: float = 1e-12) -> bool:
        """|mean - target| <= k stderr convenience check.

        The absolute floor covers deterministic estimates (stderr = 0) that
        match the target up to floating-point round-off.
        """
        return abs(self.mean - target) <= max(k * self.stderr, atol)


# desk-scale path budget: the doubles of a batch's one M x n array of jump times
MAX_PATH_STEPS = 2**25


def check_batch(n: int, t: float) -> None:
    """Refuse n paths to t, by a BadKeyError naming ``n`` or ``t``, unless n >= 2, 0 < t < inf
    and n (t + 10 sqrt(max(t, 1))) path steps, a Poisson(t) tail bound of n M, fit the budget."""
    if n < 2:
        raise BadKeyError("n", f"a batch needs n >= 2 paths, got {n}")
    if not 0.0 < t < np.inf:  # nan fails too
        raise BadKeyError("t", f"a batch needs a finite t > 0, got {t}")
    largest = int(MAX_PATH_STEPS // (t + 10.0 * max(t, 1.0) ** 0.5))
    if n > largest:
        raise BadKeyError("n", f"{n} paths to t = {t:g} exceed the budget of {MAX_PATH_STEPS} path "
                          f"steps (n * (t + 10 sqrt(max(t, 1)))); the largest usable n is {largest}")


def _normalize_rng(rng) -> tuple[np.random.Generator, int | None]:
    """(generator, recorded seed) of ``rng``: a generator, used as it is, a seed or None."""
    return np.random.default_rng(rng), int(rng) if isinstance(rng, (int, np.integer)) else None


# paths per row block of the jump-time draw, so that a block is far smaller than the batch
_DRAW_ROWS = 1024


def _simulate_batch(model: MarkovModel, x0, t: float, n: int, gen, radius=None):
    """Vectorized batch of uniformized paths.

    Returns (weights, end_state_indices, stayed) where ``stayed`` flags paths
    whose every visited state lies within the closed ball B_radius(x0); it is
    all-True when radius is None.  Row k of the M x n jump times is every path's
    k-th jump, or t past its last.  A jump from state s to the first j with
    cum[s, j] >= r is read from the model's guide table in O(1), with the
    exact O(n) count only where r falls in a bucket that holds a threshold.
    """
    check_batch(n, t)
    i0 = model.space.index(x0)
    counts = gen.poisson(t, n)
    M = int(counts.max())
    times = np.empty((M, n))
    for i in range(0, n, _DRAW_ROWS):  # rows i, i + 1, ... of the one (n, M) draw
        block = gen.uniform(0.0, t, (min(_DRAW_ROWS, n - i), M))
        block[np.arange(M) >= counts[i:i + _DRAW_ROWS, None]] = t
        block.sort(axis=1)
        times[:, i:i + _DRAW_ROWS] = block.T
    cum, guide = model.jump_guide
    V, B = model.V, _GUIDE_BUCKETS
    dist_row = model.space.distances(i0)
    state = np.full(n, i0)
    logw = np.zeros(n)
    stayed = np.ones(n, dtype=bool)
    prev = np.zeros(n)
    done = np.bincount(counts, minlength=M)  # done[k]: paths with exactly k jumps
    active = np.arange(n)
    for k in range(M):
        logw -= V[state] * (times[k] - prev)
        prev = times[k]
        if done[k]:  # the live set shrinks; never empty, as k < M = counts.max()
            active = np.flatnonzero(counts > k)
        r = gen.random(active.size)
        src = state[active]
        nxt = guide.take(src * B + (r * B).astype(np.intp))
        amb = np.flatnonzero(nxt < 0)
        if amb.size:
            nxt[amb] = np.minimum((cum[src[amb]] < r[amb, None]).sum(axis=1), model.n - 1)
        state[active] = nxt
        if radius is not None:
            stayed[active] &= dist_row[nxt] <= radius
    logw -= V[state] * (t - prev)
    return np.exp(logw), state, stayed


def _sample_mean(vals: np.ndarray, seed: int | None) -> EstimateWithError:
    n = len(vals)
    return EstimateWithError(float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)), n, seed)


def _fk_batch(model: MarkovModel, x0, t: float, f, n: int, rng):
    """(weights, weight * f(X_t), seed) of n paths from x0."""
    gen, seed = _normalize_rng(rng)
    fv = np.asarray(f(model.space.coords), float) if callable(f) else np.asarray(f, float)
    w, end, _ = _simulate_batch(model, x0, t, n, gen)
    return w, w * fv[end], seed


def fk_estimate(model: MarkovModel, x0, t: float, f, n: int, rng) -> EstimateWithError:
    """Sample mean of weight * f(X_t) over n paths; unbiased for (U_t f)(x0).
    f is an array of per-state values or a callable on the coordinate rows."""
    _, vals, seed = _fk_batch(model, x0, t, f, n, rng)
    return _sample_mean(vals, seed)


def fk_conditioned_estimate(model: MarkovModel, x0, t: float, f, n: int, rng) -> EstimateWithError:
    """Survival-conditioned ratio estimator of E[w f(X_t)] / E[w], the
    Monte Carlo reading of sigma(U_t f)/sigma(U_t 1) for sigma = delta_x0,
    with a delta-method standard error."""
    w, a, seed = _fk_batch(model, x0, t, f, n, rng)
    ratio = a.mean() / w.mean()
    cov = np.cov(a, w, ddof=1)
    var = (
        cov[0, 0] / w.mean() ** 2
        - 2.0 * ratio * cov[0, 1] / w.mean() ** 2
        + ratio**2 * cov[1, 1] / w.mean() ** 2
    ) / n
    return EstimateWithError(float(ratio), float(np.sqrt(max(var, 0.0))), n, seed)


def exit_probability(
    model: MarkovModel, x0, t: float, radius: float, n: int, rng
) -> EstimateWithError:
    """Estimate of P^{x0}(t <= tau_{B_radius(x0)}), the chance of staying in
    the closed metric ball around the start point up to the horizon."""
    gen, seed = _normalize_rng(rng)
    _, _, stayed = _simulate_batch(model, x0, t, n, gen, radius=radius)
    return _sample_mean(stayed.astype(float), seed)


def _stable_batch(alpha: float, size: int, gen) -> np.ndarray:
    """Standard symmetric alpha-stable draws with CF exp(-|xi|^alpha),
    by the Chambers-Mallows-Stuck construction."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    U = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    E = gen.exponential(1.0, size)
    if abs(alpha - 1.0) < 1e-14:
        return np.tan(U)
    return (np.sin(alpha * U) / np.cos(U) ** (1.0 / alpha)) * (
        np.cos(U - alpha * U) / E
    ) ** ((1.0 - alpha) / alpha)


def sample_stable_increment(alpha: float, dt: float, rng) -> float:
    """One increment of the symmetric alpha-stable process over a step dt,
    with characteristic function e^{-dt |xi|^alpha}; alpha = 2 reduces to a
    Gaussian of variance 2 dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen, _ = _normalize_rng(rng)
    return float(dt ** (1.0 / alpha) * _stable_batch(alpha, 1, gen)[0])


def fk_estimate_levy(
    alpha: float, V: PotentialSpec, x0: float, t: float, n_steps: int, n: int, rng
) -> EstimateWithError:
    """Euler estimate of (U_t 1)(x0) for the continuum fractional Schrodinger
    semigroup: stable increments between grid times, left-endpoint Riemann
    sum of V along the path."""
    if n_steps < 4:
        raise ValueError("need at least 4 Euler steps")
    check_batch(n, t)
    gen, seed = _normalize_rng(rng)
    dt = t / n_steps
    X = np.full(n, float(x0))
    logw = np.zeros(n)
    for _ in range(n_steps):
        logw -= V.evaluate(X) * dt
        X = X + dt ** (1.0 / alpha) * _stable_batch(alpha, n, gen)
    return _sample_mean(np.exp(logw), seed)
