"""Finite measure spaces, metrics and exhausting families of metric balls."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StateSpace",
    "ExhaustingFamily",
    "ball_indicator",
    "exhaustion_time",
    "tabulated_radius",
]


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A finite point set with a positive reference weight per point.

    ``dist`` is the full symmetric distance matrix; it defaults to Euclidean
    distance on ``coords``.  All arrays are locked after construction, and
    every operation on a space is pure.
    """

    points: tuple
    mu: np.ndarray
    coords: np.ndarray | None = None
    dist: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "mu", mu)
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("point identifiers must be unique")
        if mu.shape != (n,) or not np.all(mu > 0):
            raise ValueError("mu must hold one strictly positive weight per point")
        coords = self.coords
        if coords is not None:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if coords.shape[0] != n:
                coords = coords.T
            if coords.shape[0] != n:
                raise ValueError("coords must provide one vector per point")
            object.__setattr__(self, "coords", coords)
        dist = self.dist
        if dist is None:
            if coords is None:
                raise ValueError("need coords or an explicit distance matrix")
            diff = coords[:, None, :] - coords[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (n, n):
            raise ValueError("distance matrix has wrong shape")
        if np.any(dist < 0) or not np.allclose(dist, dist.T, atol=1e-12):
            raise ValueError("metric must be symmetric and nonnegative")
        if not np.allclose(np.diag(dist), 0.0, atol=1e-12):
            raise ValueError("metric(x, x) must vanish")
        object.__setattr__(self, "dist", dist)
        for arr in (mu, self.coords, dist):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        return self._index[point]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n > 1 else 0.0

    def total_mass(self) -> float:
        return float(self.mu.sum())

    def with_mu(self, mu) -> "StateSpace":
        return StateSpace(self.points, np.asarray(mu, float), self.coords, self.dist)


@dataclass(frozen=True, eq=False)
class ExhaustingFamily:
    """Closed metric balls K_t around ``base_point`` with radius ``radius_fn(t)``.

    ``radius_fn`` must be monotone nondecreasing for t >= t_min, which makes
    K_t increasing; on a finite space the family exhausts once the radius
    reaches the largest distance from the base point.
    """

    base_point: object
    radius_fn: Callable[[float], float]
    t_min: float = 0.0


def ball_indicator(space: StateSpace, fam: ExhaustingFamily, t: float) -> np.ndarray:
    """Boolean membership mask of K_t = {x : d(x, base) <= radius_fn(t)}."""
    if t < fam.t_min:
        raise ValueError(f"t={t} below the family's lower bound t_min={fam.t_min}")
    r = float(fam.radius_fn(t))
    return space.dist[space.index(fam.base_point)] <= r


def exhaustion_time(space: StateSpace, fam: ExhaustingFamily, t_max: float = 1e12) -> float:
    """Smallest family parameter at which K_t covers the whole space.

    Found by doubling then bisecting on t; resolution is relative 1e-12.
    """
    if ball_indicator(space, fam, fam.t_min).all():
        return fam.t_min
    hi = max(fam.t_min, 1.0)
    while not ball_indicator(space, fam, hi).all():
        hi *= 2.0
        if hi > t_max:
            raise ValueError("family does not exhaust the space below t_max")
    lo = fam.t_min
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if ball_indicator(space, fam, mid).all():
            hi = mid
        else:
            lo = mid
    return hi


def tabulated_radius(ts: Sequence[float], rs: Sequence[float]) -> Callable[[float], float]:
    """Monotone interpolant through measured (t, radius) pairs.

    Radii are forced nondecreasing so the resulting family is exhausting;
    values beyond the table are clamped to the endpoints.
    """
    ts = np.asarray(ts, float)
    rs = np.maximum.accumulate(np.asarray(rs, float))
    if ts.ndim != 1 or ts.size != rs.size or ts.size == 0:
        raise ValueError("need matching nonempty t and radius tables")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t table must be strictly increasing")
    return lambda t: float(np.interp(t, ts, rs))
