"""Finite measure spaces, metrics and exhausting families of metric balls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StateSpace",
    "ExhaustingFamily",
    "ball_indicator",
    "exhaustion_time",
    "tabulated_radius",
]

_T_MAX = 1e12  # largest family parameter exhaustion_time tries


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which leaves the caller's own array writeable."""
    v = a.view()
    v.setflags(write=False)
    return v


def _mirror_tiles(n: int) -> list[tuple[slice, slice]]:
    """(I, J) of each 128 x 128 tile on or above the diagonal of an n x n array,
    whose mirror is tile (J, I): a symmetry test or update by tile pairs reads
    the array once and makes no temporary larger than a tile."""
    tiles = [slice(i, i + 128) for i in range(0, n, 128)]
    return [(I, J) for k, I in enumerate(tiles) for J in tiles[k:]]


@dataclass(frozen=True, eq=False)
class StateSpace:
    """A finite point set with a positive reference weight per point.

    ``dist`` is an explicit symmetric distance matrix; without it the metric
    is Euclidean distance on ``coords``, formed one row at a time by
    ``distances`` and never stored.  All arrays are locked after
    construction, and every operation on a space is pure.
    """

    points: tuple
    mu: np.ndarray
    coords: np.ndarray | None = None
    dist: np.ndarray | None = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "points", tuple(self.points))
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("point identifiers must be unique")
        if mu.shape != (n,) or not np.all((mu > 0) & (mu < np.inf)):
            raise ValueError("mu must hold one finite, strictly positive weight per point")
        coords = self.coords
        if coords is not None:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if coords.shape[0] != n:
                coords = coords.T
            if coords.shape[0] != n:
                raise ValueError("coords must provide one vector per point")
        dist = self.dist
        if dist is None:
            if coords is None:
                raise ValueError("need coords or an explicit distance matrix")
        else:
            dist = np.asarray(dist, dtype=float)
            if dist.shape != (n, n):
                raise ValueError("distance matrix has wrong shape")
            # np.allclose(dist, dist.T, atol=1e-12) by tile pairs; nan is not symmetric
            close = (np.allclose(a, b, atol=1e-12) for I, J in _mirror_tiles(n)
                     for a, b in ((dist[I, J], dist[J, I].T), (dist[J, I], dist[I, J].T)))
            if dist.min(initial=0.0) < 0 or not all(close):
                raise ValueError("metric must be symmetric and nonnegative")
            if not np.allclose(dist.diagonal(), 0.0, atol=1e-12):
                raise ValueError("metric(x, x) must vanish")
        for name, arr in (("mu", mu), ("coords", coords), ("dist", dist)):
            object.__setattr__(self, name, None if arr is None else _read_only(arr))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        return self._index[point]

    def distances(self, i: int) -> np.ndarray:
        """Row i of the metric: d(x_i, y) for every point y."""
        if self.dist is not None:
            return self.dist[i]
        # a metric by construction; in 1-D |x - y| is sqrt((x - y)^2) bit for bit
        diffs = [c[i] - c for c in self.coords.T]
        return np.sqrt(sum(d * d for d in diffs)) if len(diffs) > 1 else np.abs(diffs[0])

    def diameter(self) -> float:
        return float(max(self.distances(i).max() for i in range(self.n))) if self.n > 1 else 0.0


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
    return space.distances(space.index(fam.base_point)) <= r


def _radius_crossing(fam: ExhaustingFamily, r: float, lo: float, hi: float) -> tuple[float, float]:
    """Bisect [lo, hi] down to relative 1e-12 for the parameter at which
    ``radius_fn`` reaches r, keeping radius_fn(hi) >= r and radius_fn(lo) < r."""
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if float(fam.radius_fn(mid)) >= r:
            hi = mid
        else:
            lo = mid
    return lo, hi


def exhaustion_time(space: StateSpace, fam: ExhaustingFamily) -> float:
    """Smallest family parameter at which K_t covers the whole space, i.e. at
    which the radius reaches the largest distance from the base point.

    Found by doubling t up to 1e12, then bisecting; resolution is relative 1e-12.
    Raises ValueError for a t_min that is not finite, where neither would end.
    """
    if not abs(fam.t_min) < np.inf:  # nan fails too
        raise ValueError(f"t_min must be finite, got {fam.t_min}")
    R = float(space.distances(space.index(fam.base_point)).max())
    if float(fam.radius_fn(fam.t_min)) >= R:
        return fam.t_min
    hi = max(fam.t_min, 1.0)
    while not float(fam.radius_fn(hi)) >= R:
        hi *= 2.0
        if hi > _T_MAX:
            raise ValueError(f"family does not exhaust the space below t = {_T_MAX:g}")
    return _radius_crossing(fam, R, fam.t_min, hi)[1]


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
