import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from qergo.models import build_ctmc_model, lattice_space
from qergo.statespace import (
    ExhaustingFamily,
    StateSpace,
    ball_indicator,
    exhaustion_time,
    tabulated_radius,
)


def grid1d(lo, hi, mu=None):
    xs = np.arange(lo, hi + 1, dtype=float)
    n = len(xs)
    return StateSpace(tuple(range(n)), np.ones(n) if mu is None else mu, xs[:, None])


class TestStateSpace:
    def test_euclidean_metric_default(self):
        sp = grid1d(-2, 2)
        assert sp.distances(0)[4] == 4.0
        assert sp.diameter() == 4.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            StateSpace((0, 0), np.ones(2), np.array([[0.0], [1.0]]))

    def test_nonpositive_mu_rejected(self):
        for bad in (0.0, -1.0, np.inf, np.nan):  # non-finite weights too
            with pytest.raises(ValueError, match="finite, strictly positive"):
                StateSpace((0, 1), np.array([1.0, bad]), np.array([[0.0], [1.0]]))

    def test_asymmetric_metric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            StateSpace((0, 1), np.ones(2), None, bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="vanish"):
            StateSpace((0, 1), np.ones(2), None, bad)

    @pytest.mark.parametrize("build", [
        lambda: lattice_space(6.0, 0.01), lambda: lattice_space(8.0, 0.05),
        lambda: lattice_space(4.0, 0.25), lambda: lattice_space(20.0, 0.1),
        lambda: build_ctmc_model(500, "cycle").space,
        lambda: build_ctmc_model(25, "box:2").space, lambda: build_ctmc_model(64, "box:3").space,
    ])
    def test_metric_is_bit_equal_to_the_norm_of_the_difference(self, build):
        # |x - y| in 1-D and the per-dimension sum of squares match the
        # (n, n, d) formula they replace bit for bit
        space = build()
        diff = space.coords[:, None, :] - space.coords[None, :, :]
        rows = [space.distances(i) for i in range(space.n)]
        assert np.array_equal(rows, np.sqrt((diff**2).sum(axis=2)))

    def test_rows_are_formed_on_call_and_not_stored(self):
        space = lattice_space(250.0, 0.25)
        assert space.dist is None
        tracemalloc.start()
        try:
            lattice_space(250.0, 0.25).distances(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * space.n**2

    @pytest.mark.parametrize("defect,ok", [
        (0.9e-5, True), (1.1e-5, False),  # np.allclose's rtol 1e-5 of the mirror entry
        (-0.9e-5, True), (-1.1e-5, False), (np.nan, False),
    ])
    @pytest.mark.parametrize("where", [(3, 700), (700, 3), (130, 129)],
                             ids=["above", "below", "diagonal_tile"])
    def test_explicit_matrix_symmetry_keeps_the_allclose_rule(self, defect, ok, where):
        # a defect in one tile of a 1000-state discrete metric, in either
        # triangle, against np.allclose(dist, dist.T, atol=1e-12)
        n = 1000
        dist = 1.0 - np.eye(n)
        dist[where] += defect
        assert np.allclose(dist, dist.T, atol=1e-12) == ok
        if ok:
            StateSpace(tuple(range(n)), np.ones(n), None, dist)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                StateSpace(tuple(range(n)), np.ones(n), None, dist)

    def test_negative_and_nan_metrics_rejected(self):
        # nan is not close to itself, so a nan anywhere fails the symmetry test
        for d in ([[0.0, -1e-300], [-1e-300, 0.0]], [[0.0, np.nan], [np.nan, 0.0]],
                  [[np.nan, 1.0], [1.0, 0.0]]):
            with pytest.raises(ValueError, match="symmetric and nonnegative"):
                StateSpace((0, 1), np.ones(2), None, np.array(d))

    def test_explicit_matrix_check_makes_no_n_by_n_temporary(self):
        # the former check (dist < 0, allclose against dist.T) peaked at twice
        # the matrix; by tile pairs it stays within a few 128 x 128 tiles
        n = 1000
        dist = 1.0 - np.eye(n)
        tracemalloc.start()
        try:
            space = StateSpace(tuple(range(n)), np.ones(n), None, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(space.dist, dist)
        assert peak < 10 * 8 * 128**2

    def test_explicit_matrix_is_read_by_row(self):
        space = build_ctmc_model(5, "complete").space
        assert np.array_equal(space.distances(2), [1.0, 1.0, 0.0, 1.0, 1.0])
        assert space.diameter() == 1.0

    @pytest.mark.parametrize("build", [
        lambda: lattice_space(4.0, 0.25), lambda: build_ctmc_model(25, "box:2").space,
        lambda: build_ctmc_model(64, "box:3").space,
    ])
    def test_diameter_is_the_largest_distance(self, build):
        space = build()
        diff = space.coords[:, None, :] - space.coords[None, :, :]
        assert space.diameter() == np.sqrt((diff**2).sum(axis=2)).max()


class TestBallIndicator:
    def test_zero_radius_is_base_only(self):
        sp = grid1d(-2, 2)
        fam = ExhaustingFamily(2, lambda t: 0.0, t_min=0.0)
        mask = ball_indicator(sp, fam, 1.0)
        assert mask.sum() == 1 and mask[sp.index(2)]

    def test_diameter_radius_exhausts(self):
        sp = grid1d(-2, 2)
        fam = ExhaustingFamily(2, lambda t: sp.diameter(), t_min=0.0)
        assert ball_indicator(sp, fam, 1.0).all()

    def test_unit_ball_on_grid(self):
        # 1D grid {-2..2}, base 0, r(t) = t, t = 1 -> {-1, 0, 1}
        sp = grid1d(-2, 2)
        fam = ExhaustingFamily(2, lambda t: t, t_min=0.0)
        mask = ball_indicator(sp, fam, 1.0)
        assert list(np.where(mask)[0]) == [1, 2, 3]

    def test_below_t_min_is_domain_error(self):
        sp = grid1d(-2, 2)
        fam = ExhaustingFamily(2, lambda t: t, t_min=0.5)
        with pytest.raises(ValueError, match="t_min"):
            ball_indicator(sp, fam, 0.25)

    @given(
        t1=st.floats(0.0, 10.0),
        t2=st.floats(0.0, 10.0),
    )
    def test_monotone_in_t(self, t1, t2):
        sp = grid1d(-5, 5)
        fam = ExhaustingFamily(5, lambda t: 0.7 * t, t_min=0.0)
        lo, hi = sorted([t1, t2])
        small = ball_indicator(sp, fam, lo)
        big = ball_indicator(sp, fam, hi)
        assert np.all(big[small])  # K_lo subset of K_hi

    def test_exhaustion_time(self):
        sp = grid1d(-4, 4)
        fam = ExhaustingFamily(4, lambda t: t, t_min=0.0)
        t_exh = exhaustion_time(sp, fam)
        assert ball_indicator(sp, fam, t_exh).all()
        assert not ball_indicator(sp, fam, t_exh - 1e-6).all()

    @pytest.mark.parametrize("t_min", [np.nan, np.inf, -np.inf])
    def test_exhaustion_time_rejects_a_t_min_that_is_not_finite(self, t_min):
        # nan kept the doubling loop and -inf the bisection running forever
        fam = ExhaustingFamily(4, lambda t: t, t_min=t_min)
        with pytest.raises(ValueError, match="t_min must be finite"):
            exhaustion_time(grid1d(-4, 4), fam)


def reference_exhaustion_time(space, fam):
    """The full-ball-scan loop that exhaustion_time replaced: doubling, then
    bisection on ball_indicator(...).all()."""
    if ball_indicator(space, fam, fam.t_min).all():
        return fam.t_min
    hi = max(fam.t_min, 1.0)
    while not ball_indicator(space, fam, hi).all():
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("family does not exhaust the space below t = 1e+12")
    lo = fam.t_min
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if ball_indicator(space, fam, mid).all():
            hi = mid
        else:
            lo = mid
    return hi


# the config's radius kinds with parameters (a, b), nondecreasing for t >= 0
RADIUS_LAWS = {
    "linear": lambda a, b: lambda t: a * t,
    "power": lambda a, b: lambda t: a * t**b,
    "const": lambda a, b: lambda t: a,
    "table": lambda a, b: tabulated_radius([0.0, b, 2.0 * b + 1.0], [0.5 * a, a, 3.0 * a]),
}


@st.composite
def spaces_and_families(draw):
    """Integer points in the plane, so distances tie often, one radius law of
    each config kind, and t_min at 0 or above."""
    n = draw(st.integers(1, 8))
    coords = np.array(draw(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n)), float)
    space = StateSpace(tuple(range(n)), np.ones(n), coords)
    law = RADIUS_LAWS[draw(st.sampled_from(sorted(RADIUS_LAWS)))]
    a, b = draw(st.floats(0.05, 5.0)), draw(st.floats(0.2, 3.0))
    t_min = draw(st.sampled_from([0.0]) | st.floats(0.01, 4.0))
    base = draw(st.integers(0, n - 1))
    return space, ExhaustingFamily(base, law(a, b), t_min=t_min)


def outcome(f, *args):
    """The value of f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(spaces_and_families())
def test_exhaustion_time_equals_the_ball_scan_loop(case):
    space, fam = case
    got = outcome(exhaustion_time, space, fam)
    event("raises" if isinstance(got, str) else "at t_min" if got == fam.t_min else "bisects")
    assert got == outcome(reference_exhaustion_time, space, fam)


def test_tabulated_radius_is_monotone_and_clamped():
    r = tabulated_radius([1.0, 2.0, 3.0], [5.0, 4.0, 6.0])
    assert r(0.5) == 5.0  # clamped left
    assert r(2.0) == 5.0  # forced nondecreasing
    assert r(10.0) == 6.0  # clamped right
    assert r(2.5) == pytest.approx(5.5)
