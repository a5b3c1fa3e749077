import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        assert sp.dist[0, 4] == 4.0
        assert sp.diameter() == 4.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            StateSpace((0, 0), np.ones(2), np.array([[0.0], [1.0]]))

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            StateSpace((0, 1), np.array([1.0, 0.0]), np.array([[0.0], [1.0]]))

    def test_asymmetric_metric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            StateSpace((0, 1), np.ones(2), None, bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="vanish"):
            StateSpace((0, 1), np.ones(2), None, bad)


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


def test_tabulated_radius_is_monotone_and_clamped():
    r = tabulated_radius([1.0, 2.0, 3.0], [5.0, 4.0, 6.0])
    assert r(0.5) == 5.0  # clamped left
    assert r(2.0) == 5.0  # forced nondecreasing
    assert r(10.0) == 6.0  # clamped right
    assert r(2.5) == pytest.approx(5.5)
