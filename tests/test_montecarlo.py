import numpy as np
import pytest

from qergo.diagnostics import qsd_from_spectral
from qergo.models import PotentialSpec, build_ctmc_model
from qergo.montecarlo import (
    EstimateWithError,
    _simulate_batch,
    exit_probability,
    fk_conditioned_estimate,
    fk_estimate,
    fk_estimate_levy,
    sample_stable_increment,
)
from qergo.operators import feynman_kac_operator, uniformized_transition
from qergo.spectral import principal_triple


class TestPathSampler:
    """The batch path simulator that every estimator draws from."""

    def test_identity_kernel_never_moves(self):
        model = build_ctmc_model(3, np.eye(3), V=np.array([0.3, 0.5, 0.7]))
        t = 1.7
        w, end, stayed = _simulate_batch(model, 1, t, 500, np.random.default_rng(5), radius=0.0)
        assert np.all(end == model.space.index(1)) and stayed.all()
        np.testing.assert_allclose(w, np.exp(-0.5 * t), rtol=1e-13)

    def test_weight_bounds(self, birthdeath20_confining):
        w, _, _ = _simulate_batch(birthdeath20_confining, 9, 1.5, 5000, np.random.default_rng(2))
        assert np.all(w > 0.0) and np.all(w <= 1.0)  # V >= 0 here

    def test_occupation_matches_uniformized_row(self):
        # endpoint law under V = 0 against the matrix transition row; it holds
        # only with Poisson(t) jump counts and steps drawn from the rows of Q
        free = build_ctmc_model(5, "birth-death")
        t, n = 1.0, 20000
        w, end, _ = _simulate_batch(free, 0, t, n, np.random.default_rng(11))
        assert np.all(w == 1.0)
        freq = np.bincount(end, minlength=5) / n
        row = uniformized_transition(free, t).transition()[0]
        stderr = np.sqrt(row * (1 - row) / n)
        assert np.all(np.abs(freq - row) <= 4 * stderr)


class TestFkEstimate:
    def test_conservative_is_exactly_one(self, birthdeath5):
        free = build_ctmc_model(5, "birth-death")
        est = fk_estimate(free, 2, 1.0, np.ones(5), 500, rng=3)
        assert est.mean == pytest.approx(1.0, abs=1e-15)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_constant_potential_deterministic_weight(self):
        c, t = 0.6, 1.3
        model = build_ctmc_model(4, "cycle", V=np.full(4, c))
        est = fk_estimate(model, 0, t, np.ones(4), 500, rng=4)
        assert est.mean == pytest.approx(np.exp(-c * t), rel=1e-12)
        assert est.stderr < 1e-15

    def test_matches_matrix_oracle(self, birthdeath20_confining):
        t = 1.0
        est = fk_estimate(birthdeath20_confining, 9, t, np.ones(20), 100_000, rng=123)
        target = feynman_kac_operator(birthdeath20_confining, t).survival()[9]
        assert est.within(target)

    def test_reproducible_bit_for_bit(self, birthdeath5):
        a = fk_estimate(birthdeath5, 0, 1.0, np.ones(5), 5000, rng=77)
        b = fk_estimate(birthdeath5, 0, 1.0, np.ones(5), 5000, rng=77)
        assert a.mean == b.mean and a.stderr == b.stderr and a.seed == 77

    def test_stderr_scales_as_inverse_sqrt_n(self, birthdeath20_confining):
        errs = {}
        for n in (1000, 10_000, 100_000):
            errs[n] = fk_estimate(birthdeath20_confining, 9, 1.0, np.ones(20), n, rng=9).stderr
        for a, b in ((1000, 10_000), (10_000, 100_000)):
            ratio = errs[a] / errs[b]
            assert abs(ratio - np.sqrt(10.0)) <= 0.2 * np.sqrt(10.0)

    def test_unbiased_across_seeds(self, birthdeath5):
        # |MC - matrix| <= 3 stderr in at least 95% of independent repetitions
        t = 0.8
        target = feynman_kac_operator(birthdeath5, t).survival()[2]
        hits = sum(
            fk_estimate(birthdeath5, 2, t, np.ones(5), 2000, rng=seed).within(target)
            for seed in range(100)
        )
        assert hits >= 95

    def test_needs_two_samples(self, birthdeath5):
        with pytest.raises(ValueError):
            fk_estimate(birthdeath5, 0, 1.0, np.ones(5), 1, rng=0)

    def test_conditioned_estimate_approaches_qsd_mean(self, birthdeath5):
        spec = principal_triple(birthdeath5)
        m = qsd_from_spectral(spec, birthdeath5.space)
        f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        target = float(np.sum(m.weights * f))
        est = fk_conditioned_estimate(birthdeath5, 2, 12.0, f, 200_000, rng=21)
        assert abs(est.mean - target) <= max(3 * est.stderr, 2e-3)


class TestExitProbability:
    def test_radius_covering_space_is_certain(self, birthdeath5):
        est = exit_probability(birthdeath5, 2, 1.0, radius=10.0, n=200, rng=1)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_identity_kernel_never_exits(self):
        model = build_ctmc_model(3, np.eye(3))
        est = exit_probability(model, 0, 5.0, radius=0.5, n=200, rng=1)
        assert est.mean == 1.0

    def test_against_matrix_absorption(self, birthdeath20_confining):
        # staying probability from the centre vs a killed-transition oracle
        model = birthdeath20_confining
        x0, radius, t = 9, 2.0, 1.0
        est = exit_probability(model, x0, t, radius, n=100_000, rng=17)
        inside = model.space.dist[model.space.index(x0)] <= radius
        Qk = model.Q[np.ix_(inside, inside)]
        Gk = Qk - np.eye(int(inside.sum()))
        from scipy.linalg import expm

        stay = expm(t * Gk).sum(axis=1)[np.flatnonzero(np.flatnonzero(inside) == x0)[0]]
        assert est.within(float(stay))


class TestStableSampler:
    def test_alpha_range_guard(self):
        with pytest.raises(ValueError):
            sample_stable_increment(2.5, 0.1, rng=0)
        with pytest.raises(ValueError):
            sample_stable_increment(1.0, -0.1, rng=0)

    def test_gaussian_limit_variance(self):
        rng = np.random.default_rng(8)
        dt = 0.3
        draws = np.array([sample_stable_increment(2.0, dt, rng) for _ in range(20_000)])
        var = draws.var(ddof=1)
        stderr = var * np.sqrt(2.0 / (len(draws) - 1))  # var-of-variance, normal case
        assert abs(var - 2.0 * dt) <= 4 * stderr

    def test_cauchy_median_zero(self):
        rng = np.random.default_rng(9)
        draws = np.array([sample_stable_increment(1.0, 1.0, rng) for _ in range(20_000)])
        med = np.median(draws)
        # median stderr ~ 1/(2 f(0) sqrt(n)) with f the Cauchy density
        assert abs(med) <= 4 * (np.pi / 2) / np.sqrt(len(draws))

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_characteristic_function(self, xi):
        alpha, dt, n = 1.5, 0.7, 100_000
        rng = np.random.default_rng(10)
        draws = np.array([sample_stable_increment(alpha, dt, rng) for _ in range(n)])
        emp = np.cos(xi * draws)
        target = np.exp(-dt * abs(xi) ** alpha)
        assert abs(emp.mean() - target) <= 3 * emp.std(ddof=1) / np.sqrt(n)


class TestLevyEstimator:
    def test_zero_potential_is_one(self):
        pot = PotentialSpec("constant", scale=1e-300)
        est = fk_estimate_levy(1.0, pot, 0.0, 1.0, n_steps=8, n=100, rng=0)
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential_exact(self):
        c, t = 0.8, 1.0
        pot = PotentialSpec("constant", scale=c)
        est = fk_estimate_levy(1.5, pot, 0.0, t, n_steps=16, n=100, rng=0)
        assert est.mean == pytest.approx(np.exp(-c * t), rel=1e-12)
        assert est.stderr < 1e-15

    def test_needs_minimum_steps(self):
        with pytest.raises(ValueError):
            fk_estimate_levy(1.0, PotentialSpec("power", beta=1.0), 0.0, 1.0, 2, 100, rng=0)

    def test_reproducible(self):
        pot = PotentialSpec("power", beta=1.0)
        a = fk_estimate_levy(1.0, pot, 0.0, 0.5, 32, 2000, rng=55)
        b = fk_estimate_levy(1.0, pot, 0.0, 0.5, 32, 2000, rng=55)
        assert a.mean == b.mean and a.stderr == b.stderr


def test_estimate_validation():
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)
