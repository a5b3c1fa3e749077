import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from qergo.diagnostics import (
    DiagnosticSeries,
    QuasiStationaryMeasure,
    agsd_certificate,
    eta_function,
    find_qsd,
    fit_exponential_rate,
    gsd_profile,
    heat_content,
    heat_content_upper_bound,
    ho_pgsd_radius,
    kappa_rate,
    kernel_convergence_error,
    pgsd_radius,
    point_mass,
    progressive_error,
    qsd_from_spectral,
    qsd_residual,
    quasi_ergodic_error,
    uniqueness_condition_check,
)
from qergo.errors import (
    DegenerateSupportError,
    FitError,
    NonuniquenessWarning,
    PositivityError,
)
from qergo.models import build_ctmc_model, build_ho_discretization, lattice_space
from qergo.operators import (
    KernelOperator,
    MarkovModel,
    feynman_kac_operator,
)
from qergo.spectral import SpectralData, principal_triple, principal_triple_from_operator
from qergo.statespace import (
    ExhaustingFamily,
    StateSpace,
    ball_indicator,
    exhaustion_time,
    tabulated_radius,
)


GOLDEN_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1 - lambda0 for the swap with V=(0,1)


class TestHeatContent:
    def test_conservative_mass(self, birthdeath20):
        for t in (0.5, 1.0, 4.0):
            z = heat_content(feynman_kac_operator(birthdeath20, t))
            assert z == pytest.approx(birthdeath20.space.mu.sum(), abs=1e-9)

    def test_constant_potential(self, swap2):
        c = 0.4
        model = build_ctmc_model(2, "swap2", V=np.full(2, c))
        for t in (0.5, 2.0):
            z = heat_content(feynman_kac_operator(model, t))
            assert z == pytest.approx(np.exp(-c * t) * 2.0, abs=1e-10)

    def test_upper_bound_on_zoo(self, birthdeath20_confining, weighted_bd, cycle4, frac_small):
        for model in (birthdeath20_confining, weighted_bd, cycle4, frac_small):
            for t in (0.5, 1.5):
                z = heat_content(feynman_kac_operator(model, t))
                assert z <= heat_content_upper_bound(model, t) * (1 + 1e-12)

    def test_adjoint_duality(self, cycle4):
        # <U_t 1, 1>_mu = <1, U*_t 1>_mu on a non-reversible chain
        op = feynman_kac_operator(cycle4, 1.1)
        mu = cycle4.space.mu
        dual = float(op.apply_adjoint(np.ones(cycle4.n)) @ mu)
        assert heat_content(op) == pytest.approx(dual, abs=1e-10)

    def test_dual_sum_is_the_adjoint_heat_content(self, cycle4, frac_small):
        # the dual sum reads the transposed density: sum_{x,y} mu(x) u(x,y) mu(y)
        for op in (feynman_kac_operator(cycle4, 1.1), feynman_kac_operator(frac_small, 0.7)):
            mu = op.space.mu
            z_dual = heat_content(op, dual=True)
            assert z_dual == pytest.approx(mu @ op.density @ mu, rel=1e-14)
            assert z_dual == pytest.approx(heat_content(op), rel=1e-14)


class TestQsd:
    def test_symmetric_measures_coincide(self, birthdeath5):
        spec = principal_triple(birthdeath5)
        m = qsd_from_spectral(spec, birthdeath5.space)
        m_star = qsd_from_spectral(spec, birthdeath5.space, adjoint=True)
        np.testing.assert_allclose(m.weights, m_star.weights, atol=1e-10)

    def test_swap_conservative_uniform(self, swap2):
        spec = principal_triple(swap2)
        m = qsd_from_spectral(spec, swap2.space)
        np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-12)

    def test_swap_with_potential_oracle(self, swap2_v01):
        # 2x2 left eigenvector: m proportional to (1, 1 - lambda0)
        spec = principal_triple(swap2_v01)
        m = qsd_from_spectral(spec, swap2_v01.space)
        expect = np.array([1.0, GOLDEN_PHI]) / (1.0 + GOLDEN_PHI)
        np.testing.assert_allclose(m.weights, expect, atol=1e-12)

    def test_residual_of_spectral_qsd_vanishes(self, swap2_v01, weighted_bd, cycle4, frac_small):
        for model in (swap2_v01, weighted_bd, cycle4, frac_small):
            spec = principal_triple(model)
            m = qsd_from_spectral(spec, model.space)
            for t in (0.5, 1.0, 2.0):
                assert qsd_residual(m, feynman_kac_operator(model, t)) <= 1e-9

    def test_point_mass_residual_positive(self, swap2_v01):
        op = feynman_kac_operator(swap2_v01, 1.0)
        assert qsd_residual(point_mass(swap2_v01.space, 0), op) > 1e-3

    def test_mixture_residual_between(self, swap2_v01):
        op = feynman_kac_operator(swap2_v01, 1.0)
        spec = principal_triple(swap2_v01)
        m = qsd_from_spectral(spec, swap2_v01.space)
        mix = QuasiStationaryMeasure(0.9 * m.weights + 0.1 * np.full(2, 0.5))
        r_m = qsd_residual(m, op)
        r_point = qsd_residual(point_mass(swap2_v01.space, 0), op)
        r_mix = qsd_residual(mix, op)
        assert r_m < r_mix < r_point

    def test_degenerate_support_error(self, swap2_v01):
        dead = KernelOperator(1.0, np.zeros((2, 2)), swap2_v01.space)
        with pytest.raises(DegenerateSupportError):
            qsd_residual(point_mass(swap2_v01.space, 0), dead)


@st.composite
def symmetric_qsd_cases(draw):
    """(op, equal_roots): a symmetric nonnegative density on 1-40 states with a
    random mu, strictly positive, on a sparse connected support (a random tree
    and a few chords, with a positive diagonal), with a zero diagonal and
    positive off-diagonal entries (3 or more states, so that it is primitive),
    or two copies of one block on shuffled states, whose Perron roots are equal."""
    kind = draw(st.sampled_from(["positive", "sparse", "zero_diagonal", "two_blocks"]))
    n = draw(st.integers(3 if kind == "zero_diagonal" else 2 if kind == "two_blocks" else 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mu = np.exp(rng.uniform(-2.0, 2.0, n))
    if kind == "positive":
        u = rng.uniform(0.01, 1.0, (n, n))
    elif kind == "sparse":
        u = np.diag(rng.uniform(0.1, 1.0, n))
        order = rng.permutation(n)
        for i in range(1, n):
            u[order[i], order[rng.integers(i)]] = rng.uniform(0.5, 1.5)
        chords = rng.random((n, n)) < 0.05
        u[chords] = rng.uniform(0.5, 1.5, chords.sum())
    elif kind == "zero_diagonal":
        u = rng.uniform(0.01, 1.0, (n, n))
        np.fill_diagonal(u, 0.0)
    else:
        k = n // 2
        block = rng.uniform(0.01, 1.0, (k, k))
        u = np.zeros((2 * k, 2 * k))
        u[:k, :k] = u[k:, k:] = block
        mu = np.tile(mu[:k], 2)
        shuffle = rng.permutation(2 * k)
        u, mu = u[np.ix_(shuffle, shuffle)], mu[shuffle]
    u = u + u.T
    space = StateSpace(tuple(range(len(mu))), mu, np.arange(len(mu))[:, None])
    return KernelOperator(1.0, u, space), kind == "two_blocks"


class TestFindQsd:
    def test_matches_spectral_on_zoo(self, swap2_v01, weighted_bd, cycle4, frac_small):
        for model in (swap2_v01, weighted_bd, cycle4, frac_small):
            spec = principal_triple(model)
            m = qsd_from_spectral(spec, model.space)
            fixed = find_qsd(feynman_kac_operator(model, 1.0))
            assert np.abs(fixed.weights - m.weights).sum() <= 1e-8
            assert fixed.source == "from-fixed-point"

    def test_doubly_stochastic_uniform(self, birthdeath20):
        fixed = find_qsd(feynman_kac_operator(birthdeath20, 1.0))
        np.testing.assert_allclose(fixed.weights, 1.0 / 20, atol=1e-10)

    def test_disconnected_components_warn(self):
        blk = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = np.block([[blk, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])
        sp = StateSpace((0, 1, 2, 3), np.ones(4), np.arange(4.0)[:, None])
        model = MarkovModel(sp, Q, np.zeros(4))
        op = feynman_kac_operator(model, 1.0)
        with pytest.warns(NonuniquenessWarning):
            find_qsd(op)

    @pytest.fixture
    def arnoldi_calls(self, monkeypatch):
        import qergo.diagnostics as diagnostics

        calls, arnoldi = [], diagnostics._arnoldi
        monkeypatch.setattr(diagnostics, "_arnoldi", lambda *a: calls.append(1) or arnoldi(*a))
        return calls

    @staticmethod
    def dense_left_perron(op):
        """The left Perron vector of the transition form by a dense scipy eig."""
        from scipy.linalg import eig

        w, vl = eig(op.transition(), left=True, right=False)
        v = np.abs(np.real(vl[:, np.argmax(np.abs(w))]))
        return v / v.sum()

    @pytest.mark.parametrize("name", ["weighted_bd", "birthdeath20_confining", "frac_small"])
    def test_symmetric_branch_matches_dense_eig(self, name, request, arnoldi_calls):
        model = request.getfixturevalue(name)
        op = feynman_kac_operator(model, 4.0 / principal_triple(model).gap)
        fixed = find_qsd(op)
        assert arnoldi_calls == []  # a self-adjoint U_t takes the subspace iteration
        assert np.abs(fixed.weights - self.dense_left_perron(op)).sum() <= 1e-12

    def test_small_gap_takes_no_arpack(self, birthdeath20, arnoldi_calls):
        # gap t = 0.012: a slowly decaying top of the spectrum, which the
        # 8-column block handles without a Krylov solver
        fixed = find_qsd(feynman_kac_operator(birthdeath20, 1.0))
        assert arnoldi_calls == []
        np.testing.assert_allclose(fixed.weights, 1.0 / 20, atol=1e-10)

    def test_non_self_adjoint_operator_takes_arnoldi(self, arnoldi_calls, dense_eigs):
        # n = 12 is past the dense fallback of n <= 7
        op = feynman_kac_operator(build_ctmc_model(12, "cycle", V=0.1 * np.arange(12.0)), 30.0)
        assert not op.self_adjoint()
        fixed = find_qsd(op)
        assert arnoldi_calls == [1] and dense_eigs == []
        assert np.abs(fixed.weights - self.dense_left_perron(op)).sum() <= 1e-12

    def test_one_state_kernel_is_the_point_mass(self):
        space = StateSpace((0,), np.array([2.0]), np.zeros((1, 1)))
        op = KernelOperator(1.0, np.array([[0.3]]), space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = find_qsd(op)
        assert np.array_equal(fixed.weights, [1.0])

    def test_mixed_sign_direction_of_a_simple_eigenvalue_raises(self, cycle4, monkeypatch):
        # a non-self-adjoint U_t reaches the patched Arnoldi solve
        import qergo.diagnostics as diagnostics

        def mixed_sign_arnoldi(M, k):
            v = np.ones(M.shape[0])
            v[0] = -1.0
            return np.array([1.0, 0.5]), v

        monkeypatch.setattr(diagnostics, "_arnoldi", mixed_sign_arnoldi)
        with pytest.raises(PositivityError, match="mixed signs"):
            find_qsd(feynman_kac_operator(cycle4, 1.0))

    @given(case=symmetric_qsd_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_symmetric_kernels_match_dense_eig(self, case):
        op, equal_roots = case
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fixed = find_qsd(op)
        assert [w.category for w in caught] == ([NonuniquenessWarning] if equal_roots else [])
        if not equal_roots:
            assert np.abs(fixed.weights - self.dense_left_perron(op)).sum() <= 1e-10
        # the fixed start block makes a repeat bit-identical
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonuniquenessWarning)
            assert np.array_equal(find_qsd(op).weights, fixed.weights)


class TestKernelConvergence:
    def test_rank_one_operator_is_fixed_point(self, cycle4):
        spec = principal_triple(cycle4)
        t = 1.3
        u = np.exp(-spec.lambda0 * t) * np.outer(spec.phi0, spec.psi0) / spec.Lambda
        op = KernelOperator(t, u, cycle4.space)
        assert kernel_convergence_error(op, spec) < 1e-13

    @pytest.mark.parametrize("row", [0, 127, 128, 255, 299])
    def test_row_blocks_give_the_whole_matrix_value(self, row):
        # n = 300 spans three row blocks; a bump in any row sets the sup, and
        # the value is the unblocked one bit for bit
        n, t = 300, 0.7
        sp = StateSpace(tuple(range(n)), np.ones(n), np.arange(n, dtype=float)[:, None])
        phi = np.linspace(0.5, 1.5, n) / np.sqrt(n)
        spec = SpectralData(0.3, phi, phi[::-1].copy(), float(phi @ phi[::-1]), 0.1)
        target = np.outer(spec.phi0, spec.psi0) / spec.Lambda
        density = np.exp(-spec.lambda0 * t) * target
        density[row, n - 1 - row] *= 1.5
        op = KernelOperator(t, density, sp)
        whole = float(np.abs(np.exp(spec.lambda0 * t) * op.density - target).max())
        assert kernel_convergence_error(op, spec) == whole
        assert whole == pytest.approx(0.5 * target[row, n - 1 - row], rel=1e-12)

    def test_decay_rate_matches_gap(self, swap2_v01):
        spec = principal_triple(swap2_v01)
        series = DiagnosticSeries("kernel_convergence")
        for t in np.linspace(1.5, 3.5, 6):
            err = kernel_convergence_error(feynman_kac_operator(swap2_v01, t), spec)
            series.append(t, err)
        rate, _, r2 = fit_exponential_rate(series, tail_fraction=1.0)
        assert -rate == pytest.approx(spec.gap, rel=0.05)
        assert r2 > 0.999

    def test_decay_rate_on_zoo_within_5pct(self, birthdeath5, cycle4, weighted_bd):
        # sample beyond 3/gap and fit the tail half, where subdominant modes
        # have died down even for weight-skewed models
        for model in (birthdeath5, cycle4, weighted_bd):
            spec = principal_triple(model)
            t_grid = np.linspace(3.0 / spec.gap, 9.0 / spec.gap, 9)
            series = DiagnosticSeries("kce")
            for t in t_grid:
                series.append(t, kernel_convergence_error(feynman_kac_operator(model, t), spec))
            rate, _, _ = fit_exponential_rate(series, tail_fraction=0.5)
            assert -rate == pytest.approx(spec.gap, rel=0.05)


class TestQuasiErgodicError:
    def test_stationary_start_gives_zero(self, weighted_bd):
        spec = principal_triple(weighted_bd)
        m = qsd_from_spectral(spec, weighted_bd.space)
        for t in (0.5, 2.0):
            op = feynman_kac_operator(weighted_bd, t)
            for p in (1, 2, np.inf):
                assert quasi_ergodic_error(op, spec, m, p) <= 1e-9

    def test_point_mass_rate_matches_gap(self, birthdeath5):
        spec = principal_triple(birthdeath5)
        sigma = point_mass(birthdeath5.space, 0)
        series = DiagnosticSeries("qe")
        for t in np.linspace(3.0 / spec.gap, 6.0 / spec.gap, 6):
            op = feynman_kac_operator(birthdeath5, t)
            series.append(t, quasi_ergodic_error(op, spec, sigma, np.inf))
        rate, _, _ = fit_exponential_rate(series, tail_fraction=1.0)
        assert -rate == pytest.approx(spec.gap, rel=0.10)

    def test_constant_direction_contributes_nothing(self, cycle4):
        # the dual-norm integrand pairs to zero against f = 1: both the
        # conditioned evolution and m are probability densities w.r.t. mu
        spec = principal_triple(cycle4)
        op = feynman_kac_operator(cycle4, 0.9)
        sigma = point_mass(cycle4.space, 2)
        mu = cycle4.space.mu
        su = sigma @ op.density
        g = su / (su @ mu) - spec.psi0 / np.sum(spec.psi0 * mu)
        assert abs(np.sum(g * mu)) < 1e-12

    def test_monotone_in_norm_index(self, birthdeath5, cycle4):
        # unit-weight atoms nest the L^p balls, so the sup grows with p
        for model in (birthdeath5, cycle4):
            spec = principal_triple(model)
            op = feynman_kac_operator(model, 0.7)
            sigma = point_mass(model.space, 0)
            e1 = quasi_ergodic_error(op, spec, sigma, 1)
            e2 = quasi_ergodic_error(op, spec, sigma, 2)
            einf = quasi_ergodic_error(op, spec, sigma, np.inf)
            assert e1 <= e2 + 1e-14 and e2 <= einf + 1e-14

    def test_degenerate_sigma(self, swap2_v01):
        spec = principal_triple(swap2_v01)
        dead = KernelOperator(1.0, np.zeros((2, 2)), swap2_v01.space)
        with pytest.raises(DegenerateSupportError):
            quasi_ergodic_error(dead, spec, point_mass(swap2_v01.space, 0), 2)


class TestProgressiveError:
    @pytest.mark.parametrize("name", ["weighted_bd", "cycle4"])  # reversible, non-reversible
    def test_sup_of_point_mass_errors(self, name, request):
        model = request.getfixturevalue(name)
        spec = principal_triple(model)
        op = feynman_kac_operator(model, 1.3)
        mask = np.zeros(model.n, dtype=bool)
        mask[[0, 2, 3]] = True
        expected = max(
            quasi_ergodic_error(op, spec, point_mass(model.space, x), "inf")
            for x in np.asarray(model.space.points)[mask]
        )
        assert progressive_error(op, spec, mask) == pytest.approx(expected, rel=1e-12)


class TestGsdProfile:
    def test_reverse_bound(self, weighted_bd, cycle4, frac_small):
        for model in (weighted_bd, cycle4, frac_small):
            spec = principal_triple(model)
            for t in (0.5, 1.5):
                prof = gsd_profile(feynman_kac_operator(model, t), spec)
                assert prof.min() >= 1.0 / spec.phi0.max() - 1e-12

    def test_conservative_profile_constant_in_t(self, birthdeath20):
        spec = principal_triple(birthdeath20)
        sups = []
        for t in (0.5, 1.0, 2.0):
            prof = gsd_profile(feynman_kac_operator(birthdeath20, t), spec)
            sups.append(prof.max())
            np.testing.assert_allclose(prof, 1.0 / spec.phi0, atol=1e-9)
        assert np.ptp(sups) < 1e-9

    def test_certificate_on_conservative_model(self, birthdeath20):
        # constant eigenfunctions: profile sup equals the saturation value
        spec = principal_triple(birthdeath20)
        ops = [feynman_kac_operator(birthdeath20, t) for t in (0.5, 1.0, 2.0)]
        certified, worst = agsd_certificate(ops, spec, level=2.0)
        assert certified and worst == pytest.approx(1.0, abs=1e-9)

    def test_ho_radius_grows_like_e2t(self):
        grid = lattice_space(8.0, 0.05)
        spec = principal_triple_from_operator(build_ho_discretization(grid, 1.0))
        C = 2.5
        radii = []
        for t in (0.75, 1.0, 1.25):
            op = build_ho_discretization(grid, t)
            r = pgsd_radius(gsd_profile(op, spec), grid, grid.points[grid.n // 2], C)
            closed = ho_pgsd_radius(t, C, 1)
            assert r is not None and abs(r - closed) <= 0.05 + 1e-9
            radii.append(r)
        growth = np.array(radii[1:]) / np.array(radii[:-1])
        np.testing.assert_allclose(growth, np.exp(2 * 0.25), rtol=0.05)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pgsd_radius_matches_brute_force_with_ties(self, dim):
        # integer coordinates and integer profile values: many points share a
        # distance from the base point, and many share a profile value
        rng = np.random.default_rng(dim)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            space = StateSpace(tuple(range(n)), np.ones(n), rng.integers(-3, 4, (n, dim)))
            profile = rng.integers(0, 6, n).astype(float)
            base = int(rng.integers(n))
            d = space.dist[base]
            assert pgsd_radius(profile, space, base, profile[base] - 0.5) is None
            for C in np.concatenate([np.unique(profile), np.unique(profile) + 0.5]):
                admissible = [r for r in np.unique(d) if profile[d <= r].max() <= C]
                want = float(max(admissible)) if admissible else None
                assert pgsd_radius(profile, space, base, C) == want


def bisect_ho_radius(t, C, d, hi=1e3):
    """Oracle: bisection on U_t1(|x|) <= C e^{-dt} phi0(|x|) using closed forms."""
    def dominated(r):
        log_lhs = -0.5 * d * np.log(np.cosh(2 * t)) - 0.5 * r**2 * np.tanh(2 * t)
        log_rhs = np.log(C) - d * t - 0.25 * d * np.log(np.pi) - r**2 / 2
        return log_lhs <= log_rhs
    if not dominated(0.0):
        return None
    lo, high = 0.0, hi
    if dominated(high):
        return high
    while high - lo > 1e-10:
        mid = 0.5 * (lo + high)
        if dominated(mid):
            lo = mid
        else:
            high = mid
    return lo


class TestHoPgsdRadius:
    def test_void_for_small_level_large_time(self):
        assert ho_pgsd_radius(6.0, 1.5, 1) is None  # C < (2 sqrt(pi))^{1/2}

    def test_critical_level_stays_bounded(self):
        C = (2.0 * np.sqrt(np.pi)) ** 0.5
        radii = [ho_pgsd_radius(t, C, 1) for t in (1.0, 2.0, 4.0, 8.0)]
        assert all(r is not None for r in radii)
        assert max(radii) < 2.0  # bounded set despite e^{4t} growth

    def test_against_bisection_oracle(self):
        r = ho_pgsd_radius(1.0, 10.0, 1)
        assert r == pytest.approx(bisect_ho_radius(1.0, 10.0, 1), abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ho_pgsd_radius(0.0, 10.0, 1)


class TestEta:
    def test_constant_eigenfunctions_jump_to_exhaustion(self, birthdeath20):
        # h == c: on the admissible domain, h never drops below e^{-gamma t},
        # so eta sits at the exhaustion time; below the domain it is an error
        spec = principal_triple(birthdeath20)  # phi0 = psi0 = const = c
        c = spec.phi0[0]
        fam = ExhaustingFamily(0, lambda s: s, t_min=0.0)
        gamma = 1.0
        for dt in (0.1, 2.0):
            t_valid = -np.log(c) / gamma + dt
            got = eta_function(spec, birthdeath20.space, fam, gamma, t_valid)
            assert got == pytest.approx(19.0, abs=1e-6)  # exhaustion radius
        with pytest.raises(ValueError, match="admissible"):
            eta_function(spec, birthdeath20.space, fam, gamma, -np.log(c) / gamma - 0.05)

    def test_ho_matches_continuum_inverse(self):
        grid = lattice_space(8.0, 0.05)
        spec = principal_triple_from_operator(build_ho_discretization(grid, 1.0))
        fam = ExhaustingFamily(grid.points[grid.n // 2], lambda s: s, t_min=0.0)
        gamma = spec.gap
        for t in (0.5, 1.0, 2.0):
            want = np.sqrt(2 * gamma * t - 0.5 * np.log(np.pi))
            got = eta_function(spec, grid, fam, gamma, t)
            assert abs(got - want) <= 0.05 + 1e-9  # one lattice cell

    def test_monotone_in_t(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        fam = ExhaustingFamily(9, lambda s: s, t_min=0.0)  # base near the centre
        h0 = min(spec.phi0[9], spec.psi0[9])
        t_lo = -np.log(h0) / spec.gap + 0.2
        vals = [
            eta_function(spec, birthdeath20_confining.space, fam, spec.gap, t)
            for t in np.linspace(t_lo, t_lo + 12.0, 6)
        ]
        assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_domain_error_below_range(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        fam = ExhaustingFamily(0, lambda s: s, t_min=0.0)
        with pytest.raises(ValueError, match="admissible"):
            eta_function(spec, birthdeath20_confining.space, fam, spec.gap, 1e-9)


def reference_eta(spec, space, fam, gamma, t):
    """The ball-scan loop that eta_function replaced: bisection on
    h(s) = min over K_s of min(phi0, psi0), one full ball scan per step."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    both = np.minimum(spec.phi0, spec.psi0)

    def h(s):
        mask = ball_indicator(space, fam, s)
        return float(both[mask].min()) if mask.any() else np.inf

    target = np.exp(-gamma * t)
    if h(fam.t_min) < target:
        raise ValueError("t below the admissible range: e^{-gamma t} exceeds h at t_min")
    s_exh = exhaustion_time(space, fam)
    if h(s_exh) >= target:
        return s_exh
    lo, hi = fam.t_min, s_exh
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if h(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


RADIUS_LAWS = {
    "linear": lambda a, b: lambda t: a * t,
    "power": lambda a, b: lambda t: a * t**b,
    "const": lambda a, b: lambda t: a,
    "table": lambda a, b: tabulated_radius([0.0, b, 2.0 * b + 1.0], [0.5 * a, a, 3.0 * a]),
}


@st.composite
def eta_cases(draw):
    """A space of integer points (tied distances), a radius law of each config
    kind with t_min at 0 or above, ground states on a coarse grid of values
    (tied values), and a target e^{-gamma t} at, near or between them."""
    n = draw(st.integers(1, 8))
    xs = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
    space = StateSpace(tuple(range(n)), np.ones(n), xs[:, None])
    law = RADIUS_LAWS[draw(st.sampled_from(sorted(RADIUS_LAWS)))]
    fam = ExhaustingFamily(
        draw(st.integers(0, n - 1)),
        law(draw(st.floats(0.05, 5.0)), draw(st.floats(0.2, 3.0))),
        t_min=draw(st.sampled_from([0.0]) | st.floats(0.01, 1.0)),
    )
    grid = st.lists(st.sampled_from([0.1, 0.2, 0.4, 0.7, 1.0]), min_size=n, max_size=n)
    spec = SimpleNamespace(phi0=np.array(draw(grid)), psi0=np.array(draw(grid)))
    if draw(st.booleans()):  # the base point at the top, so that t_min is admissible
        spec.phi0[fam.base_point] = spec.psi0[fam.base_point] = 1.0
    level = draw(st.sampled_from([0.1, 0.2, 0.4, 0.7, 1.0]) | st.floats(0.05, 1.2))
    gamma = draw(st.floats(0.1, 3.0))
    return spec, space, fam, gamma, -np.log(level) / gamma


def outcome(f, *args):
    """The value of f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300)
@given(eta_cases())
def test_eta_equals_the_ball_scan_loop(case):
    spec, space, fam, gamma, t = case
    got = outcome(eta_function, *case)
    if isinstance(got, str):
        event("admissible" if "admissible" in got else "no exhaustion")
    else:
        event("exhaustion time" if got == outcome(exhaustion_time, space, fam) else "bisection")
    assert got == outcome(reference_eta, *case)


class TestKappa:
    def test_whole_space_family_reduces_to_exponential(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        diam = birthdeath20_confining.space.diameter()
        fam = ExhaustingFamily(0, lambda s: diam + 1.0, t_min=0.0)
        op0 = feynman_kac_operator(birthdeath20_confining, 1.0)
        for t in (1.0, 3.0):
            got = kappa_rate(op0, spec, fam, b=1.0 / 3, t=t)
            assert got == pytest.approx(np.exp(-spec.gap * t / 3.0), abs=1e-14)

    def test_nonincreasing_with_confining_potential(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        fam = ExhaustingFamily(9, lambda s: 1.5 * s, t_min=0.0)
        op0 = feynman_kac_operator(birthdeath20_confining, 1.0)
        vals = [kappa_rate(op0, spec, fam, 1.0 / 3, t) for t in np.linspace(1.0, 12.0, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_b_range_guard(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        fam = ExhaustingFamily(0, lambda s: s, t_min=0.0)
        with pytest.raises(ValueError):
            kappa_rate(feynman_kac_operator(birthdeath20_confining, 1.0), spec, fam, 0.7, 2.0)


class TestUniquenessCondition:
    def test_conservative_value_two(self, birthdeath20):
        spec = principal_triple(birthdeath20)
        ops = [feynman_kac_operator(birthdeath20, t) for t in (0.5, 1.0, 2.0)]
        stable, sup = uniqueness_condition_check(ops, spec)
        assert stable and sup == pytest.approx(2.0, abs=1e-9)

    def test_confining_stabilizes(self, birthdeath20_confining):
        spec = principal_triple(birthdeath20_confining)
        t_grid = np.linspace(3.0 / spec.gap, 8.0 / spec.gap, 5)
        ops = [feynman_kac_operator(birthdeath20_confining, t) for t in t_grid]
        stable, sup = uniqueness_condition_check(ops, spec)
        assert stable and np.isfinite(sup)


class TestOperatorOnlyDiagnostics:
    """agsd_certificate, kappa_rate and uniqueness_condition_check read only
    the operators they are given: here bare, non-symmetric densities with no
    model or engine behind them, checked against the formulas."""

    mu = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    space = StateSpace((0, 1, 2, 3, 4), mu, np.arange(5.0)[:, None])
    phi0 = np.array([0.9, 1.1, 0.7, 0.5, 0.3])
    psi0 = np.array([0.4, 0.8, 1.2, 0.6, 0.2])
    spec = SpectralData(0.3, phi0, psi0, float(np.sum(phi0 * psi0 * mu)), 0.7)

    def bare(self, t, seed):
        density = np.random.default_rng(seed).uniform(0.1, 1.0, (5, 5))
        return KernelOperator(t, density, self.space)

    def test_agsd_certificate_is_the_worst_profile_ratio(self):
        ops = [self.bare(t, seed) for seed, t in enumerate((0.5, 1.0, 1.5))]
        saturation = np.sum(self.psi0 * self.mu) / self.spec.Lambda
        want = max(
            np.max(np.exp(0.3 * op.t) * (op.density @ self.mu) / self.phi0) for op in ops
        ) / saturation
        certified, worst = agsd_certificate(ops, self.spec, level=want * (1 + 1e-9))
        assert certified and worst == pytest.approx(want, rel=1e-14)
        assert agsd_certificate(ops, self.spec, level=want * (1 - 1e-9)) == (False, worst)

    def test_uniqueness_reads_both_survivals_at_each_operator_time(self):
        ops = [self.bare(t, seed) for seed, t in enumerate((0.5, 1.0, 1.5))]
        vals = [np.exp(0.3 * op.t) * np.max(op.density @ self.mu + op.density.T @ self.mu)
                for op in ops]
        stable, sup = uniqueness_condition_check(ops, self.spec)
        assert sup == pytest.approx(max(vals), rel=1e-14)
        assert stable == (abs(vals[-1] / vals[-2] - 1.0) <= 1e-3)
        # densities e^{-lambda0 t} D give one value at every time: stabilized
        D = self.bare(1.0, 9).density
        steady = [KernelOperator(t, np.exp(-0.3 * t) * D, self.space) for t in (1.0, 2.0)]
        stable, sup = uniqueness_condition_check(steady, self.spec)
        assert stable and sup == pytest.approx(np.max(D @ self.mu + D.T @ self.mu), rel=1e-12)
        with pytest.raises(ValueError, match="two grid times"):
            uniqueness_condition_check(steady[:1], self.spec)

    def test_kappa_reads_the_survivals_of_op0_outside_the_ball(self):
        op0 = self.bare(0.25, 4)
        fam = ExhaustingFamily(0, lambda s: s, t_min=0.0)
        s, sd = op0.density @ self.mu, op0.density.T @ self.mu
        # K_{bt} at b t = 1 holds points 0 and 1
        want = np.exp(-0.7 * 1.0) + s[2:].max() + sd[2:].max()
        assert kappa_rate(op0, self.spec, fam, 0.25, 4.0) == pytest.approx(want, rel=1e-14)
        # K_{bt} at b t = 5 is the whole space: the exponential alone
        assert kappa_rate(op0, self.spec, fam, 0.25, 20.0) == np.exp(-0.7 * 5.0)


class TestFitExponentialRate:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 3.0, 10)
        series = DiagnosticSeries("exact", [(t, 5.0 * np.exp(-3.0 * t)) for t in ts])
        rate, intercept, r2 = fit_exponential_rate(series, 1.0)
        assert rate == pytest.approx(-3.0, abs=1e-10)
        assert intercept == pytest.approx(np.log(5.0), abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)
        assert series.fit == (rate, intercept, r2)

    def test_constant_series(self):
        series = DiagnosticSeries("const", [(t, 2.0) for t in range(6)])
        rate, _, _ = fit_exponential_rate(series, 1.0)
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_values_raise(self):
        series = DiagnosticSeries("bad", [(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0)])
        with pytest.raises(FitError):
            fit_exponential_rate(series, 1.0)

    def test_short_window_rejected(self):
        series = DiagnosticSeries("short", [(0.0, 1.0), (1.0, 0.5), (2.0, 0.2)])
        with pytest.raises(ValueError, match="4 samples"):
            fit_exponential_rate(series, 1.0)

    def test_series_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            DiagnosticSeries("x", [(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError, match="finite"):
            DiagnosticSeries("x", [(0.0, np.nan)])


def test_quasi_stationary_measure_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        QuasiStationaryMeasure(np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="nonnegative"):
        QuasiStationaryMeasure(np.array([1.5, -0.5]))
