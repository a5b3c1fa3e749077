import numpy as np
import pytest
from scipy.linalg import eig

from qergo.errors import ModelError, NondegeneracyError
from qergo.models import build_ctmc_model, build_ho_discretization, lattice_space
from qergo.operators import (
    KernelOperator,
    MarkovModel,
    feynman_kac_operator,
    identity_operator,
)
from qergo.spectral import (
    eigen_residuals,
    principal_triple,
    principal_triple_from_operator,
    spectral_to_text,
)
from qergo.statespace import StateSpace


def swap_triple_oracle(v):
    """Hand-derived 2x2 eigendecomposition of -G = [[1, -1], [-1, 1+v]]."""
    lam0 = (2.0 + v - np.sqrt(v**2 + 4.0)) / 2.0
    lam1 = (2.0 + v + np.sqrt(v**2 + 4.0)) / 2.0
    phi = np.array([1.0, 1.0 - lam0])
    phi = phi / np.sqrt(np.sum(phi**2))  # uniform mu = 1
    return lam0, lam1, phi


class TestPrincipalTriple:
    def test_swap_conservative(self, swap2):
        spec = principal_triple(swap2)
        assert spec.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert spec.gap == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(spec.phi0, spec.phi0[0])  # constant
        np.testing.assert_allclose(spec.phi0, spec.psi0, atol=1e-12)

    @pytest.mark.parametrize("v", [0.5, 1.0, 3.0])
    def test_swap_with_potential_matches_oracle(self, v):
        model = build_ctmc_model(2, "swap2", V=np.array([0.0, v]))
        lam0, lam1, phi = swap_triple_oracle(v)
        spec = principal_triple(model)
        assert spec.lambda0 == pytest.approx(lam0, abs=1e-12)
        assert spec.gap == pytest.approx(lam1 - lam0, abs=1e-12)
        np.testing.assert_allclose(spec.phi0, phi, atol=1e-12)

    def test_symmetric_model_has_equal_eigenfunctions(self, birthdeath5):
        spec = principal_triple(birthdeath5)
        assert np.max(np.abs(spec.phi0 - spec.psi0)) < 1e-10

    def test_nonreversible_model_has_distinct_eigenfunctions(self, cycle4):
        spec = principal_triple(cycle4)
        assert np.max(np.abs(spec.phi0 - spec.psi0)) > 1e-3
        assert np.all(spec.phi0 > 0) and np.all(spec.psi0 > 0)

    def test_normalization_and_pairing(self, cycle4):
        spec = principal_triple(cycle4)
        mu = cycle4.space.mu
        assert np.sum(spec.phi0**2 * mu) == pytest.approx(1.0)
        assert np.sum(spec.psi0**2 * mu) == pytest.approx(1.0)
        assert spec.Lambda == pytest.approx(np.sum(spec.phi0 * spec.psi0 * mu))

    def test_reducible_rejected(self):
        Q = np.block([[np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])]])
        sp = StateSpace((0, 1, 2, 3), np.ones(4), np.arange(4.0)[:, None])
        model = MarkovModel(sp, Q, np.zeros(4))
        with pytest.raises(ModelError, match="irreducible"):
            principal_triple(model)

    def test_lambda0_within_potential_range(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = 5
            W = rng.uniform(0.1, 1.0, (n, n))
            W = (W + W.T) / 2
            np.fill_diagonal(W, 0.0)
            rmax = W.sum(axis=1).max()
            Q = W / rmax  # symmetric off-diagonal, holding mass on the diagonal
            np.fill_diagonal(Q, 1.0 - W.sum(axis=1) / rmax)
            V = rng.uniform(0.0, 3.0, n)
            model = build_ctmc_model(n, Q, V=V)
            spec = principal_triple(model)
            assert V.min() - 1e-10 <= spec.lambda0 <= V.max() + 1e-10

    def test_lambda_bound_cauchy_schwarz(self, cycle4, birthdeath5):
        asym = principal_triple(cycle4)
        sym = principal_triple(birthdeath5)
        assert asym.Lambda < 1.0 - 1e-6  # phi0 != psi0
        assert sym.Lambda == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance_of_mu(self, weighted_bd):
        c = 7.0
        scaled = MarkovModel(
            weighted_bd.space.with_mu(c * weighted_bd.space.mu),
            weighted_bd.Q,
            weighted_bd.V,
        )
        a = principal_triple(weighted_bd)
        b = principal_triple(scaled)
        assert b.lambda0 == pytest.approx(a.lambda0, abs=1e-12)
        assert b.gap == pytest.approx(a.gap, abs=1e-12)
        np.testing.assert_allclose(b.phi0, a.phi0 / np.sqrt(c), atol=1e-12)
        np.testing.assert_allclose(b.psi0, a.psi0 / np.sqrt(c), atol=1e-12)
        # normalized measure m = psi0 mu is scale free
        ma = a.psi0 * weighted_bd.space.mu
        mb = b.psi0 * scaled.space.mu
        np.testing.assert_allclose(mb / mb.sum(), ma / ma.sum(), atol=1e-13)


class TestHODiscretization:
    def test_lambda0_approaches_dimension(self):
        # the lattice sum of the analytic kernel converges spectrally: the
        # eigenvalue sits at machine precision already on coarse grids, so we
        # check the limit rather than a visible decay
        for h in (0.4, 0.2, 0.1):
            op = build_ho_discretization(lattice_space(8.0, h), 1.0)
            spec = principal_triple_from_operator(op)
            assert abs(spec.lambda0 - 1.0) < 1e-10

    def test_gap_of_oscillator_is_two(self):
        # eigenvalues of the 1D oscillator are d + 2k
        op = build_ho_discretization(lattice_space(8.0, 0.05), 1.0)
        spec = principal_triple_from_operator(op)
        assert spec.gap == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("h", [0.4, 0.1])
    @pytest.mark.parametrize("t", [0.5, 1.25])
    def test_eigh_matches_left_right_eig_oracle(self, h, t):
        op = build_ho_discretization(lattice_space(6.0, h), t)
        mu = op.space.mu
        w, vl, vr = eig(op.transition(), left=True, right=True)
        order = np.argsort(-np.abs(w))
        lam0 = -np.log(w[order[0]].real) / t
        gap = -np.log(abs(w[order[1]])) / t - lam0

        def unit(v):
            v = np.abs(np.real(v))
            return v / np.sqrt(np.sum(v**2 * mu))

        spec = principal_triple_from_operator(op)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-12)
        assert spec.gap == pytest.approx(gap, rel=1e-12)
        assert np.max(np.abs(spec.phi0 - unit(vr[:, order[0]]))) <= 1e-10
        # the plain left eigenvector, reweighted to the mu-pairing convention
        assert np.max(np.abs(spec.psi0 - unit(vl[:, order[0]] / mu))) <= 1e-10

    def test_nonsymmetric_density_rejected(self):
        space = lattice_space(2.0, 0.5)
        u = build_ho_discretization(space, 1.0).density.copy()
        u[0, 1] *= 1.5
        with pytest.raises(ValueError, match="not symmetric"):
            principal_triple_from_operator(KernelOperator(1.0, u, space))


class TestEigenResiduals:
    def test_identity_limit(self, swap2_v01):
        spec = principal_triple(swap2_v01)
        ident = identity_operator(swap2_v01.space)
        r1, r2 = eigen_residuals(spec, ident)
        assert r1 < 1e-12 and r2 < 1e-12

    def test_exact_operator_residuals_small(self, swap2_v01):
        spec = principal_triple(swap2_v01)
        op = feynman_kac_operator(swap2_v01, 1.0)
        r1, r2 = eigen_residuals(spec, op)
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_exact_operator_residuals_zoo(self, weighted_bd, cycle4, frac_small):
        for model in (weighted_bd, cycle4, frac_small):
            spec = principal_triple(model)
            op = feynman_kac_operator(model, 0.8)
            r1, r2 = eigen_residuals(spec, op)
            assert max(r1, r2) <= 1e-8

    def test_trotter_residual_exceeds_exact(self, swap2_v01):
        # an inexact U_1: the density of U_{1.1} labelled t = 1
        spec = principal_triple(swap2_v01)
        exact = feynman_kac_operator(swap2_v01, 1.0)
        inexact = KernelOperator(1.0, feynman_kac_operator(swap2_v01, 1.1).density, swap2_v01.space)
        defect = (np.exp(-spec.lambda0) - np.exp(-1.1 * spec.lambda0)) * spec.phi0.max()
        r1, r2 = eigen_residuals(spec, inexact)
        assert max(eigen_residuals(spec, exact)) <= 1e-10 < defect * 0.5
        assert r1 == pytest.approx(defect, rel=1e-8) and r2 == pytest.approx(defect, rel=1e-8)


def test_spectral_text_record(cycle4):
    spec = principal_triple(cycle4)
    text = spectral_to_text(spec)
    lines = text.strip().splitlines()
    assert lines[0].startswith("lambda0 ")
    assert lines[1].startswith("gap ")
    assert lines[2].startswith("Lambda ")
    assert len(lines) == 4 + cycle4.n


def test_degenerate_dominant_eigenvalue_detected():
    # two decoupled blocks give a doubly degenerate lambda0, but reducibility
    # is caught first; an irreducible near-degenerate case is below tolerance
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = StateSpace((0, 1), np.ones(2), np.arange(2.0)[:, None])
    model = MarkovModel(sp, Q, np.zeros(2))
    spec = principal_triple(model)  # healthy case passes
    assert spec.gap > 0
