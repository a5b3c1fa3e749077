import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig, eigh
from scipy.optimize import brentq

from qergo.diagnostics import find_qsd
from qergo.errors import ModelError, NondegeneracyError, PositivityError
from qergo.models import build_ctmc_model, build_ho_discretization, lattice_space, zoo_build
from qergo.operators import (
    KernelOperator,
    MarkovModel,
    feynman_kac_operator,
)
from qergo.spectral import (
    _arnoldi,
    eigen_residuals,
    principal_triple,
    principal_triple_from_operator,
    spectral_to_text,
)
from qergo.statespace import StateSpace

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


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
        c, sp = 7.0, weighted_bd.space
        scaled = MarkovModel(
            StateSpace(sp.points, c * sp.mu, sp.coords, sp.dist),
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


@st.composite
def nonreversible_chains(draw):
    """Non-reversible chain on 4-40 states, on both sides of the triple's dense
    fallback (n <= 7), with its invariant mu and a V >= 0; a rotation of
    weight >= 0.2 keeps it irreducible.  A clustered draw couples two copies
    of a chain on n/2 states, with equal V, at rate eps in [1e-4, 5e-4]:
    -G = (1 - eps)(I - Q) + V on the symmetric vectors and that plus 2 eps on
    the antisymmetric ones, so the gap is at most 2 eps and the top ratio
    e^{-gap} of U_1 is >= 0.999.  The Perron vectors' condition grows as
    1 / gap: with eps down to 1e-5, two dense eigs of one U_{1/2} on 6 states
    differed by 1.004e-10 in L1."""
    clustered = draw(st.booleans())
    n = draw(st.integers(2, 20) if clustered else st.integers(4, 40))
    W = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)))
    Q = W.reshape(n, n) + draw(st.floats(0.2, 1.0)) * np.roll(np.eye(n), 1, axis=1)
    Q /= Q.sum(axis=1, keepdims=True)
    V = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    if clustered:
        eps = draw(st.floats(1e-4, 5e-4))
        Q = np.block([[(1 - eps) * Q, eps * np.eye(n)], [eps * np.eye(n), (1 - eps) * Q]])
        n, V = 2 * n, np.tile(V, 2)
    A = np.vstack([(Q.T - np.eye(n))[:-1], np.ones(n)])
    mu = n * np.linalg.solve(A, np.eye(n)[-1])
    return build_ctmc_model(n, Q, mu=mu, V=V)


class TestShiftInvertTriple:
    """The non-reversible triple: Arnoldi on the inverse of -G shifted below min V."""

    @given(model=nonreversible_chains())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eig(self, model):
        mu = model.space.mu
        w, vl, vr = eig(-model.generator(), left=True, right=True)
        order = np.argsort(w.real)
        lam0, gap = w[order[0]].real, w[order[1]].real - w[order[0]].real

        def unit(v):
            v = np.abs(np.real(v))
            return v / np.sqrt(np.sum(v**2 * mu))

        phi, psi = unit(vr[:, order[0]]), unit(vl[:, order[0]] / mu)
        spec = principal_triple(model)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-9, abs=1e-12)  # V = 0 gives lam0 = 0
        assert spec.gap == pytest.approx(gap, rel=1e-9)
        assert spec.Lambda == pytest.approx(np.sum(phi * psi * mu), rel=1e-9)
        assert np.max(np.abs(spec.phi0 - phi)) <= 1e-8 * phi.max()
        assert np.max(np.abs(spec.psi0 - psi)) <= 1e-8 * psi.max()

    @pytest.mark.parametrize("v", [0.0, 0.3])
    def test_constant_potential_cycle(self, v, dense_eigs):
        # min V is lambda0 itself here, so a shift at min V would be singular;
        # both Arnoldi runs converge, with no dense fallback
        model = build_ctmc_model(12, "cycle", V=np.full(12, v))
        spec = principal_triple(model)
        assert dense_eigs == []
        assert spec.lambda0 == pytest.approx(v, abs=1e-12)
        np.testing.assert_allclose(spec.phi0, 1.0 / np.sqrt(12), rtol=1e-10)
        np.testing.assert_allclose(spec.psi0, 1.0 / np.sqrt(12), rtol=1e-10)

    def test_cycle_lambda0_solves_the_characteristic_equation(self):
        # -G = I - R + diag V with R the rotation: det = prod(1 + V_i - lam) - 1,
        # whose one real root below 1 + min V is lambda0
        model = zoo_build("cycle", {"n": 500, "potential": "power", "beta": "1.0", "scale": "2e-4"})
        V = model.V
        root = brentq(lambda lam: np.sum(np.log1p(V - lam)), V.min(), V.min() + 0.999,
                      xtol=1e-16, rtol=4 * np.finfo(float).eps)
        assert principal_triple(model).lambda0 == pytest.approx(root, rel=1e-12)

    def test_cycle_gap_stays_inside_the_bench_check(self):
        # the bench's cycle_nonrev model, whose gap it checks against
        # reference.json at 1e-9 relative.  The triple is 8.52e-10 below the
        # reference at one and two BLAS threads alike.  A dense eig of -G moves
        # with the thread count (1.6e-11 above the reference at one, 1.15e-10
        # below at two), so the triple is 8.68e-10 or 7.37e-10 from it.  Both
        # bounds sit above today's values and below what a triple at the
        # bench's bar would read, so a change to the triple's arithmetic that
        # moves its gap toward the bar fails here before the bench does
        model = zoo_build("cycle", {"n": 500, "potential": "power", "beta": "1.0", "scale": "2e-4"})
        gap = principal_triple(model).gap
        re = np.sort(np.linalg.eig(-model.generator())[0].real)
        dense, ref = re[1] - re[0], json.loads(REFERENCE.read_text())["workloads"]["cycle_nonrev"]["gap"]
        assert abs(gap - dense) <= 8.8e-10 * dense
        assert abs(gap - ref) <= 9e-10 * ref

    @pytest.mark.parametrize("scale", ["1e-3", "1e-2"])
    def test_cycle_past_the_floor_raises(self, scale):
        # phi0 and psi0 span so many decades that the left Perron vector is
        # below round-off at most points.  At 1e-3 the true lambda0 is
        # 0.2390530677468 and the Krylov estimate is 4.4e-6 above it: the
        # residual check must stop the run with a typed error, never let a
        # lambda0 off by more than 1e-12 through
        model = zoo_build("cycle", {"n": 500, "potential": "power", "beta": "1.0", "scale": scale})
        with pytest.raises((NondegeneracyError, PositivityError)):
            principal_triple(model)

    def test_residuals_of_an_irreducible_chain_name_the_round_off_floor(self):
        # at 1e-3 lambda0 is simple and the chain irreducible: the left
        # residual fails because psi0 spans more decades than a double resolves
        model = zoo_build("cycle", {"n": 500, "potential": "power", "beta": "1.0", "scale": "1e-3"})
        assert model.irreducible
        floor = "irreducible, so an eigenfunction fell below the double round-off floor"
        with pytest.raises(NondegeneracyError, match=floor):
            principal_triple(model)

    def test_mixed_signs_of_an_irreducible_chain_name_the_round_off_floor(self):
        # at 1e-2 the left vector's mixed signs are round-off, not reducibility:
        # the triple has already found the chain irreducible
        model = zoo_build("cycle", {"n": 500, "potential": "power", "beta": "1.0", "scale": "1e-2"})
        assert model.irreducible
        floor = "irreducible, so it fell below the double round-off floor"
        with pytest.raises(PositivityError, match=floor) as info:
            principal_triple(model)
        assert "reducible or" not in str(info.value)


@given(model=nonreversible_chains(), t=st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_find_qsd_of_a_nonreversible_chain_matches_dense_eig(model, t):
    # find_qsd's Arnoldi on U_t against the left Perron vector of a dense eig
    op = feynman_kac_operator(model, t)
    w, vl = eig(op.transition(), left=True, right=False)
    v = np.abs(np.real(vl[:, np.argmax(np.abs(w))]))
    assert np.abs(find_qsd(op).weights - v / v.sum()).sum() <= 1e-10


class TestArnoldiCap:
    """``_arnoldi`` grows its Krylov space past 80 steps up to 400, and raises
    where it used to take a dense eig."""

    def test_clustered_top_converges_past_80_steps_without_a_dense_eig(self, dense_eigs):
        # M = X diag(d) X^{-1} at n = 500 with d = (1, 0.999, a bulk in
        # [-0.9, 0.9]): the top ratio is 0.999, and the Ritz pairs settle at
        # 160 steps
        n = 500
        rng = np.random.default_rng(5)
        d = np.concatenate([[1.0, 0.999], np.linspace(-0.9, 0.9, n - 2)])
        X = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        M = np.linalg.solve(X.T, (X * d).T).T

        class Counted:
            calls = 0

            def __len__(self):
                return n

            def __matmul__(self, v):
                Counted.calls += 1
                return M @ v

        theta, v = _arnoldi(Counted(), 2)
        assert 80 < Counted.calls <= 400 and dense_eigs == []
        w, Xd = eig(M)
        dense_eigs.clear()
        top = np.argsort(-np.abs(w))[:2]
        # the stopping test bounds the Ritz residual ||M x - theta x|| by
        # 1e-14 |theta0|, and the Arnoldi relation holds to n eps ||M|| in
        # floating point.  For the unit-column eigenvector matrix Xd (Bauer-
        # Fike) an eigenvalue then sits within kappa(Xd) rho of theta, and the
        # Ritz vector within kappa(Xd) rho / delta of the eigendirection, delta
        # being the distance to the rest of the spectrum (>= 1e-3 here); the
        # dense reference has the same bound with its own backward error
        Xd = Xd / np.linalg.norm(Xd, axis=0)
        rho = 1e-14 * abs(theta[0]) + n * np.finfo(float).eps * np.linalg.norm(M, 2)
        kappa = np.linalg.cond(Xd)
        np.testing.assert_allclose(theta, w[top], rtol=0, atol=2 * kappa * rho)
        v, x0 = np.real(v) / np.linalg.norm(v), np.real(Xd[:, top[0]])
        delta = np.abs(w[top[0]] - np.delete(w, top[0])).min() - kappa * rho
        assert min(np.linalg.norm(v - x0), np.linalg.norm(v + x0)) <= 2 * 2 * kappa * rho / delta

    def test_rotation_raises_at_the_cap(self, dense_eigs):
        # every eigenvalue of a rotation has modulus 1: no Ritz pair settles,
        # and 500 states are more than the 400-step cap
        R = np.roll(np.eye(500), 1, axis=1)
        with pytest.raises(NondegeneracyError, match=r"400 steps: residual \d\.\de[-+]\d+ \|theta0\|"):
            _arnoldi(R, 2)
        assert dense_eigs == []


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

    @pytest.mark.parametrize("h", [0.4, 0.1])
    @pytest.mark.parametrize("t", [0.5, 1.25])
    def test_lanczos_matches_dense_eigh_oracle(self, h, t):
        op = build_ho_discretization(lattice_space(6.0, h), t)
        mu = op.space.mu
        r = np.sqrt(mu)
        w, W = eigh(r[:, None] * op.density * r[None, :])
        order = np.argsort(-np.abs(w))
        lam0 = -np.log(w[order[0]]) / t
        gap = -np.log(abs(w[order[1]])) / t - lam0
        phi = np.abs(W[:, order[0]]) / r
        phi = phi / np.sqrt(np.sum(phi**2 * mu))

        spec = principal_triple_from_operator(op)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-12)
        assert spec.gap == pytest.approx(gap, rel=1e-12)
        assert np.max(np.abs(spec.phi0 - phi)) <= 1e-10
        # the fixed start vector makes a repeat bit-identical
        assert np.array_equal(principal_triple_from_operator(op).phi0, spec.phi0)

    def test_negative_second_eigenvalue_sets_the_gap(self):
        # strictly positive but nearly bipartite: the heavy weights join the two
        # halves, so the second-largest modulus is a negative eigenvalue
        rng = np.random.default_rng(7)
        m = 20
        block = rng.uniform(0.5, 1.5, (m, m))
        u = np.full((2 * m, 2 * m), 0.05)
        u[:m, m:] += block
        u[m:, :m] += block.T
        space = StateSpace(tuple(range(2 * m)), rng.uniform(0.5, 1.5, 2 * m), np.arange(2 * m))
        r = np.sqrt(space.mu)
        w = np.linalg.eigvalsh(r[:, None] * u * r[None, :])
        order = np.argsort(-np.abs(w))
        assert w[order[1]] < 0 < w[order[0]] and abs(w[order[1]]) > 2 * abs(w[order[2]])

        spec = principal_triple_from_operator(KernelOperator(0.5, u, space))
        assert spec.lambda0 == pytest.approx(-np.log(w[order[0]]) / 0.5, rel=1e-12)
        assert spec.gap == pytest.approx(np.log(w[order[0]] / abs(w[order[1]])) / 0.5, rel=1e-12)

    def test_two_identical_mehler_blocks_rejected(self):
        # a reducible kernel has a doubled dominant eigenvalue; the
        # support-graph scan rejects it before any solve
        block = build_ho_discretization(lattice_space(3.0, 0.25), 1.0)
        n = block.space.n
        u = np.zeros((2 * n, 2 * n))
        u[:n, :n] = u[n:, n:] = block.density
        space = StateSpace(tuple(range(2 * n)), np.tile(block.space.mu, 2), np.arange(2 * n))
        with pytest.raises(NondegeneracyError):
            principal_triple_from_operator(KernelOperator(1.0, u, space))

    def test_nonsymmetric_density_rejected(self):
        space = lattice_space(2.0, 0.5)
        u = build_ho_discretization(space, 1.0).density.copy()
        u[0, 1] *= 1.5
        with pytest.raises(ValueError, match="not symmetric"):
            principal_triple_from_operator(KernelOperator(1.0, u, space))


@st.composite
def symmetric_kernels(draw):
    """A symmetric nonnegative density on 2-60 states with a random mu, scaled
    so that e^{-lambda0} = 1/2: strictly positive, on a sparse connected
    support (a random tree and a few chords, with a positive diagonal so that
    -rho0 is no eigenvalue), or nearly bipartite, where the second-largest
    modulus is a negative eigenvalue."""
    n = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["positive", "sparse", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "positive":
        u = rng.uniform(0.01, 1.0, (n, n))
    elif kind == "sparse":
        u = np.diag(rng.uniform(0.1, 1.0, n))
        order = rng.permutation(n)
        for i in range(1, n):
            u[order[i], order[rng.integers(i)]] = rng.uniform(0.5, 1.5)
        chords = rng.random((n, n)) < 0.05
        u[chords] = rng.uniform(0.5, 1.5, chords.sum())
    else:
        m = int(rng.integers(1, n))
        u = np.full((n, n), 0.05)
        u[:m, m:] += rng.uniform(0.5, 1.5, (m, n - m))
    u = u + u.T
    mu = np.exp(rng.uniform(-2.0, 2.0, n))
    r = np.sqrt(mu)
    u *= 0.5 / np.linalg.eigvalsh(r[:, None] * u * r[None, :])[-1]
    return KernelOperator(1.0, u, StateSpace(tuple(range(n)), mu, np.arange(n)))


class TestSubspaceTriple:
    """The kernel triple by block subspace iteration, against a dense eigh."""

    @staticmethod
    def dense_triple(op):
        r = np.sqrt(op.space.mu)
        w, W = np.linalg.eigh(r[:, None] * op.density * r[None, :])
        order = np.argsort(-np.abs(w))
        phi = np.abs(W[:, order[0]]) / r
        phi = phi / np.sqrt(np.sum(phi**2 * op.space.mu))
        lam0 = -np.log(w[order[0]]) / op.t
        return lam0, -np.log(abs(w[order[1]])) / op.t - lam0, phi

    @given(op=symmetric_kernels())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_eigh(self, op):
        lam0, gap, phi = self.dense_triple(op)
        spec = principal_triple_from_operator(op)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-12)
        assert spec.gap == pytest.approx(gap, rel=1e-12)
        assert np.max(np.abs(spec.phi0 - phi)) <= 1e-10 * phi.max()
        # the fixed start block makes a repeat bit-identical
        again = principal_triple_from_operator(op)
        assert np.array_equal(again.phi0, spec.phi0)
        assert (again.lambda0, again.gap) == (spec.lambda0, spec.gap)

    def test_one_state_kernel_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        op = KernelOperator(1.0, np.array([[0.5]]), StateSpace((0,), np.ones(1), np.arange(1)))
        with pytest.raises(ValueError, match="gap needs at least 2 states"):
            principal_triple_from_operator(op)

    def test_two_state_kernel_is_exact(self):
        # S = [[a, b], [b, c]] with mu = 1 has eigenvalues
        # (a + c)/2 +- sqrt(((a - c)/2)^2 + b^2)
        a, b, c = 0.5, 0.2, 0.3
        space = StateSpace((0, 1), np.ones(2), np.arange(2))
        op = KernelOperator(1.0, np.array([[a, b], [b, c]]), space)
        root = np.hypot((a - c) / 2, b)
        rho0, rho1 = (a + c) / 2 + root, (a + c) / 2 - root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = principal_triple_from_operator(op)
        assert spec.lambda0 == pytest.approx(-np.log(rho0), rel=1e-14)
        assert spec.gap == pytest.approx(np.log(rho0 / rho1), rel=1e-14)
        phi = np.array([b, rho0 - a])
        np.testing.assert_allclose(spec.phi0, phi / np.linalg.norm(phi), rtol=1e-14)

    def test_three_state_kernel_is_exact(self):
        u = np.array([[0.4, 0.1, 0.2], [0.1, 0.6, 0.3], [0.2, 0.3, 0.1]])
        op = KernelOperator(0.5, u, StateSpace((0, 1, 2), np.array([0.5, 1.0, 2.0]), np.arange(3)))
        lam0, gap, phi = self.dense_triple(op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = principal_triple_from_operator(op)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-14)
        assert spec.gap == pytest.approx(gap, rel=1e-14)
        np.testing.assert_allclose(spec.phi0, phi, rtol=1e-14)

    def test_phi0_tails_keep_their_relative_accuracy(self):
        # phi0 falls to 1.5e-8 of its peak at the lattice edge; the returned
        # S x0 holds the eigen-identity entry by entry, where the bare Ritz
        # vector x0 misses it by ~4e-9 relative
        op = build_ho_discretization(lattice_space(6.0, 0.1), 1.0)
        spec = principal_triple_from_operator(op)
        phi = spec.phi0
        assert phi.min() < 1e-7 * phi.max()
        assert np.max(np.abs(op.apply(phi) - np.exp(-spec.lambda0) * phi) / phi) <= 1e-13

    def test_stalled_iteration_takes_the_dense_eigh(self, monkeypatch):
        # at t = 0.01 the Mehler spectrum decays too slowly for the 8-column
        # block (|rho8 / rho1| ~ 0.87): the step cap is hit and one dense eigh
        # of the n x n matrix gives the triple
        op = build_ho_discretization(lattice_space(6.0, 0.1), 0.01)
        lam0, gap, phi = self.dense_triple(op)
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, *r, **k: shapes.append(a.shape) or eigh(a, *r, **k))
        spec = principal_triple_from_operator(op)
        n = op.space.n
        assert shapes[-1] == (n, n) and shapes[:-1] == [(8, 8)] * (len(shapes) - 1)
        assert spec.lambda0 == pytest.approx(lam0, rel=1e-12)
        assert spec.gap == pytest.approx(gap, rel=1e-12)
        assert np.max(np.abs(spec.phi0 - phi)) <= 1e-12 * phi.max()


class TestEigenResiduals:
    def test_identity_limit(self, swap2_v01):
        spec = principal_triple(swap2_v01)
        ident = KernelOperator(0.0, np.diag(1.0 / swap2_v01.space.mu), swap2_v01.space)
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
