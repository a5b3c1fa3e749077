import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eig, expm

from qergo.diagnostics import qsd_from_spectral, qsd_residual
from qergo.errors import ModelError
from qergo.models import (
    LevyProfile,
    PotentialSpec,
    build_ctmc_model,
    build_fractional_model,
    zoo_build,
)
from qergo.operators import (
    MarkovModel,
    adjoint,
    compose,
    dual_model,
    feynman_kac_operator,
    identity_operator,
    ho_survival,
    mehler_kernel,
    uniformized_transition,
)
from qergo.spectral import principal_triple
from qergo.statespace import StateSpace


def eig_expm(A):
    """Independent 2x2/3x3 oracle: matrix exponential by eigendecomposition."""
    w, V = np.linalg.eig(A)
    return np.real((V * np.exp(w)) @ np.linalg.inv(V))


class TestMarkovModel:
    def test_row_sums_enforced(self, swap2):
        bad = np.array([[0.0, 0.9], [1.0, 0.0]])
        with pytest.raises(ModelError, match="sum to 1"):
            MarkovModel(swap2.space, bad, np.zeros(2))

    def test_duality_identity_holds(self, weighted_bd):
        mu = weighted_bd.space.mu
        lhs = mu[:, None] * weighted_bd.Q
        rhs = (mu[:, None] * weighted_bd.Q_dual).T
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_noninvariant_mu_rejected(self):
        # Q moves all mass to state 1; uniform mu is not invariant
        Q = np.array([[0.0, 1.0], [0.0, 1.0]])
        sp = StateSpace((0, 1), np.ones(2), np.array([[0.0], [1.0]]))
        with pytest.raises(ModelError, match="invariant"):
            MarkovModel(sp, Q, np.zeros(2))

    def test_nonfinite_potential_rejected(self, swap2):
        with pytest.raises(ModelError, match="finite"):
            MarkovModel(swap2.space, swap2.Q, np.array([0.0, np.inf]))


class TestUniformized:
    def test_identity_kernel_is_identity(self):
        model = build_ctmc_model(3, np.eye(3))
        op = uniformized_transition(model, 2.5)
        np.testing.assert_allclose(op.transition(), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_swap_closed_form(self, swap2, t):
        # Poisson series with even powers only: P_t(0,0) = (1 + e^{-2t}) / 2
        op = uniformized_transition(swap2, t)
        assert op.transition()[0, 0] == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=1e-13)

    def test_row_sums_within_eps(self, birthdeath5):
        eps = 1e-10
        op = uniformized_transition(birthdeath5, 1.7, eps=eps)
        assert np.max(np.abs(op.transition().sum(axis=1) - 1.0)) < eps

    def test_truncation_order_recorded(self, swap2):
        op = uniformized_transition(swap2, 1.0, eps=1e-8)
        assert op.meta["poisson_terms"] > 0

    def test_eps_guard(self, swap2):
        with pytest.raises(ValueError):
            uniformized_transition(swap2, 1.0, eps=0.0)

    def test_large_time_stable(self, swap2):
        op = uniformized_transition(swap2, 300.0)
        np.testing.assert_allclose(op.transition(), 0.25 + 0.25 * np.ones((2, 2)), atol=1e-12)


class TestFeynmanKac:
    def test_zero_potential_matches_uniformized(self, birthdeath5):
        free = build_ctmc_model(5, "birth-death")
        a = feynman_kac_operator(free, 1.2)
        b = uniformized_transition(free, 1.2)
        assert np.max(np.abs(a.density - b.density)) < 1e-10

    def test_constant_potential_scales(self, swap2):
        c = 0.7
        model = build_ctmc_model(2, "swap2", V=np.full(2, c))
        t = 1.3
        scaled = feynman_kac_operator(model, t).density
        free = uniformized_transition(swap2, t).density
        np.testing.assert_allclose(scaled, np.exp(-c * t) * free, atol=1e-12)

    @pytest.mark.parametrize("v,t", [(1.0, 0.5), (2.5, 1.0), (0.3, 2.0)])
    def test_two_state_against_eig_oracle(self, v, t):
        model = build_ctmc_model(2, "swap2", V=np.array([0.0, v]))
        G = np.array([[-1.0, 1.0], [1.0, -1.0 - v]])
        expected = eig_expm(t * G)
        got = feynman_kac_operator(model, t).transition()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_positivity_improving_when_irreducible(self, birthdeath5):
        assert feynman_kac_operator(birthdeath5, 0.5).positivity_improving()


# name -> (builder, reversible); every zoo family, both mu kinds, a user matrix
# and a dual model
ENGINE_ZOO = {
    "swap2": (lambda: build_ctmc_model(2, "swap2", V=np.array([0.0, 1.0])), True),
    "birthdeath": (
        lambda: build_ctmc_model(8, "birth-death", V=0.2 * (np.arange(8) - 3.5) ** 2), True),
    "birthdeath_weighted": (
        lambda: build_ctmc_model(
            6, "birth-death", mu=2.0 ** (-np.arange(6.0)), V=0.1 * np.arange(6.0)), True),
    "box": (lambda: build_ctmc_model(9, "box:2", V=np.linspace(0.0, 1.0, 9)), True),
    "complete": (lambda: build_ctmc_model(5, "complete", V=np.linspace(0.0, 1.0, 5)), True),
    "cycle": (
        lambda: build_ctmc_model(6, "cycle", V=np.array([0.0, 0.3, 0.8, 0.2, 0.5, 0.1])), False),
    "user": (
        lambda: zoo_build("user", {"q": "0.2 0.5 0.3; 0.3 0.2 0.5; 0.5 0.3 0.2", "v": "0 0.4 1"}),
        False),
    "frac": (
        lambda: build_fractional_model(
            (20.0, 0.5), LevyProfile("polynomial", alpha=1.0),
            PotentialSpec("log-power", beta=2.0)),
        True),
    "dual_cycle": (
        lambda: dual_model(build_ctmc_model(4, "cycle", V=np.array([0.0, 0.3, 0.8, 0.2]))), False),
}
ENGINE_TIMES = (0.3, 1.0, 4.0, 15.0)


@pytest.fixture(params=sorted(ENGINE_ZOO))
def zoo_model(request):
    build, reversible = ENGINE_ZOO[request.param]
    return build(), reversible


class TestSemigroupEngine:
    def test_method_follows_reversibility(self, zoo_model):
        model, reversible = zoo_model
        assert model.semigroup is model.semigroup  # one engine per model
        assert model.semigroup.reversible is reversible
        op = feynman_kac_operator(model, 1.0)
        assert op.meta["method"] == ("eigh" if reversible else "expm")

    def test_operator_matches_expm(self, zoo_model):
        model, _ = zoo_model
        for t in ENGINE_TIMES:
            ref = np.maximum(expm(t * model.generator()), 0.0) / model.space.mu[None, :]
            got = model.semigroup.operator(t).density
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_survivals_match_operator(self, zoo_model):
        model, _ = zoo_model
        for t in ENGINE_TIMES:
            op = model.semigroup.operator(t)
            for got, want in ((model.semigroup.survival(t), op.survival()),
                              (model.semigroup.dual_survival(t), op.dual_survival())):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_nonreversible_exponentials_are_memoized(self, zoo_model):
        model, reversible = zoo_model
        first, second = model.semigroup.operator(2.0), model.semigroup.operator(2.0)
        assert (first is second) == (not reversible)

    def test_nonpositive_time_rejected(self, zoo_model):
        model, _ = zoo_model
        for call in (model.semigroup.operator, model.semigroup.survival,
                     model.semigroup.dual_survival):
            with pytest.raises(ValueError, match="positive"):
                call(0.0)

    @pytest.mark.parametrize("name", sorted(k for k, (_, rev) in ENGINE_ZOO.items() if not rev))
    def test_composed_operators_match_expm(self, name, monkeypatch):
        import qergo.operators as operators

        calls = []
        monkeypatch.setattr(operators, "expm", lambda A: calls.append(1) or expm(A))
        model = ENGINE_ZOO[name][0]()
        sg = model.semigroup
        for t in np.arange(2.0, 21.0, 2.0):  # ascending, so every t > 2 is composed
            ref = np.maximum(expm(t * model.generator()), 0.0) / model.space.mu[None, :]
            op = sg.operator(t)
            assert np.max(np.abs(op.density - ref)) <= 1e-12 * np.max(np.abs(ref))
            for got, want in ((sg.survival(t), op.survival()),
                              (sg.dual_survival(t), op.dual_survival())):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(k for k, (_, rev) in ENGINE_ZOO.items() if rev))
    def test_eigh_triple_matches_dense_eig(self, name):
        model = ENGINE_ZOO[name][0]()
        mu = model.space.mu
        w, vr = eig(-model.generator())
        order = np.argsort(w.real)
        phi = np.abs(np.real(vr[:, order[0]]))
        phi /= np.sqrt(np.sum(phi**2 * mu))
        spec = principal_triple(model)
        assert abs(spec.lambda0 - w[order[0]].real) <= 1e-10
        assert abs(spec.gap - (w[order[1]].real - w[order[0]].real)) <= 1e-10
        assert np.max(np.abs(spec.phi0 - phi)) <= 1e-10
        assert np.array_equal(spec.psi0, spec.phi0)


CYCLE_GRID = (20.0, 40.0, 60.0, 80.0, 100.0, 120.0)


def cycle_and_dual(n, scale):
    model = zoo_build("cycle", {"n": n, "potential": "power", "beta": "1.0", "scale": scale})
    return model, dual_model(model)


class TestNonreversibleScalingAndSquaring:
    """The non-reversible engine squares the exponential of a unit-norm step
    and zeroes transition entries below 2^-500 max(P), far below round-off."""

    def test_no_subnormal_entries(self):
        # expm(20 G) of cycle(500) holds thousands of subnormal entries
        tiny = np.finfo(float).tiny
        for model in cycle_and_dual("500", "2e-4"):
            for t in CYCLE_GRID:
                P = model.semigroup.operator(t).transition()
                assert np.all((P == 0) | (P >= tiny)), (model.label, t)

    @pytest.mark.parametrize("scale", ["2e-4", "1e-2"])
    def test_matches_expm_on_the_cycle(self, scale):
        for model in cycle_and_dual("200", scale):
            for t in CYCLE_GRID:
                ref = expm(t * model.generator())
                got = model.semigroup.operator(t).transition()
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (model.label, t)


@st.composite
def nonreversible_chains(draw):
    """Chain on 3-6 states with its invariant mu and a V >= 0; a rotation of
    weight >= 0.2 beside arbitrary jump weights keeps it irreducible."""
    n = draw(st.integers(3, 6))
    W = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)))
    Q = W.reshape(n, n) + draw(st.floats(0.2, 1.0)) * np.roll(np.eye(n), 1, axis=1)
    Q /= Q.sum(axis=1, keepdims=True)
    A = np.vstack([(Q.T - np.eye(n))[:-1], np.ones(n)])
    mu = n * np.linalg.solve(A, np.eye(n)[-1])
    V = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    return build_ctmc_model(n, Q, mu=mu, V=V)


class TestNonreversibleProperties:
    @given(model=nonreversible_chains(), s=st.integers(1, 12), t=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_composed_operator_matches_compose_and_expm(self, model, s, t):
        s, t = s / 4, t / 4  # quarters, so that (s + t) - s == t exactly
        sg = model.semigroup
        assume(not sg.reversible)
        us, ut, ust = sg.operator(s), sg.operator(t), sg.operator(s + t)
        ref = np.maximum(expm((s + t) * model.generator()), 0.0) / model.space.mu[None, :]
        scale = np.max(ref)
        assert np.max(np.abs(ust.density - compose(us, ut).density)) <= 1e-12 * scale
        assert np.max(np.abs(ust.density - ref)) <= 1e-12 * scale
        qsd = qsd_from_spectral(principal_triple(model), model.space)
        assert qsd_residual(qsd, ust) <= 1e-9


class TestAdjointCompose:
    def test_symmetric_density_self_adjoint(self, birthdeath5):
        op = feynman_kac_operator(birthdeath5, 0.8)  # reversible, uniform mu
        np.testing.assert_allclose(adjoint(op).density, op.density, atol=1e-12)

    def test_involution(self, cycle4):
        op = feynman_kac_operator(cycle4, 0.8)
        np.testing.assert_allclose(adjoint(adjoint(op)).density, op.density)

    def test_inner_product_identity(self, weighted_bd):
        # <U_t f, g>_mu = <f, U*_t g>_mu for 10 random pairs
        op = feynman_kac_operator(weighted_bd, 0.9)
        mu = weighted_bd.space.mu
        rng = np.random.default_rng(7)
        for _ in range(10):
            f, g = rng.normal(size=(2, weighted_bd.n))
            lhs = np.sum(op.apply(f) * g * mu)
            rhs = np.sum(f * adjoint(op).apply(g) * mu)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_equals_dual_model_operator(self, weighted_bd):
        # density duality u-hat_t(y,x) = u_t(x,y): the dual model's operator
        # is exactly the adjoint kernel
        t = 0.6
        u = feynman_kac_operator(weighted_bd, t).density
        u_hat = feynman_kac_operator(dual_model(weighted_bd), t).density
        assert np.max(np.abs(u_hat - u.T)) < 1e-10

    def test_transition_form_duality(self, weighted_bd):
        # mu(x) P_t(x,y) = mu(y) P-hat_t(y,x) in the probability normalization
        t = 0.6
        mu = weighted_bd.space.mu
        P = feynman_kac_operator(weighted_bd, t).transition()
        P_hat = feynman_kac_operator(dual_model(weighted_bd), t).transition()
        assert np.max(np.abs(mu[:, None] * P - (mu[:, None] * P_hat).T)) < 1e-10

    def test_compose_identity_element(self, birthdeath5):
        op = feynman_kac_operator(birthdeath5, 0.7)
        ident = identity_operator(birthdeath5.space)
        np.testing.assert_allclose(compose(ident, op).density, op.density, atol=1e-12)
        np.testing.assert_allclose(compose(op, ident).density, op.density, atol=1e-12)

    @pytest.mark.parametrize("s,t", [(0.25, 0.25), (0.5, 1.0), (1.0, 0.25)])
    def test_semigroup_property_across_zoo(
        self, weighted_bd, swap2_v01, birthdeath20_confining, cycle4, frac_small, s, t
    ):
        for model in (weighted_bd, swap2_v01, birthdeath20_confining, cycle4, frac_small):
            us = feynman_kac_operator(model, s)
            ut = feynman_kac_operator(model, t)
            ust = feynman_kac_operator(model, s + t)
            assert np.max(np.abs(compose(us, ut).density - ust.density)) < 1e-9

    def test_associativity(self, cycle4):
        rng = np.random.default_rng(3)
        ops = [feynman_kac_operator(cycle4, t) for t in rng.uniform(0.2, 1.0, 3)]
        left = compose(compose(ops[0], ops[1]), ops[2])
        right = compose(ops[0], compose(ops[1], ops[2]))
        assert np.max(np.abs(left.density - right.density)) < 1e-10

    def test_mismatched_spaces_rejected(self, swap2, birthdeath5):
        a = feynman_kac_operator(swap2, 0.5)
        b = feynman_kac_operator(birthdeath5, 0.5)
        with pytest.raises(ValueError, match="spaces"):
            compose(a, b)


class TestMehler:
    @given(
        t=st.floats(0.05, 3.0),
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40)
    def test_symmetry(self, t, x, y):
        assert mehler_kernel(t, x, y) == pytest.approx(mehler_kernel(t, y, x), rel=1e-14)

    def test_value_at_origin(self):
        # d = 1, t = 1, x = y = 0: (2 pi sinh 2)^{-1/2}
        assert mehler_kernel(1.0, 0.0, 0.0) == pytest.approx(
            (2 * np.pi * np.sinh(2.0)) ** -0.5
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mehler_kernel(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ho_survival(-1.0, 0.0)

    @pytest.mark.parametrize("s,t,x,y", [(0.5, 0.5, 0.3, -0.4), (0.25, 1.0, 1.2, 0.7)])
    def test_chapman_kolmogorov_by_quadrature(self, s, t, x, y):
        val, _ = quad(lambda z: mehler_kernel(s, x, z) * mehler_kernel(t, z, y), -12, 12,
                      epsabs=1e-12, limit=200)
        assert abs(val - mehler_kernel(s + t, x, y)) < 1e-8

    def test_survival_at_origin(self):
        for t in (0.3, 1.0, 2.0):
            assert ho_survival(t, 0.0) == pytest.approx(np.cosh(2 * t) ** -0.5)

    def test_survival_matches_quadrature(self):
        t, x = 1.0, 1.5
        val, _ = quad(lambda y: mehler_kernel(t, x, y), -12, 12, epsabs=1e-12, limit=200)
        assert abs(val - ho_survival(t, x)) < 1e-8

    def test_ground_state_eigenidentity_by_quadrature(self):
        # integral of u_t(x, .) phi0 equals e^{-t} phi0(x) with phi0 the unit Gaussian
        phi0 = lambda z: np.pi**-0.25 * np.exp(-z**2 / 2)
        for t, x in [(0.5, 0.0), (1.0, 1.0), (2.0, -1.7)]:
            val, _ = quad(lambda z: mehler_kernel(t, x, z) * phi0(z), -12, 12,
                          epsabs=1e-12, limit=200)
            assert abs(val - np.exp(-t) * phi0(x)) < 1e-8

    def test_multidimensional_shapes(self):
        x = np.array([0.5, -0.5])
        y = np.array([1.0, 0.0])
        one_d = mehler_kernel(1.0, x[0], y[0]) * mehler_kernel(1.0, x[1], y[1])
        assert mehler_kernel(1.0, x, y) == pytest.approx(one_d)  # product structure
