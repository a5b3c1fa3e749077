import gc
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eig, expm

from qergo.diagnostics import (
    heat_content,
    progressive_error,
    qsd_from_spectral,
    qsd_residual,
    quasi_ergodic_error,
)
from qergo.errors import ModelError
from qergo.models import (
    LevyProfile,
    OscillatorOracle,
    PotentialSpec,
    build_ctmc_model,
    build_fractional_model,
    lattice_space,
    parse_model_string,
    zoo_build,
)
from qergo.operators import (
    _REV_TOL,
    Engine,
    KernelOperator,
    MarkovModel,
    ModalOperator,
    _abs_max,
    _exp_step,
    _floored,
    _rows,
    _symmetric_eigh,
    compose,
    feynman_kac_operator,
    ho_survival,
    mehler_kernel,
    strongly_connected,
)
from qergo.spectral import SpectralData, principal_triple
from qergo.statespace import StateSpace, _mirror_tiles


def dual_model(model):
    """The model of the adjoint semigroup: jump kernel Q_dual, same V."""
    return MarkovModel(model.space, model.Q_dual, model.V, label=model.label + "*")


def eig_expm(A):
    """Independent 2x2/3x3 oracle: matrix exponential by eigendecomposition."""
    w, V = np.linalg.eig(A)
    return np.real((V * np.exp(w)) @ np.linalg.inv(V))


NONINVARIANT = "^dual kernel is not stochastic: mu is not an invariant measure of Q$"


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
        with pytest.raises(ModelError, match=NONINVARIANT):
            MarkovModel(sp, Q, np.zeros(2))

    @pytest.mark.parametrize("defect,rejected", [(1e-10, True), (1e-14, False)])
    def test_invariance_defect_is_measured_against_1e_12(self, defect, rejected):
        # Q = 1/2 everywhere and mu = (1, 1 + 2 defect): the dual's row sums
        # (mu Q) / mu are 1 + defect and 1 - defect, to first order
        sp = StateSpace((0, 1), np.array([1.0, 1.0 + 2.0 * defect]), np.array([[0.0], [1.0]]))
        if rejected:
            with pytest.raises(ModelError, match=NONINVARIANT):
                MarkovModel(sp, np.full((2, 2), 0.5), np.zeros(2))
        else:
            MarkovModel(sp, np.full((2, 2), 0.5), np.zeros(2))

    def test_construction_forms_no_operator_sized_array(self):
        # the frac lattice at n = 401: the checks read Q where it lies and the
        # dual's row sums are (mu Q) / mu, so no n x n dual kernel is formed
        model = build_fractional_model(
            (50.0, 0.25), LevyProfile("polynomial", alpha=1.0), PotentialSpec("log-power", beta=2.0))
        n = model.n
        tracemalloc.start()
        try:
            MarkovModel(model.space, model.Q, model.V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 401 and peak < 0.2 * 8 * n * n

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_jump_matrix_rejected(self, bad):
        with pytest.raises(ModelError, match="finite entries"):
            build_ctmc_model(2, np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_dual_kernel_is_derived(self, weighted_bd):
        mu = weighted_bd.space.mu
        want = (weighted_bd.Q * mu[:, None]).T / mu[:, None]
        np.testing.assert_array_equal(weighted_bd.Q_dual, want)
        with pytest.raises(TypeError):
            MarkovModel(weighted_bd.space, weighted_bd.Q, weighted_bd.V, Q_dual=weighted_bd.Q)

    def test_nonfinite_potential_rejected(self, swap2):
        with pytest.raises(ModelError, match="finite"):
            MarkovModel(swap2.space, swap2.Q, np.array([0.0, np.inf]))


@st.composite
def digraphs(draw):
    """Boolean adjacency matrices on 1-12 states: sparse random edges over a
    relabelled cycle, a path, or two blocks joined one way only (reducible)."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    kind = draw(st.sampled_from(["random", "cycle", "path", "blocks"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < p
    perm = rng.permutation(n)
    if kind in ("cycle", "path"):
        k = n if kind == "cycle" else n - 1
        adj[perm[:k], np.roll(perm, -1)[:k]] = True
    elif kind == "blocks" and n > 1:
        a, b = perm[: n // 2], perm[n // 2:]
        adj[np.ix_(b, a)] = False  # nothing leads back from b to a
    return adj


class TestStronglyConnected:
    @settings(max_examples=300, deadline=None)
    @given(adj=digraphs())
    def test_matches_csgraph(self, adj):
        from scipy.sparse.csgraph import connected_components

        want = connected_components(adj, directed=True, connection="strong")[0] == 1
        event(f"strongly connected: {want}")
        assert strongly_connected(adj) == want

    @pytest.mark.parametrize("n", [2, 500])
    def test_one_way_path_is_reducible_and_a_one_way_cycle_is_not(self, n):
        # every level of the search is one state: the frontier reads its row as a view
        path = np.eye(n, k=1, dtype=bool)
        assert not strongly_connected(path)
        cycle = path.copy()
        cycle[-1, 0] = True
        assert strongly_connected(cycle) and strongly_connected(cycle.T)
        assert not strongly_connected(path.T)

    def test_irreducibility_is_found_once_per_model(self, birthdeath5, monkeypatch):
        import qergo.operators as operators

        calls = []
        bfs = operators.strongly_connected
        monkeypatch.setattr(operators, "strongly_connected", lambda a: calls.append(1) or bfs(a))
        model = MarkovModel(birthdeath5.space, birthdeath5.Q, birthdeath5.V)
        assert model.irreducible and model.irreducible
        principal_triple(model)
        assert calls == [1]


class TestCallersArrays:
    """Constructors store read-only views of the arrays they are given: the
    caller's own array stays writeable and shares its memory."""

    def test_kernel_operator(self, birthdeath5):
        u = np.full((5, 5), 0.2)
        op = KernelOperator(1.0, u, birthdeath5.space)
        assert u.flags.writeable and not op.density.flags.writeable
        assert np.shares_memory(u, op.density)
        u[0, 0] = 0.3  # the caller may refill its buffer
        assert op.density[0, 0] == 0.3

    def test_markov_model_and_state_space(self, birthdeath5):
        Q, V, mu, coords = birthdeath5.Q.copy(), np.linspace(0.0, 1.0, 5), np.ones(5), np.arange(5.0)
        model = MarkovModel(StateSpace(tuple(range(5)), mu, coords[:, None]), Q, V)
        for given, stored in ((Q, model.Q), (V, model.V), (mu, model.space.mu)):
            assert given.flags.writeable and not stored.flags.writeable
            assert np.shares_memory(given, stored)
        assert coords.flags.writeable and not model.space.coords.flags.writeable
        dist = 1.0 - np.eye(3)
        space = StateSpace((0, 1, 2), np.ones(3), None, dist)
        assert dist.flags.writeable and not space.dist.flags.writeable
        assert np.shares_memory(dist, space.dist)
        phi = np.ones(5)
        spec = SpectralData(0.1, phi, phi, 5.0, 0.2)
        assert phi.flags.writeable and not spec.phi0.flags.writeable
        assert np.shares_memory(phi, spec.psi0)


class TestUniformized:
    """The free (V = 0) transition P_t = e^{-t} sum_k t^k/k! Q^k of the
    uniformized chain, as the engine forms it."""

    def test_identity_kernel_is_identity(self):
        model = build_ctmc_model(3, np.eye(3))
        op = feynman_kac_operator(model, 2.5)
        np.testing.assert_allclose(op.transition(), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_swap_closed_form(self, swap2, t):
        # Poisson series with even powers only: P_t(0,0) = (1 + e^{-2t}) / 2
        op = feynman_kac_operator(swap2, t)
        assert op.transition()[0, 0] == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=1e-13)

    def test_row_sums_within_eps(self):
        eps = 1e-10
        op = feynman_kac_operator(build_ctmc_model(5, "birth-death"), 1.7)
        assert np.max(np.abs(op.transition().sum(axis=1) - 1.0)) < eps

    def test_large_time_stable(self, swap2):
        op = feynman_kac_operator(swap2, 300.0)
        np.testing.assert_allclose(op.transition(), 0.25 + 0.25 * np.ones((2, 2)), atol=1e-12)


class TestFeynmanKac:
    def test_zero_potential_matches_uniformized(self, birthdeath5):
        # the uniformized chain's transition e^{t(Q - I)} by scipy's expm
        free = build_ctmc_model(5, "birth-death")
        a = feynman_kac_operator(free, 1.2)
        b = expm(1.2 * free.generator()) / free.space.mu[None, :]
        assert np.max(np.abs(a.density - b)) < 1e-10

    def test_constant_potential_scales(self, swap2):
        c = 0.7
        model = build_ctmc_model(2, "swap2", V=np.full(2, c))
        t = 1.3
        scaled = feynman_kac_operator(model, t).density
        free = feynman_kac_operator(swap2, t).density
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
    # four jumps per row: the one non-reversible entry whose series forms B P by GEMM
    "circulant": (
        lambda: build_ctmc_model(5, sum(a * np.roll(np.eye(5), k, axis=1) for k, a in enumerate(
            (0.1, 0.4, 0.2, 0.2, 0.1))), V=np.linspace(0.0, 1.0, 5)), False),
}
ENGINE_TIMES = (0.3, 1.0, 4.0, 15.0)


@pytest.fixture(params=sorted(ENGINE_ZOO))
def zoo_model(request):
    build, reversible = ENGINE_ZOO[request.param]
    return build(), reversible


class TestSemigroupEngine:
    def test_method_follows_reversibility(self, zoo_model):
        model, reversible = zoo_model
        assert isinstance(model, Engine)  # the model is its own engine
        assert model.reversible is reversible
        op = feynman_kac_operator(model, 1.0)
        assert op.meta["method"] == ("eigh" if reversible else "expm")

    def test_operator_matches_expm(self, zoo_model):
        model, _ = zoo_model
        for t in ENGINE_TIMES:
            ref = np.maximum(expm(t * model.generator()), 0.0) / model.space.mu[None, :]
            got = model.operator(t).density
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_survivals_match_operator(self, zoo_model):
        # U_t 1 and U*_t 1 are read from the operator: U_t and U*_t applied to 1
        model, _ = zoo_model
        ones = np.ones(model.n)
        for t in ENGINE_TIMES:
            op = model.operator(t)
            for got, want in ((op.survival, op.apply(ones)),
                              (op.dual_survival, op.apply_adjoint(ones))):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_survivals_are_formed_once_and_read_only(self, zoo_model):
        # a dense operator's survivals are its density's row and column sums bit
        # for bit; a modal one's are its right and left mode products, which
        # agree with those sums to round-off
        model, reversible = zoo_model
        op = model.operator(1.0)
        mu = op.space.mu
        assert isinstance(op, ModalOperator) is reversible
        for name, want, product in (("survival", op.density @ mu, op.right),
                                    ("dual_survival", op.density.T @ mu, op.left)):
            first = getattr(op, name)
            assert getattr(op, name) is first
            if reversible:
                np.testing.assert_array_equal(first, product(mu))
                np.testing.assert_allclose(first, want, rtol=1e-13, atol=0.0)
            else:
                np.testing.assert_array_equal(first, want)
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 0.0

    def test_reversible_operator_keeps_the_modes_above_round_off(self):
        # the frac_rev benchmark model: at its grid times a few of the 801 modes
        # are above round-off, and fewer remain as t grows
        model = build_fractional_model(
            (100.0, 0.25), LevyProfile("polynomial", alpha=1.0),
            PotentialSpec("log-power", beta=2.0, scale=1.0))
        grid = (31.2, 37.4, 43.6, 49.9, 56.1, 62.3)
        modes = [model.operator(t).meta["modes"] for t in grid]
        assert model.n == 801 and modes[0] <= 40
        assert modes == sorted(modes, reverse=True)

    def test_engine_keeps_the_operators_a_later_build_reads(self, zoo_model):
        # every engine keeps its most recent operator alone; a non-reversible
        # one also keeps the first operator's transition form, a factor of
        # later products, formed once by transition()'s arithmetic.  A
        # reversible build reads only the spectrum
        model, reversible = zoo_model
        ops = [model.operator(t) for t in (1.0, 2.0, 3.0)]
        assert list(model._ops) == [3.0] and list(model._first) == ([] if reversible else [1.0])
        assert reversible or np.array_equal(model._first[1.0], ops[0].transition())
        assert model.operator(3) is ops[2]
        first = model.operator(1.0)  # released, so built again, to the same bits
        assert first is not ops[0] and np.array_equal(first.density, ops[0].density)
        again = model.operator(2.0)  # a non-reversible U_2 is U_1 U_1 again, from the kept form
        assert again is not ops[1] and np.array_equal(again.density, ops[1].density)
        assert list(model._ops) == [2.0] and list(model._first) == ([] if reversible else [1.0])

    def test_the_oracle_keeps_only_its_most_recent_operator(self, monkeypatch):
        # the oracle composes nothing: each build begins with its one operator
        # released, so the U_1 that its triple reads goes at the next build
        oracle = OscillatorOracle(lattice_space(2.0, 0.25))
        held, build = [], OscillatorOracle._build
        monkeypatch.setattr(
            OscillatorOracle, "_build", lambda self, t: held.append(list(self._ops)) or build(self, t))
        ops = [weakref.ref(oracle.operator(t)) for t in (1.0, 0.5, 0.75, 1.0)]
        assert held == [[]] * 4 and list(oracle._ops) == [1.0]
        assert [r() is not None for r in ops] == [False, False, False, True]
        assert oracle.holds(1) and not oracle.holds(0.75) and oracle.operator(1.0) is ops[3]()

    def test_nonreversible_exponentials_are_memoized(self, zoo_model):
        # every engine, reversible ones included, builds U_t once per t
        model, _ = zoo_model
        first, second = model.operator(2.0), model.operator(2)
        assert first is second

    def test_generator_is_the_former_expression_bit_for_bit(self, zoo_model):
        model, _ = zoo_model
        assert np.array_equal(model.generator(),
                              model.Q - np.eye(model.n) - np.diag(model.V))

    @pytest.mark.parametrize("name", sorted(ENGINE_ZOO))
    def test_a_dropped_model_is_freed_without_the_cyclic_collector(self, name):
        # the model holds its spectrum and operators, and none of them holds the
        # model: dropping it frees them all by reference counting alone
        gc.disable()
        try:
            model = ENGINE_ZOO[name][0]()
            ops = [feynman_kac_operator(model, t) for t in (1.0, 2.0, 3.0)]
            refs = [weakref.ref(x) for x in (model, *ops)]
            del model, ops
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_nonpositive_time_rejected(self, zoo_model):
        model, _ = zoo_model
        for t in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive"):
                model.operator(t)

    @pytest.mark.parametrize("v", [0.0, 0.3, -0.2])
    def test_unit_step_is_entrywise_accurate(self, v):
        # on the rotation R of a 40-cycle, e^{tau (R - (1 + v) I)} has row 0
        # e^{-tau (1 + v)} tau^j / j! at column j (the j + 40 terms are below
        # 1e-60): the nonnegative series is right to round-off in every entry
        # down to eps times the largest, not only in norm
        n, tau = 40, 0.5
        step = _exp_step(tau * (np.roll(np.eye(n), 1, axis=1) - (1.0 + v) * np.eye(n)))
        j = np.arange(n)
        exact = np.exp(-tau * (1.0 + v)) * tau**j / np.array([float(math.factorial(k)) for k in j])
        keep = exact >= np.finfo(float).eps * exact.max()
        assert keep.sum() > 10 and step.min() >= 0.0
        np.testing.assert_allclose(step[0, keep], exact[keep], rtol=1e-13)

    @pytest.mark.parametrize("name", sorted(k for k, (_, rev) in ENGINE_ZOO.items() if not rev))
    def test_composed_operators_match_expm(self, name, monkeypatch):
        import qergo.operators as operators

        calls, step = [], operators._exp_step
        monkeypatch.setattr(operators, "_exp_step", lambda *a: calls.append(1) or step(*a))
        model = ENGINE_ZOO[name][0]()
        for t in np.arange(2.0, 21.0, 2.0):  # ascending, so every t > 2 is composed
            ref = np.maximum(expm(t * model.generator()), 0.0) / model.space.mu[None, :]
            op = model.operator(t)
            assert np.max(np.abs(op.density - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert len(calls) == 1

    @pytest.mark.parametrize("grid", [(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), (1.1, 2.2, 3.3, 4.4)],
                             ids=["tenths", "elevenths"])
    def test_a_decimal_grid_takes_one_exponential(self, grid, monkeypatch):
        # 0.3 - 0.1 != 0.2 and 3.3 - 1.1 != 2.2 as floats, but 0.1 + 0.2 and
        # 1.1 + 2.2 lie within 4 ulp of 0.3 and 3.3: every later time is a
        # product of held factors, as on an exactly spaced grid
        import qergo.operators as operators

        calls, step = [], operators._exp_step
        monkeypatch.setattr(operators, "_exp_step", lambda *a: calls.append(1) or step(*a))
        model = zoo_build("cycle", {"n": 50})
        for t in grid:
            ref = np.maximum(expm(t * model.generator()), 0.0) / model.space.mu[None, :]
            got = model.operator(t).density
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref), t
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


def former_spectrum(model):
    """MarkovModel.spectrum as it read before it formed S in one array: S from the
    generator, 0.5 (S + S^T) as a new array, and the parity split's
    eigenvectors stacked, then put in sorted column order."""
    r = np.sqrt(model.space.mu)
    S = r[:, None] * model.generator() / r[None, :]
    S = 0.5 * (S + S.T)
    if np.max(np.abs(S - S[::-1, ::-1])) > _REV_TOL * max(S.max(), -S.min()):
        w, W = np.linalg.eigh(S)
    else:
        n = S.shape[0]
        h, mid = divmod(n, 2)
        A, BJ = S[:h, :h], S[:h, n - h:][:, ::-1]
        even = A + BJ
        if mid:
            s = np.sqrt(2.0) * S[:h, h:h + 1]
            even = np.block([[even, s], [s.T, S[h:h + 1, h:h + 1]]])
        we, Ue = np.linalg.eigh(even)
        wo, Uo = np.linalg.eigh(A - BJ)
        w = np.concatenate([we, wo])
        order = np.argsort(w, kind="stable")
        top = np.hstack([Ue[:h], Uo]) / np.sqrt(2.0)
        W = np.vstack([top, np.hstack([Ue[h:], np.zeros((mid, h))]),
                       top[::-1] * np.repeat([1.0, -1.0], [h + mid, h])])
        w, W = w[order], W[:, order]
    return w, W / r[:, None]


class TestSpectrumInPlace:
    """The spectrum forms S from Q and V in one array, symmetrizes it by tile
    pairs and writes the eigenvectors in sorted order: the same bits as the
    former formula, through several 128-row tiles."""

    @pytest.mark.parametrize("build,split", [
        (lambda: build_ctmc_model(300, "birth-death", V=1e-4 * (np.arange(300) - 149.5) ** 2), True),
        (lambda: build_ctmc_model(301, "birth-death", V=1e-4 * (np.arange(301) - 150.0) ** 2), True),
        (lambda: build_fractional_model((50.0, 0.25), LevyProfile("polynomial", alpha=1.0),
                                        PotentialSpec("log-power", beta=2.0)), True),
        (lambda: build_ctmc_model(
            260, "birth-death", mu=np.random.default_rng(3).uniform(0.5, 2.0, 260),
            V=np.random.default_rng(4).uniform(0.0, 0.1, 260)), False),
    ], ids=["even_n", "odd_n", "frac_401", "non_centrosymmetric"])
    def test_is_the_former_formula_bit_for_bit(self, monkeypatch, build, split):
        model = build()
        want_w, want_B = former_spectrum(model)
        shapes = record_eigh(monkeypatch)
        w, B = model.spectrum
        assert (len(shapes) == 2) == split
        assert np.array_equal(w, want_w) and np.array_equal(B, want_B)


class TestReversibleTruncation:
    """A reversible U_t is the product over the modes above the round-off
    floor only; it matches the full-rank product B e^{tw} B^T."""

    @settings(max_examples=150, deadline=None)
    @given(V=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=40), weighted=st.booleans(),
           t=st.floats(0.1, 200.0))
    # a well at the light end of a 2^-k measure: the heat content needs modes
    # that the largest density entry does not
    @example(V=[2.0] * 15 + [0.0], weighted=True, t=23.25)
    def test_matches_the_full_rank_product(self, V, weighted, t):
        n = len(V)
        mu = 2.0 ** -np.arange(n) if weighted else None
        model = build_ctmc_model(n, "birth-death", mu=mu, V=np.array(V))
        w, B = model.spectrum
        full = np.maximum((B * np.exp(t * w)) @ B.T, 0.0)
        op = model.operator(t)
        event(f"modes dropped: {op.meta['modes'] < n}")
        if op.meta["modes"] == n:  # nothing dropped: the same product, bit for bit
            np.testing.assert_array_equal(op.density, full)
        assert np.max(np.abs(op.density - full)) <= 1e-13 * np.max(full)
        mu = model.space.mu
        z = (full @ mu) @ mu
        assert abs(heat_content(op) - z) <= 1e-13 * z


MODAL_ZOO = {
    "frac401": lambda: build_fractional_model(
        (50.0, 0.25), LevyProfile("polynomial", alpha=1.0),
        PotentialSpec("log-power", beta=2.0, scale=1.0)),
    "weighted_birthdeath": lambda: build_ctmc_model(
        6, "birth-death", mu=2.0 ** -np.arange(6.0), V=0.1 * np.arange(6.0)),
    "box": lambda: zoo_build(*parse_model_string("box(2,25)")),
    "complete": lambda: zoo_build(*parse_model_string("complete(7)")),
    "swap2": lambda: zoo_build("swap2", {}),
}
# every mode kept (0.3), some dropped (4.0, frac401), and the frac_rev grid's ends
MODAL_TIMES = (0.3, 4.0, 31.2, 62.3)


@pytest.fixture(scope="module", params=sorted(MODAL_ZOO))
def modal_model(request):
    model = MODAL_ZOO[request.param]()
    return model, principal_triple(model)


def near(got, want, scale=None):
    """|got - want| within 1e-13 of max |want|, or of ``scale``."""
    want = np.asarray(want)
    bound = 1e-13 * (np.max(np.abs(want)) if scale is None else scale)
    return float(np.max(np.abs(np.asarray(got) - want))) <= bound


class TestModalOperator:
    """A reversible U_t is held as its kept modes X = B[:, k:] and scales
    c = e^{t w[k:]}.  Its density, formed only on a read, is the former
    build's product bit for bit; its products, O(n m), agree with the dense
    operator's to round-off."""

    def test_density_is_the_former_build_product_bit_for_bit(self, modal_model):
        model, _ = modal_model
        w, B = model.spectrum
        for t in MODAL_TIMES:
            op = model.operator(t)
            assert isinstance(op, ModalOperator) and op.self_adjoint()
            assert "density" not in vars(op)  # not formed by the build
            k = model.n - op.meta["modes"]
            want = (B[:, k:] * np.exp(t * w[k:])) @ B[:, k:].T
            np.maximum(want, 0.0, out=want)
            np.testing.assert_array_equal(op.density, want)
            assert op.density is op.density and not op.density.flags.writeable

    def test_products_agree_with_the_dense_operator(self, modal_model):
        # the scalar diagnostics are differences of probability densities, so
        # they are compared at the scale 1 of those densities
        model, spec = modal_model
        n, mu = model.n, model.space.mu
        rng = np.random.default_rng(n)
        mask = rng.uniform(size=n) < 0.5
        mask[0] = True
        w, F = rng.uniform(size=n), rng.uniform(size=(n, 3))
        point = np.eye(n)[n // 2]
        m = qsd_from_spectral(spec, model.space)
        for t in MODAL_TIMES:
            op = model.operator(t)
            dense = KernelOperator(t, op.density, model.space)
            for got, want in ((op.rows(mask), dense.rows(mask)), (op.left(w), dense.left(w)),
                              (op.left(F.T), dense.left(F.T)), (op.right(w), dense.right(w)),
                              (op.right(F), dense.right(F)), (op.survival, dense.survival),
                              (op.dual_survival, dense.dual_survival)):
                assert near(got, want)
            for p in (1, 2, np.inf):
                assert near(quasi_ergodic_error(op, spec, point, p),
                            quasi_ergodic_error(dense, spec, point, p), scale=1.0)
            assert near(progressive_error(op, spec, mask), progressive_error(dense, spec, mask),
                        scale=1.0)
            for sigma in (point, m):
                assert near(qsd_residual(sigma, op), qsd_residual(sigma, dense), scale=1.0)

    def test_products_read_the_modes_only(self, modal_model):
        model, spec = modal_model
        op = model.operator(50.0)  # a time the other tests leave unbuilt
        mask = np.arange(model.n) < 3
        op.rows(mask), op.left(model.space.mu), op.right(model.space.mu), op.apply(1.0)
        op.apply_adjoint(1.0), op.survival, op.dual_survival
        progressive_error(op, spec, mask), quasi_ergodic_error(op, spec, np.eye(model.n)[0], 2)
        qsd_residual(qsd_from_spectral(spec, model.space), op)
        assert "density" not in vars(op)

    @pytest.mark.parametrize("modal", [True, False], ids=["modal", "dense"])
    def test_survival_is_the_right_product_and_dual_survival_the_left(self, monkeypatch, modal):
        # heat_content's duality check sums U_t 1 and U*_t 1: on every operator
        # they come from the two different products, as a dense kernel's row
        # and column sums do
        model = MODAL_ZOO["weighted_birthdeath"]()
        op = model.operator(4.0)
        if not modal:
            op = KernelOperator(op.t, op.density, op.space)
        calls = []

        def recorded(name, product):
            def call(self, v):
                calls.append(name)
                return product(self, v)
            return call

        for name in ("left", "right"):
            monkeypatch.setattr(type(op), name, recorded(name, getattr(type(op), name)))
        assert np.array_equal(op.survival, op.right(model.space.mu))
        assert np.array_equal(op.dual_survival, op.left(model.space.mu))
        assert calls == ["right", "right", "left", "left"]


@st.composite
def centrosymmetric(draw):
    """A symmetric S equal to its index reversal J S J, n = 1-60: a generic
    one, a sparse one with entries in {-1, 0, 1} (many repeated eigenvalues),
    or two mirror copies of one block around a decoupled centre, whose
    spectrum is that block's twice over, once per parity."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["generic", "sparse", "mirror"]))
    event(f"{kind}, n {'odd' if n % 2 else 'even'}")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mirror":
        h = n // 2
        M = np.zeros((n, n))
        M[:h, :h] = rng.standard_normal((h, h))
        M[n - h:, n - h:] = M[:h, :h][::-1, ::-1]
        if n % 2:
            M[h, h] = rng.standard_normal()
    elif kind == "sparse":
        M = rng.integers(-1, 2, size=(n, n)) * (rng.random((n, n)) < 0.2)
    else:
        M = rng.standard_normal((n, n))
    C = 0.5 * (M + M[::-1, ::-1])  # both halvings keep S = J S J exactly
    return 0.5 * (C + C.T)


def dyadic_centrosymmetric():
    """A 4 x 4 symmetric S = J S J with dyadic entries and max |S| = 1, so
    that the bar _REV_TOL max |S| = 2^-49 and a step past it are exact."""
    return np.array([[1.0, 0.5, 0.25, 0.125], [0.5, 0.75, 0.375, 0.25],
                     [0.25, 0.375, 0.75, 0.5], [0.125, 0.25, 0.5, 1.0]])


EDGE = [(0.0, True), (2.0**-52, False)]  # at the bar 2^-49, and one step past it


def record_eigh(monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *r, **k: shapes.append(a.shape) or eigh(a, *r, **k))
    return shapes


class TestParitySplit:
    """A symmetric S that commutes with the index reversal J is solved as two
    half-size eigh, one per parity; the result stands in for one n x n eigh.
    The call owns S: the split writes its eigenvectors over it, so each caller
    passes a copy of an S it reads again."""

    @settings(max_examples=300, deadline=None)
    @given(S=centrosymmetric())
    def test_matches_the_full_eigh(self, S):
        n = S.shape[0]
        shapes, eigh = [], np.linalg.eigh
        with mock.patch.object(np.linalg, "eigh",
                               lambda a, *r, **k: shapes.append(a.shape) or eigh(a, *r, **k)):
            w, W = _symmetric_eigh(owned := S.copy())
        assert shapes == [((n + 1) // 2,) * 2, (n // 2,) * 2]  # even block, then odd
        assert W is owned  # written over S
        w_full, W_full = np.linalg.eigh(S)
        norm = np.max(np.abs(w_full), initial=0.0)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - w_full)) <= 1e-12 * norm
        assert np.max(np.abs(W.T @ W - np.eye(n))) <= 1e-12
        assert np.max(np.abs(S @ W - W * w)) <= 1e-12 * norm
        for t in (0.1, 30.0):  # in units of 1 / ||S||
            t /= max(norm, 1.0)
            full = (W_full * np.exp(t * (w_full - w_full[-1]))) @ W_full.T
            got = (W * np.exp(t * (w - w_full[-1]))) @ W.T
            assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(full))
        w2, W2 = _symmetric_eigh(S.copy())
        assert np.array_equal(w, w2) and np.array_equal(W, W2)

    @pytest.mark.parametrize("step,split", EDGE, ids=["at_the_bar", "past_the_bar"])
    def test_the_bar_is_rev_tol_times_the_largest_entry(self, monkeypatch, step, split):
        # S[0, 1] moves 2^-49 = _REV_TOL max |S| (and a step more) from its
        # mirror S[3, 2]: at the bar the split is taken, past it one 4 x 4 eigh
        assert _REV_TOL == 2.0**-49
        S = dyadic_centrosymmetric()
        S[0, 1] = S[1, 0] = 0.5 + 2.0**-49 + step
        shapes = record_eigh(monkeypatch)
        w, W = _symmetric_eigh(owned := S.copy())
        assert shapes == ([(2, 2), (2, 2)] if split else [(4, 4)])
        assert (W is owned) == split  # one full eigh returns a new array
        # at the bar the split solves J S J's upper half: off by 2^-49 at most
        assert np.max(np.abs(w - np.linalg.eigvalsh(S))) <= 1e-14
        assert np.max(np.abs(S @ W - W * w)) <= 1e-14

    @pytest.mark.parametrize("V", [np.array([0.5, 0.2, 0.2, 0.5]), np.array([0.0, 0.2, 0.2, 0.5])],
                             ids=["even_v", "uneven_v"])
    def test_reversible_model_splits_only_when_centrosymmetric(self, monkeypatch, V):
        Q = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])  # J Q J = Q = Q^T
        model = MarkovModel(StateSpace((0, 1, 2, 3), np.ones(4), np.arange(4.0)[:, None]), Q, V)
        shapes = record_eigh(monkeypatch)
        model.spectrum
        assert shapes == ([(2, 2), (2, 2)] if V[0] == V[3] else [(4, 4)])

    def test_the_split_spectrum_holds_no_n_by_n_array_besides_s(self):
        # frac at n = 401, whose Q the model holds.  The spectrum forms S, the
        # two half blocks and their eigenvectors, and writes the sorted
        # vectors over S: a traced peak of 1.81 n x n arrays past the model,
        # against 3.07 when they went into a fresh array
        model = zoo_build("frac", {"alpha": "1.0", "half_width": "50.0", "h": "0.25"})
        n = model.n
        assert n == 401 and model.reversible  # found once, before the trace
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            w, B = model.spectrum
            held, peak = (m - live for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held < 1.01 * 8 * n * n  # B, written over S
        assert peak < 1.9 * 8 * n * n

    @pytest.mark.parametrize("n,slope", [(4, 0.0), (14, 0.1), (15, 0.1)])
    def test_top_eigenvalue_tied_across_parities_keeps_every_mode(self, n, slope):
        # two mirror copies of one chain (and a decoupled centre when n is odd):
        # the top eigenvalue is even and odd at once, and the stable merge puts
        # the odd mode, orthogonal to mu, last, where the floor reads its mass
        h = n // 2
        half = build_ctmc_model(h, "birth-death", V=slope * np.arange(h))
        Q = np.eye(n)
        Q[:h, :h] = half.Q
        Q[n - h:, n - h:] = half.Q[::-1, ::-1]
        V = np.concatenate([half.V, [5.0] * (n % 2), half.V[::-1]])
        space = StateSpace(tuple(range(n)), np.ones(n), np.arange(n, dtype=float)[:, None])
        model = MarkovModel(space, Q, V)
        w_full, W_full = np.linalg.eigh(model.generator())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # log(0) of the floor would warn
            w, B = model.spectrum
            mass = B[:, -1] @ space.mu  # exactly 0 for n = 4: every entry is +-1/2
            assert mass == 0.0 if n == 4 else abs(mass) <= 1e-15
            for t in (0.5, 40.0):
                op = model.operator(t)
                full = np.maximum((W_full * np.exp(t * w_full)) @ W_full.T, 0.0)
                assert op.meta["modes"] == n or mass != 0.0
                assert np.max(np.abs(op.density - full)) <= 1e-13 * np.max(full)


class TestSymmetryBars:
    """Each symmetry test compares a blocked max |a - b| with its own bar;
    2^-49 = _REV_TOL and a step of 2^-52 past it are exact on entries near 1/2."""

    def test_abs_max_over_row_blocks_matches_numpy(self):
        def max_abs_diff(a, b):
            return _abs_max(a[r] - b[r] for r in _rows(len(a)))

        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 130, 7))  # three row blocks, the last short
        assert max_abs_diff(a, b) == np.max(np.abs(a - b))
        assert max_abs_diff(a[:0], b[:0]) == 0.0
        a[129, 3] = np.nan
        assert np.isnan(max_abs_diff(a, b))

    @pytest.mark.parametrize("above,below", [((260, 290), (295, 270)), ((10, 280), (290, 5))],
                             ids=["diagonal_edge_tile", "off_diagonal_edge_tiles"])
    def test_abs_max_over_mirror_tiles_matches_numpy(self, above, below):
        # n = 300: tiles of 128, 128 and 44; one defect each side of the
        # diagonal in the partial edge tiles, the larger one below it
        def max_asymmetry(u):
            return _abs_max(u[I, J] - u[J, I].T for I, J in _mirror_tiles(len(u)))

        rng = np.random.default_rng(6)
        u = rng.uniform(0.0, 1.0, (300, 300))
        u = u + u.T
        u[above] += 1e-3
        u[below] += 2e-3
        assert max_asymmetry(u) == np.abs(u - u.T).max()
        assert max_asymmetry(u + u.T) == 0.0
        assert max_asymmetry(u[:1, :1]) == 0.0
        u[below[1], below[0]] = np.nan
        assert np.isnan(max_asymmetry(u))

    @pytest.mark.parametrize("step,symmetric", EDGE, ids=["at_the_bar", "past_the_bar"])
    def test_self_adjoint_bar_is_rev_tol_times_the_largest_entry(self, step, symmetric):
        u = np.array([[1.0, 0.5], [0.5 + 2.0**-49 + step, 0.25]])
        op = KernelOperator(1.0, u, StateSpace((0, 1), np.ones(2), np.arange(2.0)[:, None]))
        assert op.self_adjoint() is symmetric

    @pytest.mark.parametrize("step,reversible", EDGE, ids=["at_the_bar", "past_the_bar"])
    def test_reversibility_bar_is_rev_tol(self, step, reversible):
        # uniform mu: Q_dual = Q^T, off Q by d at (0, 1); both rows sum to 1 within 1e-12
        d = 2.0**-49 + step
        Q = np.array([[0.5 - d, 0.5 + d], [0.5, 0.5]])
        model = MarkovModel(StateSpace((0, 1), np.ones(2), np.arange(2.0)[:, None]), Q, np.zeros(2))
        assert model.reversible is reversible


def former_dual(model):
    """Q_dual as the constructor formed it before it was formed on first use."""
    Q, mu = model.Q, model.space.mu
    Qd = np.multiply(Q.T, mu, order="C")
    Qd /= mu[:, None]
    return Qd


@st.composite
def chains_near_the_bar(draw):
    """A chain on 1-150 states, so up to three 64-row blocks, reversible for
    its mu: Q = I - L / (max degree + 1) of a random graph's Laplacian L on a
    uniform mu, or Q(x, y) = W(x, y) / mu(x) of a symmetric W > 0 on its
    diagonal, mu the row sums of W.  Up to three entries Q(x, y) then move by
    +-2^-49 mu(y) / mu(x), and a step of 2^-52 more or not, and Q(x, x) back,
    which puts Q_dual(y, x) - Q(y, x) at the bar _REV_TOL or a step past it."""
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.02, 0.2, 0.5])), 1)
    adj = adj | adj.T
    if draw(st.booleans()):
        mu = np.ones(n)
        Q = adj / (adj.sum(axis=1).max() + 1.0)
        np.fill_diagonal(Q, 1.0 - Q.sum(axis=1))
    else:
        W = np.triu(adj * rng.uniform(0.5, 1.0, (n, n)), 1)
        W = W + W.T + np.diag(rng.uniform(0.5, 1.0, n))
        mu = W.sum(axis=1)
        Q = W / mu[:, None]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        x, y = rng.choice(n, 2, replace=False)
        d = draw(st.sampled_from([-1.0, 1.0])) * (2.0**-49 + draw(st.sampled_from([0.0, 2.0**-52])))
        Q[x, y] += d * mu[y] / mu[x]
        Q[x, x] -= d * mu[y] / mu[x]
    return MarkovModel(StateSpace(tuple(range(n)), mu, np.arange(n, dtype=float)), Q, np.zeros(n))


class TestLazyDualKernel:
    """Q_dual is formed on first use, by the expression the constructor used;
    ``reversible`` reads it 64 rows at a time and forms no n x n dual."""

    @pytest.mark.parametrize("name", sorted(ENGINE_ZOO))
    def test_dual_kernel_is_formed_on_first_use_to_the_former_bits(self, name):
        model = ENGINE_ZOO[name][0]()
        model.operator(1.0)
        assert model.reversible is ENGINE_ZOO[name][1] and "Q_dual" not in vars(model)
        dual = model.Q_dual
        assert model.Q_dual is dual and np.array_equal(dual, former_dual(model))
        with pytest.raises(ValueError, match="read-only"):
            dual[0, 0] = 0.0

    @given(model=chains_near_the_bar())
    @settings(max_examples=150, deadline=None)
    def test_blockwise_reversibility_is_the_former_decision(self, model):
        want = bool(np.max(np.abs(former_dual(model) - model.Q)) <= _REV_TOL)
        event(f"reversible: {want}, blocks: {-(-model.n // 64)}")
        assert model.reversible is want and "Q_dual" not in vars(model)


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
                P = model.operator(t).transition()
                assert np.all((P == 0) | (P >= tiny)), (model.label, t)

    @pytest.mark.parametrize("scale", ["2e-4", "1e-2"])
    def test_matches_expm_on_the_cycle(self, scale):
        for model in cycle_and_dual("200", scale):
            for t in CYCLE_GRID:
                ref = expm(t * model.generator())
                got = model.operator(t).transition()
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
        assume(not model.reversible)
        us, ut, ust = model.operator(s), model.operator(t), model.operator(s + t)
        ref = np.maximum(expm((s + t) * model.generator()), 0.0) / model.space.mu[None, :]
        scale = np.max(ref)
        assert np.max(np.abs(ust.density - compose(us, ut).density)) <= 1e-12 * scale
        assert np.max(np.abs(ust.density - ref)) <= 1e-12 * scale
        qsd = qsd_from_spectral(principal_triple(model), model.space)
        assert qsd_residual(qsd, ust) <= 1e-9


def shifted_series(S):
    """(c, B, N) of the step series of S: c = -min diag S, B = S + cI as a
    new array, and the first order N whose term bound ||B||_1^N / N! is below
    eps/10 of the partial sum of those bounds."""
    c = -S.diagonal().min()
    B = S + c * np.eye(len(S))
    b, bounds = np.linalg.norm(B, 1), [1.0]
    while bounds[-1] > 0.1 * np.finfo(float).eps * sum(bounds):
        bounds.append(bounds[-1] * b / len(bounds))
    return c, B, len(bounds) - 1


def former_exp_step(S):
    """The step series as a Paterson-Stockmeyer sum, an independent reference
    for _exp_step's Horner loop: the powers from B^0 = I, Horner's rule in B^s
    over blocks of B^0 ... B^{s-1}, s = floor(sqrt N), and each block a new
    sum of new quotients."""
    n = len(S)
    c, B, N = shifted_series(S)
    s = max(math.isqrt(N), 1)
    powers = [np.eye(n), B]
    for _ in range(s - 1):
        powers.append(powers[-1] @ B)
    P = None
    for i in range(N // s, -1, -1):
        C = sum(powers[j] / math.factorial(i * s + j) for j in range(min(s, N - i * s + 1)))
        P = C if P is None else P @ powers[s] + C
    return math.exp(-c) * P


def step_jumps(S):
    """The columns of the off-diagonal nonzeros of each row of S, ascending."""
    return [[y for y in np.flatnonzero(row) if y != x] for x, row in enumerate(S)]


def reference_row_series(S):
    """_exp_step's row-gather series as a plain loop: B = S + cI as a new
    array, Horner's rule P <- I + (B P) / j from P = I down to j = 1, and each
    row of B P a new sum, B(x, x) P(x) first, then B(x, y) P(y) for the jumps
    y of row x in ascending order."""
    n = len(S)
    c, B, N = shifted_series(S)
    P = np.eye(n)
    for j in range(N, 0, -1):
        BP = np.empty((n, n))
        for x, jumps in enumerate(step_jumps(S)):
            row = B[x, x] * P[x]
            for y in jumps:
                row = row + B[x, y] * P[y]
            BP[x] = row
        P = BP / j + np.eye(n)
    return math.exp(-c) * P


def reference_gemm_series(S):
    """_exp_step's series without ``cols`` as a plain loop: B = S + cI as a
    new array and Horner's rule P <- I + (B @ P) / j from P = I down to j = 1."""
    n = len(S)
    c, B, N = shifted_series(S)
    P = np.eye(n)
    for j in range(N, 0, -1):
        P = (B @ P) / j + np.eye(n)
    return math.exp(-c) * P


def reference_exp_step(S):
    """The series a step takes: the row gathers when no row of S has more
    than 2 off-diagonal nonzeros, the GEMM loop otherwise."""
    dense = max(map(len, step_jumps(S))) > 2
    return reference_gemm_series(S) if dense else reference_row_series(S)


def assert_matches_paterson_stockmeyer(P, S):
    """P agrees with the Paterson-Stockmeyer sum of S in every entry above
    the 2^-500 floor of the transition form, to 1e-13 of the entry of the
    series of |B| (the size of that entry's terms), not only in norm."""
    M = np.abs(S)
    np.fill_diagonal(M, S.diagonal())
    size = former_exp_step(M)
    keep = size >= 2.0**-500 * size.max()
    assert np.all(np.abs(P - former_exp_step(S))[keep] <= 1e-13 * size[keep])


def former_step_density(model, t, factors=()):
    """The density of a non-reversible U_t as MarkovModel._build formed it
    before the step was taken in place: the exponential of t G from the step
    A / 2^k of a new array A = t G by ``reference_exp_step``, or the product
    of the transition forms of the two ``factors``."""
    if factors:
        P = _floored(factors[0].transition() @ factors[1].transition())
    else:
        A = t * model.generator()
        k = max(math.frexp(np.linalg.norm(A, 1))[1], 0)
        P = _floored(reference_exp_step(A / 2.0**k))
        for _ in range(k):
            P = _floored(P @ P)
    return P / model.space.mu


def former_shifted_inverse(model, sigma):
    """(A - sigma I)^-1 of A = -G as the triple formed it before: -G as a
    second array, shifted by sigma times an identity."""
    A = -model.generator()
    return np.linalg.inv(A - sigma * np.eye(len(A)))


@st.composite
def dented_chains(draw):
    """Chain on 1, 2 or up to 40 states, invariant for the uniform mu: a mix of
    the flat kernel and a few permutations, with some zero off-diagonal
    entries set in [-1e-12, 0), at most one per row and column."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms) + 1,
                                     max_size=len(perms) + 1)))
    weights[0] *= draw(st.booleans())  # with or without the flat part
    weights /= weights.sum()
    Q = np.full((n, n), weights[0] / n)
    for w, perm in zip(weights[1:], perms):
        Q[np.arange(n), perm] += w
    dent = np.array(draw(st.permutations(range(n))))
    depth = np.array(draw(st.lists(st.floats(1e-15, 0.99e-12), min_size=n, max_size=n)))
    rows = np.flatnonzero((Q[np.arange(n), dent] == 0.0) & (dent != np.arange(n)))
    Q[rows, dent[rows]] = -depth[rows]
    V = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    space = StateSpace(tuple(range(n)), np.ones(n), np.arange(n, dtype=float)[:, None])
    return MarkovModel(space, Q, V)


NONREVERSIBLE_ZOO = sorted(k for k, (_, rev) in ENGINE_ZOO.items() if not rev)


@st.composite
def sparse_chains(draw):
    """Chain on 2-120 states, invariant for the uniform mu: a mix of the
    identity and one or two permutations of random subsets, so that a row has
    at most 2 jumps and one that every permutation fixes has none.  Then some
    zero off-diagonal entries of rows with at most one jump are set in
    [-1e-12, 0), at most one per row and column."""
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3)))
    weights[0] *= draw(st.booleans())  # with or without the identity part
    weights /= weights.sum()
    Q = weights[0] * np.eye(n)
    for w in weights[1:]:
        perm = np.arange(n)
        moved = rng.choice(n, rng.integers(0, n, endpoint=True), replace=False)
        perm[moved] = rng.permutation(moved)
        Q[np.arange(n), perm] += w
    dent = rng.permutation(n)
    jumps = np.count_nonzero(Q, axis=1) - (Q.diagonal() != 0)
    rows = np.flatnonzero((Q[np.arange(n), dent] == 0.0) & (dent != np.arange(n)) & (jumps < 2))
    rows = rows[rng.random(rows.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))]
    Q[rows, dent[rows]] = -rng.uniform(1e-15, 0.99e-12, rows.size)
    space = StateSpace(tuple(range(n)), np.ones(n), np.arange(n, dtype=float)[:, None])
    return MarkovModel(space, Q, rng.uniform(0.0, 2.0, n))


class TestInPlaceBitIdentity:
    """The non-reversible step formed in the generator's array and the
    triple's shift formed in place give the bits of the former arithmetic: a
    chain with more than 2 jumps in some row the reference GEMM series, any
    other the reference row-gather series."""

    @pytest.mark.parametrize("name", NONREVERSIBLE_ZOO)
    def test_operator_is_the_former_arithmetic(self, name):
        model = ENGINE_ZOO[name][0]()
        G = model.generator()
        assert (model.jump_columns is None) is (name == "circulant")
        # 0.25 takes no squaring and 4 at least one; 4.25 = 0.25 + 4 is the
        # first and the latest composed, and 8.5 = 4.25 + 4.25 the latest twice
        assert np.linalg.norm(0.25 * G, 1) < 1.0 <= np.linalg.norm(4.0 * G, 1)
        fresh, squared = model.operator(0.25), model.operator(4.0)
        composed = model.operator(4.25)
        assert np.array_equal(fresh.density, former_step_density(model, 0.25))
        assert np.array_equal(squared.density, former_step_density(model, 4.0))
        assert np.array_equal(composed.density, former_step_density(model, 4.25, (fresh, squared)))
        twice = model.operator(8.5)
        assert np.array_equal(twice.density, former_step_density(model, 8.5, (composed, composed)))

    @settings(max_examples=60, deadline=None)
    @given(model=dented_chains(), t=st.floats(0.05, 30.0))
    def test_step_is_the_former_series(self, model, t):
        A = t * model.generator()
        S = A / 2.0 ** max(math.frexp(np.linalg.norm(A, 1))[1], 0)
        event(f"n: {'1, 2' if model.n <= 2 else '3-40'}, reversible: {model.reversible}")
        event(f"an entry of Q in [-1e-12, 0): {bool(model.Q.min() < 0)}")
        dense = _exp_step(S.copy())
        assert np.array_equal(dense, reference_gemm_series(S))
        assert_matches_paterson_stockmeyer(dense, S)
        if model.jump_columns is not None:
            assert np.array_equal(_exp_step(S.copy(), model.jump_columns), reference_row_series(S))
        if not model.reversible:
            fresh = model.operator(t)
            assert np.array_equal(fresh.density, former_step_density(model, t))
            assert np.array_equal(model.operator(2 * t).density,  # 2t - t == t: composed
                                  former_step_density(model, 2 * t, (fresh, fresh)))

    @pytest.mark.parametrize("name", [*NONREVERSIBLE_ZOO, "cycle_500"])
    def test_triple_is_the_former_route(self, name, monkeypatch):
        import qergo.spectral as spectral

        model = (cycle_and_dual("500", "2e-4")[0] if name == "cycle_500"
                 else ENGINE_ZOO[name][0]())
        got = principal_triple(model)
        monkeypatch.setattr(spectral, "_shifted_inverse", former_shifted_inverse)
        want = principal_triple(model)
        assert (got.lambda0.hex(), got.gap.hex()) == (want.lambda0.hex(), want.gap.hex())
        for a, b in ((got.phi0, want.phi0), (got.psi0, want.psi0)):
            assert list(map(float.hex, a)) == list(map(float.hex, b))


class TestRowSeries:
    """A chain with at most 2 jumps in every row takes its step series by row
    gathers.  Its terms are the Paterson-Stockmeyer sum's, so the two agree in
    every entry above the 2^-500 floor of the transition form, not only in
    norm: to round-off of the entry itself when B >= 0, and of the entry of
    the series of |B| when some entry of Q lies in [-1e-12, 0)."""

    @settings(max_examples=60, deadline=None)
    @given(model=sparse_chains(), t=st.floats(0.05, 30.0))
    def test_matches_paterson_stockmeyer_entrywise(self, model, t):
        cols, jumps = model.jump_columns, step_jumps(model.Q)
        d = max(map(len, jumps))
        event(f"n: {'2-9' if model.n < 10 else '10-120'}, jumps per row: {d}")
        event(f"an entry of Q in [-1e-12, 0): {bool(model.Q.min() < 0)}")
        assert cols.shape == (model.n, d) and not cols.flags.writeable
        assert [list(row) for row in cols] == [js + [x] * (d - len(js)) for x, js in enumerate(jumps)]
        A = t * model.generator()
        S = A / 2.0 ** max(math.frexp(np.linalg.norm(A, 1))[1], 0)
        assert_matches_paterson_stockmeyer(_exp_step(S.copy(), cols), S)


class TestAdjointCompose:
    def test_symmetric_density_self_adjoint(self, birthdeath5):
        op = feynman_kac_operator(birthdeath5, 0.8)  # reversible, uniform mu
        assert op.self_adjoint()
        f = np.arange(1.0, 6.0)
        np.testing.assert_allclose(op.apply_adjoint(f), op.apply(f), atol=1e-12)

    def test_involution(self, cycle4):
        # the operator of the transposed density u*(x,y) = u(y,x) has U as its adjoint
        op = feynman_kac_operator(cycle4, 0.8)
        dual = KernelOperator(op.t, op.density.T, op.space)
        f = np.random.default_rng(3).normal(size=cycle4.n)
        np.testing.assert_allclose(dual.apply_adjoint(f), op.apply(f))
        np.testing.assert_allclose(dual.apply(f), op.apply_adjoint(f))

    def test_inner_product_identity(self, weighted_bd):
        # <U_t f, g>_mu = <f, U*_t g>_mu for 10 random pairs
        op = feynman_kac_operator(weighted_bd, 0.9)
        mu = weighted_bd.space.mu
        rng = np.random.default_rng(7)
        for _ in range(10):
            f, g = rng.normal(size=(2, weighted_bd.n))
            lhs = np.sum(op.apply(f) * g * mu)
            rhs = np.sum(f * op.apply_adjoint(g) * mu)
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
        ident = KernelOperator(0.0, np.diag(1.0 / birthdeath5.space.mu), birthdeath5.space)
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
