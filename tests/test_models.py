import tracemalloc

import numpy as np
import pytest

from qergo.errors import BadKeyError, ClassifierError, ModelError
from qergo.models import (
    MAX_STATES,
    LevyProfile,
    OscillatorOracle,
    PotentialSpec,
    build_ctmc_model,
    build_fractional_model,
    build_ho_discretization,
    lattice_space,
    parse_model_string,
    regime_classifier,
    stable_constant,
    zoo_build,
    zoo_catalog,
)
from qergo.operators import compose, feynman_kac_operator, ho_survival, mehler_kernel
from qergo.spectral import principal_triple
from qergo.statespace import StateSpace


class TestCtmcRecipes:
    @pytest.mark.parametrize(
        "recipe,n", [("swap2", 2), ("birth-death", 7), ("box:2", 9), ("complete", 5), ("cycle", 6)]
    )
    def test_recipes_yield_valid_models(self, recipe, n):
        model = build_ctmc_model(n, recipe)
        assert np.max(np.abs(model.Q.sum(axis=1) - 1.0)) < 1e-12
        assert model.irreducible

    def test_swap2_canonical(self, swap2):
        np.testing.assert_array_equal(swap2.Q, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(swap2.space.mu, [1.0, 1.0])

    def test_symmetric_birthdeath_self_dual(self):
        model = build_ctmc_model(6, "birth-death")  # uniform mu
        np.testing.assert_allclose(model.Q_dual, model.Q, atol=1e-14)

    def test_weighted_duality_entrywise(self, weighted_bd):
        mu = weighted_bd.space.mu
        for i in range(weighted_bd.n):
            for j in range(weighted_bd.n):
                assert mu[i] * weighted_bd.Q[i, j] == pytest.approx(
                    mu[j] * weighted_bd.Q_dual[j, i], abs=1e-14
                )

    def test_cycle_dual_is_reverse_rotation(self):
        model = build_ctmc_model(5, "cycle")
        np.testing.assert_allclose(model.Q_dual, model.Q.T, atol=1e-14)

    def test_user_matrix_reducible_allowed(self):
        blk = np.array([[0.0, 1.0], [1.0, 0.0]])
        Q = np.block([[blk, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])
        model = build_ctmc_model(4, Q)
        assert not model.irreducible

    def test_non_stochastic_rejected(self):
        with pytest.raises(ModelError):
            build_ctmc_model(2, np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_bad_recipe_rejected(self):
        with pytest.raises(ModelError, match="recipe"):
            build_ctmc_model(4, "moebius")
        for recipe in ("box:0", "box:-1"):  # once a ZeroDivisionError
            with pytest.raises(ModelError, match="d >= 1"):
                build_ctmc_model(4, recipe)

    @pytest.mark.parametrize("recipe", ["birth-death", "box:1", "complete", "cycle"])
    def test_past_the_state_budget_is_refused_before_any_array(self, recipe):
        n = MAX_STATES + 1
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=f"{n} points exceed .* {MAX_STATES}"):
                build_ctmc_model(n, recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # not one n-vector, let alone an n x n array

    def test_potential_spec_applied_to_coords(self):
        pot = PotentialSpec("power", beta=2.0, scale=0.1)
        model = build_ctmc_model(5, "birth-death", V=pot)
        # coords are centred: (-2,-1,0,1,2); V = 0.1 * max(1,|x|)^2
        np.testing.assert_allclose(model.V, [0.4, 0.1, 0.1, 0.1, 0.4])


LEVY_PROFILES = [
    LevyProfile("polynomial", alpha=1.0),
    LevyProfile("polynomial", alpha=1.5, delta=0.5),
    LevyProfile("exponential", alpha=1.0, delta=2.0),
]


def _pairwise_jump_matrix(xs, levy):
    """Q and rate_max of a lattice from the profile at all n^2 - n pairwise
    distances, the evaluation the Toeplitz build replaced."""
    off = ~np.eye(len(xs), dtype=bool)
    w = np.zeros(off.shape)
    w[off] = levy.profile(np.abs(xs[None, :] - xs[:, None])[off]) * (xs[1] - xs[0])
    rates = w.sum(axis=1)
    Q = w / rates.max()
    np.fill_diagonal(Q, 1.0 - rates / rates.max())
    return Q, rates.max()


def _assert_symmetric_weights(Q):
    """The jumps of Q (its holding mass, a row sum, rounds by row) are
    exactly symmetric and mirror-symmetric."""
    w = Q.copy()
    np.fill_diagonal(w, 0.0)
    assert np.array_equal(w, w.T) and np.array_equal(w, w[::-1, ::-1])


class TestFractionalModel:
    def test_cauchy_like_weights(self):
        levy = LevyProfile("polynomial", alpha=1.0)
        model = build_fractional_model((5.0, 0.5), levy, PotentialSpec("log-power", beta=1.0))
        xs = model.space.coords[:, 0]
        h = 0.5
        # off-diagonal jump rates scale like c(1,1)/|y-x|^2 before uniformization
        i, j = 3, 8
        w_ij = model.Q[i, j] * model.time_scale
        assert w_ij == pytest.approx(stable_constant(1.0) * abs(xs[j] - xs[i]) ** -2 * h)

    def test_self_dual_for_symmetric_profile(self):
        levy = LevyProfile("polynomial", alpha=1.2, delta=0.5)
        model = build_fractional_model((10.0, 0.5), levy, PotentialSpec("log-power", beta=2.0))
        np.testing.assert_allclose(model.Q_dual, model.Q, atol=1e-13)

    def test_alpha_validation(self):
        with pytest.raises(ModelError):
            LevyProfile("polynomial", alpha=2.0)
        with pytest.raises(ModelError):
            LevyProfile("polynomial", alpha=0.0)

    def test_exponential_profile_needs_heavy_delta(self):
        with pytest.raises(ModelError, match="delta"):
            LevyProfile("exponential", alpha=1.0, delta=0.5)

    def test_state_budget_enforced(self):
        with pytest.raises(ModelError, match="budget of 2001"):
            build_fractional_model((2000.0, 0.5), LevyProfile("polynomial", alpha=1.0),
                                   PotentialSpec("log-power", beta=1.0))

    def test_lattice_budget_is_shared_by_frac_and_ho(self):
        # the check sits in lattice_space, so the oscillator lattice is bounded
        # too, and n = 2001 is the largest lattice either family may build
        assert lattice_space(500.0, 0.5).n == MAX_STATES == 2001
        with pytest.raises(ModelError, match="2003 points .* 2001"):
            lattice_space(500.5, 0.5)
        with pytest.raises(ModelError, match="budget of 2001"):
            zoo_build("ho", {"half_width": 6.0, "h": 0.004})
        # a builder given a space of its own checks it too
        xs = np.arange(2003.0)
        space = StateSpace(tuple(range(2003)), np.ones(2003), xs[:, None])
        with pytest.raises(ModelError, match="2003 points"):
            build_ho_discretization(space, 1.0)
        with pytest.raises(ModelError, match="2003 points"):
            build_fractional_model(space, LevyProfile("polynomial", alpha=1.0), PotentialSpec("power"))

    @pytest.mark.parametrize("half_width,h", [
        (6.0, 0.0), (6.0, -0.1), (6.0, float("nan")), (6.0, float("inf")),
        (0.0, 0.1), (-6.0, 0.1), (float("inf"), 0.1),
    ])
    def test_lattice_rejects_bad_width_or_spacing(self, half_width, h):
        with pytest.raises(ModelError, match="finite and positive"):
            lattice_space(half_width, h)
        with pytest.raises(ModelError, match="finite and positive"):
            zoo_build("ho", {"half_width": half_width, "h": h})
        with pytest.raises(ModelError, match="finite and positive"):
            zoo_build("frac", {"alpha": "1.0", "beta": "2.0", "half_width": half_width, "h": h})

    def test_time_scale_semantics(self):
        # physical-time operator equals the exponential of rate (Q - I) - V_phys
        from scipy.linalg import expm

        levy = LevyProfile("polynomial", alpha=1.0)
        pot = PotentialSpec("power", beta=1.0)
        model = build_fractional_model((5.0, 0.5), levy, pot)
        t = 0.4
        xs = model.space.coords[:, 0]
        G_phys = model.time_scale * (model.Q - np.eye(model.n)) - np.diag(pot.evaluate(xs))
        direct = expm(t * G_phys)
        via_model = feynman_kac_operator(model, model.time_scale * t).transition()
        np.testing.assert_allclose(via_model, direct, atol=1e-12)

    def test_irreducible_and_positivity(self):
        model = build_fractional_model((8.0, 0.5), LevyProfile("polynomial", alpha=0.5),
                                       PotentialSpec("log-power", beta=0.5))
        assert model.irreducible
        assert feynman_kac_operator(model, 0.5).positivity_improving()

    @pytest.mark.parametrize("levy", LEVY_PROFILES)
    def test_toeplitz_jump_matrix_is_the_pairwise_one(self, levy):
        # at h = 0.25 every lattice difference is exact, so the profile read
        # once per offset gives the n^2 evaluation's Q and rate bit for bit
        model = build_fractional_model((20.0, 0.25), levy, PotentialSpec("log-power", beta=2.0))
        Q, rate_max = _pairwise_jump_matrix(model.space.coords[:, 0], levy)
        assert model.time_scale == rate_max
        assert np.array_equal(model.Q, Q)
        _assert_symmetric_weights(model.Q)

    @pytest.mark.parametrize("levy", LEVY_PROFILES)
    def test_toeplitz_jump_matrix_on_a_rounded_lattice(self, levy):
        # at h = 0.1 the stored points carry rounding: the differences of one
        # offset spread by an ulp of the half-width, so the pairwise matrix is
        # not Toeplitz, and the weight at x_k - x_0 meets each to the profile's
        # log-slope (1 + alpha + delta + m h near r = h) times that ulp over h
        half_width, h = 20.0, 0.1
        model = build_fractional_model((half_width, h), levy, PotentialSpec("power", beta=2.0))
        Q, _ = _pairwise_jump_matrix(model.space.coords[:, 0], levy)
        off = ~np.eye(model.n, dtype=bool)
        rel = np.abs(model.Q - Q)[off] / Q[off]
        slope = 1.0 + levy.alpha + levy.delta + levy.m * h
        assert rel.max() <= 4 * slope * np.spacing(half_width) / h
        _assert_symmetric_weights(model.Q)

    def test_profile_is_read_once_per_offset(self, monkeypatch):
        # the jump weights depend on y - x only: at most 2n profile values per
        # build, where the pairwise evaluation took n^2 - n
        sizes, profile = [], LevyProfile.profile

        def counted(self, r):
            sizes.append(np.size(r))
            return profile(self, r)

        monkeypatch.setattr(LevyProfile, "profile", counted)
        model = build_fractional_model((100.0, 0.25), LevyProfile("polynomial", alpha=1.0),
                                       PotentialSpec("log-power", beta=2.0))
        assert 0 < sum(sizes) <= 2 * model.n


class TestHoDiscretization:
    @pytest.mark.parametrize("half_width,h", [(6.0, 0.01), (8.0, 0.05), (4.0, 0.25)])
    @pytest.mark.parametrize("t", [0.05, 0.5, 1.25, 4.0])
    def test_lattice_density_is_the_pointwise_kernel(self, half_width, h, t):
        # the Hankel (x + y) times Toeplitz (x - y) assembly against the
        # pointwise kernel at every pair, wherever that is a normal number
        grid = lattice_space(half_width, h)
        xs = grid.coords[:, 0]
        u = build_ho_discretization(grid, t).density
        ref = mehler_kernel(t, xs[:, None, None], xs[None, :, None])
        normal = ref > 1e-300
        assert np.max(np.abs(u - ref)[normal] / ref[normal]) <= 1e-12
        assert np.array_equal(u, u.T) and np.array_equal(u, u[::-1, ::-1])

    def test_lattice_build_allocates_one_n_by_n_array(self):
        # 3n - 1 exponentials and their product: the density is the only
        # n x n array, where the pairwise kernel took several
        grid = lattice_space(6.0, 0.01)
        tracemalloc.start()
        try:
            build_ho_discretization(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * grid.n**2

    def test_exact_ground_state_residual(self):
        grid = lattice_space(8.0, 0.05)
        xs = grid.coords[:, 0]
        phi0 = np.pi**-0.25 * np.exp(-(xs**2) / 2)
        op = build_ho_discretization(grid, 1.0)
        resid = np.max(np.abs(op.apply(phi0) - np.exp(-1.0) * phi0))
        assert resid < 1e-10  # quadrature error of the lattice sum

    def test_survival_matches_row_sums(self):
        grid = lattice_space(8.0, 0.05)
        for t in (0.5, 1.0):
            op = build_ho_discretization(grid, t)
            np.testing.assert_allclose(
                op.survival, ho_survival(t, grid.coords[:, 0, None]), atol=1e-8
            )

    def test_chapman_kolmogorov_on_grid(self):
        grid = lattice_space(8.0, 0.05)
        half = build_ho_discretization(grid, 0.5)
        whole = build_ho_discretization(grid, 1.0)
        err = np.max(np.abs(compose(half, half).density - whole.density))
        assert err < 1e-6


@pytest.mark.parametrize("space", [
    StateSpace(tuple(range(4)), np.ones(4), np.array([0.0, 1.0, 2.0, 3.5])),  # unequal steps
    StateSpace(tuple(range(4)), np.ones(4), np.array([3.0, 2.0, 1.0, 0.0])),  # decreasing
    StateSpace((0,), np.ones(1), np.array([0.0])),  # one point
    build_ctmc_model(25, "box:2").space,  # 2-D
    build_ctmc_model(5, "complete").space,  # a metric, no coordinates
], ids=["unequal", "decreasing", "one-point", "2d", "no-coords"])
def test_lattice_builders_need_an_equally_spaced_lattice(space):
    with pytest.raises(ModelError, match="equally spaced 1-D lattice"):
        build_ho_discretization(space, 1.0)
    with pytest.raises(ModelError, match="equally spaced 1-D lattice"):
        build_fractional_model(space, LevyProfile("polynomial", alpha=1.0), PotentialSpec("power"))


def test_lattice_builders_take_steps_equal_to_relative_1e_12():
    xs = np.arange(5.0) * 0.3
    xs[2] *= 1.0 + 1e-13
    space = StateSpace(tuple(range(5)), np.full(5, 0.3), xs)
    assert build_ho_discretization(space, 1.0).density.shape == (5, 5)
    assert build_fractional_model(space, LevyProfile("polynomial", alpha=1.0),
                                  PotentialSpec("power")).n == 5


class TestRegimeClassifier:
    @pytest.mark.parametrize(
        "levy_kind,v_kind,beta,expected",
        [
            ("polynomial", "log-power", 2.0, "aGSD"),
            ("polynomial", "log-power", 1.0, "aGSD"),
            ("polynomial", "log-power", 0.5, "non-aGSD-infinite-Z"),
            ("polynomial", "power", 0.5, "aGSD"),
            ("exponential", "power", 2.0, "aGSD"),
            ("exponential", "power", 0.5, "non-aGSD-finite-Z"),
            ("exponential", "log-power", 2.0, "non-aGSD-finite-Z"),
            ("exponential", "log-power", 0.5, "non-aGSD-infinite-Z"),
        ],
    )
    def test_classification_grid(self, levy_kind, v_kind, beta, expected):
        levy = LevyProfile(levy_kind, alpha=1.0, delta=1.5 if levy_kind == "exponential" else 0.0)
        assert regime_classifier(levy, PotentialSpec(v_kind, beta=beta)) == expected

    def test_unsupported_combination(self):
        levy = LevyProfile("polynomial", alpha=1.0)
        with pytest.raises(ClassifierError):
            regime_classifier(levy, PotentialSpec("constant", scale=1.0))


class TestZoo:
    def test_catalog_contains_required_ids(self):
        names = [name for name, _ in zoo_catalog()]
        assert "ho" in names and "frac" in names
        assert names == sorted(names)  # stable ordering

    def test_build_birthdeath(self):
        model = zoo_build("birthdeath", {"n": 8})
        assert model.n == 8 and model.label == "birthdeath(8)"

    @pytest.mark.parametrize("model_id,params", [
        ("birthdeath", {"n": 0}),
        ("birthdeath", {"n": 1}),
        ("complete", {"n": 1}),
        ("cycle", {"n": 1}),
        ("box", {"d": 2, "n": 1}),
        ("user", {"q": "1"}),
        ("ho", {"half_width": 0.05, "h": 0.1}),
        ("frac", {"alpha": 1.0, "beta": 1.0, "half_width": 0.1, "h": 0.25}),
    ], ids=["birthdeath0", "birthdeath1", "complete1", "cycle1", "box1", "user1", "ho", "frac"])
    def test_fewer_than_two_states_rejected(self, model_id, params):
        # no gap, rate or QSD uniqueness is defined on one state
        with pytest.raises(ModelError, match=r"[01]-state"):
            zoo_build(model_id, params)

    def test_build_frac_with_potential(self):
        model = zoo_build(
            "frac",
            {"alpha": 1.0, "beta": 2.0, "potential": "log-power", "half_width": 10, "h": 0.5},
        )
        assert model.time_scale > 0 and model.n == 41

    def test_build_ho_returns_factory(self):
        # a kernel-only model: the MarkovModel interface without a generator
        oracle = zoo_build("ho", {"half_width": 4.0, "h": 0.25})
        assert isinstance(oracle, OscillatorOracle) and not hasattr(oracle, "Q")
        assert oracle.n == oracle.space.n == 33 and oracle.label == "ho"
        op = oracle.operator(1.0)
        assert oracle.operator(1.0) is op and op.t == 1.0
        np.testing.assert_array_equal(op.density, build_ho_discretization(oracle.space, 1.0).density)
        with pytest.raises(ValueError, match="positive"):
            oracle.operator(0.0)

    def test_build_user_matrix(self):
        model = zoo_build("user", {"q": "0 1; 1 0", "mu": "1 1", "v": "0 0.5"})
        np.testing.assert_array_equal(model.Q, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(model.V, [0.0, 0.5])

    def test_missing_parameter_is_model_error(self):
        with pytest.raises(ModelError, match="parameter"):
            zoo_build("birthdeath", {})
        with pytest.raises(ModelError, match="parameter"):
            zoo_build("frac", {"beta": 1.0, "potential": "log-power"})

    def test_unknown_id(self):
        with pytest.raises(ModelError, match="unknown"):
            zoo_build("pushforward", {})


    # one example per id with a compact string form: all but user
    COMPACT = {
        "birthdeath": ("birthdeath(6)", 6),
        "box": ("box(2, 9)", 9),
        "complete": ("complete(4)", 4),
        "cycle": ("cycle(5)", 5),
        "frac": ("frac(1.0, 0.0, 2.0, polynomial)", 401),
        "ho": ("ho(4, 0.25)", 33),
        "swap2": ("swap2", 2),
    }

    def test_every_compact_form_builds(self):
        assert set(self.COMPACT) | {"user"} == {name for name, _ in zoo_catalog()}
        for text, n in self.COMPACT.values():
            model = zoo_build(*parse_model_string(text))
            assert model.n == model.space.n == n
            assert model.label.startswith(text.split("(")[0])
            assert model.operator(1.0).space is model.space

    @pytest.mark.parametrize("text,keys", [
        ("frac(1.0, 0.0, 2.0, polynomial)", {"alpha": "1.0", "delta": "0.0", "beta": "2.0",
                                             "kind": "polynomial"}),
        ("frac(1.0, 1.5, 0.5, exponential)", {"alpha": "1.0", "delta": "1.5", "beta": "0.5",
                                              "kind": "exponential"}),
        ("frac(1.0)", {"alpha": "1.0"}),
    ], ids=["polynomial", "exponential", "alpha_only"])
    def test_compact_and_keyword_frac_build_one_model(self, text, keys):
        # the kind's potential (polynomial: log-power, exponential: power) is
        # the builder's default, whichever form gives the parameters
        compact, keyword = zoo_build(*parse_model_string(text)), zoo_build("frac", keys)
        assert compact.label == keyword.label
        assert np.array_equal(compact.Q, keyword.Q) and np.array_equal(compact.V, keyword.V)

    @pytest.mark.parametrize("text,named", [
        ("birthdeath()", "'n'"),
        ("box(2)", "'n'"),
        ("frac()", "'alpha'"),
        ("cycle(abc)", "'abc'"),
        ("birthdeath(20, 5)", "birthdeath(n)"),
        ("swap2(3)", "swap2()"),
        ("user(2)", "user()"),
        ("cycle(5", "cycle(n)"),
        ("pushforward(3)", "pushforward"),
    ])
    def test_malformed_compact_form_is_model_error(self, text, named):
        with pytest.raises(ModelError) as exc:
            zoo_build(*parse_model_string(text))
        assert named in str(exc.value)

    def test_unknown_key_is_named(self):
        with pytest.raises(ModelError, match="'bta'"):
            zoo_build("cycle", {"n": "4", "potential": "power", "bta": "3.0"})

    @pytest.mark.parametrize("model_id,raw,key,msg", [
        ("cycle", {"n": "4", "bta": "1"}, "bta",
         "unknown key 'bta'; model 'cycle' has n, potential, beta, scale"),
        ("cycle", {"n": "four"}, "n", "bad 'n' value 'four': not an integer"),
        ("cycle", {}, "n", "missing key 'n', a required parameter of model 'cycle'"),
        ("cylce", {"n": "4"}, "id", "unknown zoo id 'cylce'; known: birthdeath, box, complete, "
                                    "cycle, frac, ho, swap2, user"),
    ], ids=["unknown", "not_of_type", "missing", "unknown_id"])
    def test_the_refused_key_is_named(self, model_id, raw, key, msg):
        with pytest.raises(BadKeyError) as exc:
            zoo_build(model_id, raw)
        assert exc.value.key == key and str(exc.value) == msg

    def test_one_potential_key_alone_gives_the_power_profile(self):
        # scale alone: the kind and beta take their defaults, power and 1
        alone = zoo_build("cycle", {"n": "4", "scale": "0.5"})
        named = zoo_build("cycle", {"n": "4", "potential": "power", "beta": "1.0", "scale": "0.5"})
        np.testing.assert_array_equal(alone.V, named.V)
        assert alone.V.any() and not zoo_build("cycle", {"n": "4"}).V.any()

    def test_vector_parameters_from_text(self):
        model = zoo_build("birthdeath", {"n": "4", "mu": "1 2 4 8"})
        np.testing.assert_array_equal(model.space.mu, [1.0, 2.0, 4.0, 8.0])
        with pytest.raises(ModelError, match="mu needs 4 values"):
            zoo_build("birthdeath", {"n": "4", "mu": "1 2"})
        for mu in ("1 inf", "1 nan", "1 -1", "1 0"):
            with pytest.raises(ModelError, match="mu must be finite and > 0"):
                zoo_build("birthdeath", {"n": "2", "mu": mu})
        with pytest.raises(ModelError, match="'q'"):
            zoo_build("user", {"q": "0 1; 1"})
        with pytest.raises(ModelError, match="'v'"):
            zoo_build("user", {"q": "0 1; 1 0", "v": "0 x"})


class TestPotentialSpec:
    def test_log_power_floor(self):
        pot = PotentialSpec("log-power", beta=2.0)
        np.testing.assert_allclose(pot.evaluate([0.0, 1.0, np.e]), [1.0, 1.0, 1.0])
        assert pot.evaluate([np.e**2]) == pytest.approx([4.0])

    def test_power_floor(self):
        pot = PotentialSpec("power", beta=1.0, scale=2.0)
        np.testing.assert_allclose(pot.evaluate([0.0, 0.5, 3.0]), [2.0, 2.0, 6.0])

    def test_confining_needs_positive_beta(self):
        with pytest.raises(ModelError):
            PotentialSpec("power", beta=0.0)
        with pytest.raises(ModelError):
            PotentialSpec("banana")

    def test_per_point_potential_is_an_array(self):
        with pytest.raises(ModelError, match="unknown potential kind 'custom-table'"):
            zoo_build("birthdeath", {"n": 3, "potential": "custom-table"})
        model = build_ctmc_model(3, "birth-death", V=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(model.V, [1.0, 2.0, 3.0])


def test_frac_spectral_sanity(frac_small):
    spec = principal_triple(frac_small)
    assert spec.lambda0 > 0 and spec.gap > 0
    assert np.all(spec.phi0 > 0)
