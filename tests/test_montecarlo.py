import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qergo.operators as operators
from qergo.cli import main, parse_config
from qergo.diagnostics import qsd_from_spectral
from qergo.errors import BadKeyError
from qergo.models import PotentialSpec, build_ctmc_model, zoo_build
from qergo.montecarlo import (
    _DRAW_ROWS,
    _GUIDE_BUCKETS,
    MAX_PATH_STEPS,
    EstimateWithError,
    _simulate_batch,
    check_batch,
    exit_probability,
    fk_conditioned_estimate,
    fk_estimate,
    fk_estimate_levy,
    sample_stable_increment,
)
from qergo.operators import feynman_kac_operator
from qergo.spectral import principal_triple


BIRTHDEATH_FULL = Path(__file__).parents[1] / "configs" / "birthdeath_full.ini"
# fk_estimate on configs/birthdeath_full.ini at its [mc] seed, as the
# full-count simulator gave them: the stream behind every mc.csv
PINNED_ESTIMATES = {
    6.7: ("0x1.31c0c978d0f91p-14", "0x1.166076457b6a5p-17"),
    8.0: ("0x1.79c9b560a89d1p-15", "0x1.38f8d89e19d9cp-18"),
    9.3: ("0x1.108f701630be4p-15", "0x1.2cf3a9ca0085fp-18"),
    10.6: ("0x1.63ba750c84527p-16", "0x1.80c184305e3ecp-19"),
    11.9: ("0x1.014f2c78f8396p-16", "0x1.bfa704c705831p-19"),
    13.2: ("0x1.ee54613fa5c40p-18", "0x1.4dbb9c1cc6725p-20"),
}


@pytest.fixture(scope="module")
def full_config():
    """(config, model) of configs/birthdeath_full.ini."""
    cfg = parse_config(str(BIRTHDEATH_FULL))
    return cfg, zoo_build(cfg.model_id, cfg.model_params)


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
        # endpoint law under V = 0 against the row of the free transition
        # P_t = e^{-t} sum_k t^k/k! Q^k, the uniformized chain; it holds
        # only with Poisson(t) jump counts and steps drawn from the rows of Q
        free = build_ctmc_model(5, "birth-death")
        t, n = 1.0, 20000
        w, end, _ = _simulate_batch(free, 0, t, n, np.random.default_rng(11))
        assert np.all(w == 1.0)
        freq = np.bincount(end, minlength=5) / n
        row = feynman_kac_operator(free, t).transition()[0]
        stderr = np.sqrt(row * (1 - row) / n)
        assert np.all(np.abs(freq - row) <= 4 * stderr)


def reference_batch(model, x0, t: float, n: int, gen, radius=None):
    """The path simulator before its guide table: every jump counts the whole
    cumulative row, O(n).  ``_simulate_batch`` must reproduce it bit for bit."""
    i0 = model.space.index(x0)
    counts = gen.poisson(t, n)
    M = int(counts.max()) if n else 0
    raw = gen.uniform(0.0, t, (n, M)) if M else np.zeros((n, 0))
    masked = np.where(np.arange(M)[None, :] < counts[:, None], raw, np.inf)
    times = np.sort(masked, axis=1)
    cum = np.cumsum(model.Q, axis=1)
    dist_row = model.space.distances(i0)
    state = np.full(n, i0)
    logw = np.zeros(n)
    stayed = np.ones(n, dtype=bool)
    prev = np.zeros(n)
    for k in range(M):
        end = np.where(counts > k, times[:, k], t)
        logw -= model.V[state] * (end - prev)
        prev = end
        active = counts > k
        if active.any():
            r = gen.random(int(active.sum()))
            rows = cum[state[active]]
            nxt = (rows < r[:, None]).sum(axis=1)
            np.minimum(nxt, model.n - 1, out=nxt)
            state[active] = nxt
            if radius is not None:
                stayed[active] &= dist_row[nxt] <= radius
    logw -= model.V[state] * (t - prev)
    return np.exp(logw), state, stayed


class EdgeDraws:
    """A seeded generator whose uniform [0, 1) jump draws land, a quarter of
    the time each, on a threshold of ``cum``, a bucket edge b/B or the float
    either side of one, and on the largest double below 1, which passes the
    end of a row that sums to less than 1: the places where a bucket lookup
    could disagree with the full count."""

    def __init__(self, seed: int, cum: np.ndarray):
        self._gen = np.random.default_rng(seed)
        edges = np.concatenate([cum.ravel(), np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS])
        pool = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        self._pool = np.unique(pool[(pool >= 0.0) & (pool < 1.0)])

    def poisson(self, lam, size):
        return self._gen.poisson(lam, size)

    def uniform(self, low, high, size):
        return self._gen.uniform(low, high, size)

    def random(self, size):
        r = self._gen.random(size)
        kind = self._gen.integers(0, 4, size)  # 0, 1: plain, 2: an edge, 3: the top
        r[kind == 2] = self._gen.choice(self._pool, int(np.sum(kind == 2)))
        r[kind == 3] = np.nextafter(1.0, 0.0)
        return r


@st.composite
def doubly_stochastic_chains(draw):
    """Chain on 2-40 states, invariant for the uniform mu: a mix of the flat
    kernel and a few permutations, so rows hold exact zeros and repeated
    thresholds.  Some zeros become entries in [-1e-12, 0), one per row and
    column, so those rows have a non-monotone cumsum that ends below 1."""
    n = draw(st.integers(2, 40))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms) + 1,
                                     max_size=len(perms) + 1)))
    weights[0] *= draw(st.booleans())  # with or without the flat part
    weights /= weights.sum()
    Q = np.full((n, n), weights[0] / n)
    for w, perm in zip(weights[1:], perms):
        Q[np.arange(n), perm] += w
    dent = np.array(draw(st.permutations(range(n))))
    depth = np.array(draw(st.lists(st.floats(0.0, 0.99e-12), min_size=n, max_size=n)))
    rows = np.flatnonzero((Q[np.arange(n), dent] == 0.0) & (depth > 0.0))
    Q[rows, dent[rows]] = -depth[rows]
    V = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    return build_ctmc_model(n, Q, V=V)


class TestGuideTable:
    """The guide-table jump step against the full count it replaces."""

    @given(model=doubly_stochastic_chains(), start=st.integers(0, 39),
           t=st.floats(0.0, 30.0, exclude_min=True), paths=st.integers(2, 300),
           radius=st.none() | st.floats(0.0, 40.0), seed=st.integers(0, 2**32 - 1),
           edges=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_full_count_bit_for_bit(self, model, start, t, paths, radius, seed, edges):
        x0 = model.space.points[start % model.n]
        cum = np.cumsum(model.Q, axis=1)

        def gen():
            return EdgeDraws(seed, cum) if edges else np.random.default_rng(seed)

        got = _simulate_batch(model, x0, t, paths, gen(), radius=radius)
        want = reference_batch(model, x0, t, paths, gen(), radius=radius)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_table_is_the_clamped_count_or_minus_one(self):
        # rows that end short of 1 - 1/B: a count there reaches n and is clamped to n - 1
        n, B = 70, _GUIDE_BUCKETS  # more than one block of 64 rows
        cum = np.cumsum(np.random.default_rng(3).random((n, n)), axis=1) / n * 1.5 - 0.25
        edges = np.arange(B) / B
        count = (cum[:, None, :] < edges[None, :, None]).sum(axis=2)
        split = ((cum[:, None, :] >= edges[None, :, None])
                 & (cum[:, None, :] < edges[None, :, None] + 1 / B)).any(axis=2)
        want = np.where(split, -1, np.minimum(count, n - 1))
        assert (count == n).any() and np.array_equal(operators._guide_table(cum), want.ravel())

    def test_shipped_config_estimates_are_pinned(self, full_config):
        cfg, model = full_config
        assert cfg.t_grid == list(PINNED_ESTIMATES) and cfg.mc == {"n": 20000, "seed": 1234}
        for t, (mean, stderr) in PINNED_ESTIMATES.items():
            est = fk_estimate(model, model.space.points[0], t, np.ones(model.n), 20000, 1234)
            assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr), t

    def test_an_mc_block_builds_the_guide_table_once(self, full_config, tmp_path, monkeypatch):
        # one table per model, not one per grid time; the estimates keep their bits
        builds, build = [], operators._guide_table
        monkeypatch.setattr(operators, "_guide_table", lambda cum: builds.append(cum.shape) or build(cum))
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path))
        assert main(["run", str(BIRTHDEATH_FULL)]) == 0
        assert builds == [(12, 12)]
        rows = (tmp_path / "mc.csv").read_text().splitlines()[2:]
        got = {float(t): (float(m), float(e)) for _, _, t, m, e, *_ in (r.split(",") for r in rows)}
        assert got == {t: (float.fromhex(m), float.fromhex(e)) for t, (m, e) in PINNED_ESTIMATES.items()}


class TestStepMajorBatch:
    """The step-major batch, drawn in row blocks of the (n, M) uniform draw,
    against the simulator that draws and sorts the whole n x M array."""

    @staticmethod
    def assert_same_batch(model, x0, t, n, gen, radius=None):
        got = _simulate_batch(model, x0, t, n, gen(), radius=radius)
        want = reference_batch(model, x0, t, n, gen(), radius=radius)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1234, 109])  # 109 fails two verdicts of the pinned seeds
    def test_shipped_config_grid(self, full_config, seed):
        cfg, model = full_config
        for t in cfg.t_grid:
            self.assert_same_batch(model, model.space.points[0], t, cfg.mc["n"],
                                   lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("t,n,radius,edges", [
        (1e-12, 50, None, False), (13.2, 2, None, False), (9.3, 3 * _DRAW_ROWS + 5, 2.0, False),
        (9.3, 3 * _DRAW_ROWS + 5, 2.0, True), (0.7, 2 * _DRAW_ROWS, None, True),
    ], ids=["no_jumps", "two_paths", "radius", "edge_draws_radius", "edge_draws_short"])
    def test_edge_cases(self, full_config, t, n, radius, edges):
        _, model = full_config
        cum = np.cumsum(model.Q, axis=1)
        seed = 109
        if t < 1e-6:
            assert not np.random.default_rng(seed).poisson(t, n).any()  # M = 0
        self.assert_same_batch(model, model.space.points[3], t, n, lambda: (
            EdgeDraws(seed, cum) if edges else np.random.default_rng(seed)), radius)

    @pytest.mark.parametrize("n,M,rows", [(5, 3, 2), (20000, 33, _DRAW_ROWS), (7, 0, 3), (9, 4, 9)])
    def test_row_block_draws_are_the_one_draw(self, n, M, rows):
        # the property the layout rests on: the generator fills (n, M) in row order
        one, gen = np.random.default_rng(7), np.random.default_rng(7)
        whole = one.uniform(0.0, 13.2, (n, M))
        blocks = [gen.uniform(0.0, 13.2, (min(rows, n - i), M)) for i in range(0, n, rows)]
        assert np.array_equal(np.concatenate(blocks), whole)
        assert gen.bit_generator.state == one.bit_generator.state

    def test_peak_memory_is_the_time_array_and_a_block(self, full_config):
        # the M x n jump times, one row block of draws and its mask, and at most
        # twelve n-vectors of a step; the whole-array layout also held two n x M
        # boolean temporaries
        _, model = full_config
        model.jump_guide  # built once per model, before the batch
        n, t = 20000, 13.2
        M = int(np.random.default_rng(1234).poisson(t, n).max())
        tracemalloc.start()
        try:
            _simulate_batch(model, model.space.points[0], t, n, np.random.default_rng(1234))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = 12 * 8 * n
        assert 8 * M * n < peak <= 8 * M * n + 9 * _DRAW_ROWS * M + steps
        assert peak < 8 * M * n + 2 * M * n + steps


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
        target = feynman_kac_operator(birthdeath20_confining, t).survival[9]
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
        target = feynman_kac_operator(birthdeath5, t).survival[2]
        hits = sum(
            fk_estimate(birthdeath5, 2, t, np.ones(5), 2000, rng=seed).within(target)
            for seed in range(100)
        )
        assert hits >= 95

    @pytest.mark.parametrize("n,t,key", [
        (1, 1.0, "n"), (0, 1.0, "n"), (2, 0.0, "t"), (2, float("nan"), "t"), (2, float("inf"), "t"),
        (3050403, 1.0, "n"), (2**25, 1.0, "n"), (3355108, 0.001, "n"),
    ], ids=["one", "none", "t_zero", "t_nan", "t_inf", "past_the_budget_at_t1",
            "two_to_the_25_paths_at_t1", "past_the_budget_at_a_short_horizon"])
    def test_batch_rule_refuses_before_any_draw(self, birthdeath5, n, t, key):
        # a BadKeyError is a ValueError; the generator's state is untouched
        for estimate in (lambda gen: fk_estimate(birthdeath5, 0, t, np.ones(5), n, gen),
                         lambda gen: exit_probability(birthdeath5, 0, t, 1.0, n, gen)):
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            with pytest.raises(ValueError) as caught:
                estimate(gen)
            assert isinstance(caught.value, BadKeyError) and caught.value.key == key
            assert gen.bit_generator.state == state

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
        inside = model.space.distances(model.space.index(x0)) <= radius
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
        with pytest.raises(ValueError, match="n >= 2"):  # and two paths, by the batch rule
            fk_estimate_levy(1.0, PotentialSpec("power", beta=1.0), 0.0, 1.0, 8, 1, rng=0)

    def test_reproducible(self):
        pot = PotentialSpec("power", beta=1.0)
        a = fk_estimate_levy(1.0, pot, 0.0, 0.5, 32, 2000, rng=55)
        b = fk_estimate_levy(1.0, pot, 0.0, 0.5, 32, 2000, rng=55)
        assert a.mean == b.mean and a.stderr == b.stderr


def test_path_budget_bounds_the_array_a_batch_fills():
    """At each horizon the largest n that check_batch admits fills an n x M array of jump
    times, M the largest of n Poisson(t) counts; by the union bound over the paths, that
    array passes 1.1 times the budget with a chance below 1e-3, from t = 1e-3 to the t
    where the budget admits two paths."""
    from scipy.stats import poisson

    worst = 0.0
    for t in np.logspace(-3, 8, 2000):
        steps = t + 10.0 * np.sqrt(max(t, 1.0))
        n = int(MAX_PATH_STEPS // steps)
        if n < 2:
            break
        check_batch(n, t)
        with pytest.raises(BadKeyError):
            check_batch(n + 1, t)
        # M * n > 1.1 budget needs M > floor(1.1 budget / n)
        worst = max(worst, n * poisson.sf(np.floor(1.1 * MAX_PATH_STEPS / n), t))
    assert t > 1e7 and worst < 1e-3
    # the shipped chain_mc block is far inside: 20000 paths to t = 13.2
    check_batch(20000, 13.2)


def test_estimate_validation():
    with pytest.raises(ValueError):
        EstimateWithError(1.0, -0.1, 10)
