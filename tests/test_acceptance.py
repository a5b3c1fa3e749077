"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's final sub-assertion is known to be unattainable for the pinned
configuration (the moving-point limit coincides exactly with m(K) for the
symmetric choice x0 = 1, K = [0, 1]); it is implemented as stated and left
red rather than weakened.  See tests below for the measured numbers.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from qergo.diagnostics import (
    DiagnosticSeries,
    agsd_certificate,
    find_qsd,
    fit_exponential_rate,
    gsd_profile,
    heat_content,
    heat_content_limit,
    ho_pgsd_radius,
    kappa_rate,
    kernel_convergence_error,
    pgsd_radius,
    point_mass,
    progressive_error,
    qsd_from_spectral,
    qsd_residual,
    quasi_ergodic_error,
)
from qergo.errors import NonuniquenessWarning
from qergo.models import (
    LevyProfile,
    PotentialSpec,
    build_ctmc_model,
    build_fractional_model,
    build_ho_discretization,
    lattice_space,
    regime_classifier,
)
from qergo.montecarlo import exit_probability, fk_estimate, sample_stable_increment
from qergo.operators import (
    MarkovModel,
    compose,
    feynman_kac_operator,
    log_ho_survival,
    log_mehler_kernel,
)
from qergo.spectral import principal_triple, principal_triple_from_operator
from qergo.statespace import ExhaustingFamily, StateSpace, tabulated_radius


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. harmonic-oscillator oracle suite


def test_criterion_01_ho_oracle_suite():
    start = time.monotonic()
    grid = lattice_space(8.0, 0.05)
    xs = grid.coords[:, 0]

    # (a) Chapman-Kolmogorov at s = t = 0.5 within 1e-6
    half = build_ho_discretization(grid, 0.5)
    whole = build_ho_discretization(grid, 1.0)
    ck_err = float(np.max(np.abs(compose(half, half).density - whole.density)))
    assert ck_err < 1e-6

    # (b) eigen-identity U_t phi0 = e^{-t} phi0 within 1e-6 (lambda0 = d = 1)
    phi0 = np.pi**-0.25 * np.exp(-(xs**2) / 2)
    eig_err = 0.0
    for t, op in ((0.5, half), (1.0, whole)):
        eig_err = max(eig_err, float(np.max(np.abs(op.apply(phi0) - np.exp(-t) * phi0))))
    assert eig_err < 1e-6

    # (c) closed-form survival vs kernel quadrature within 1e-8 at 5 (t, x)
    surv_err = 0.0
    for t, x in [(0.25, 0.0), (0.5, 1.0), (1.0, 1.5), (1.5, -2.0), (2.0, 0.5)]:
        val, _ = quad(
            lambda y: np.exp(log_mehler_kernel(t, x, y)), -12, 12, epsabs=1e-12, limit=200
        )
        surv_err = max(surv_err, abs(val - np.exp(log_ho_survival(t, x))))
    assert surv_err < 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, True, f"ck={ck_err:.2e} eig={eig_err:.2e} surv={surv_err:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. closed-form domination radius vs bisection


def _dominated(t, C, d, r):
    """The inequality U_t 1(x) <= C e^{-dt} phi0(x) at |x| = r, via closed forms.

    log LHS - log RHS carries the near-cancelling pair r^2 (1 - tanh 2t) / 2;
    grouping it through the identity 1 - tanh(2t) = 2 / (e^{4t} + 1) keeps the
    predicate sharp at large times, where the raw difference of ~r^2 terms
    would drown the boundary in round-off.
    """
    offset = -0.5 * d * np.log(np.cosh(2 * t)) + d * t + 0.25 * d * np.log(np.pi) - np.log(C)
    return r**2 / (np.exp(4 * t) + 1.0) + offset <= 0.0


def _bisect_radius(t, C, d):
    if not _dominated(t, C, d, 0.0):
        return None
    lo, hi = 0.0, 1.0
    while _dominated(t, C, d, hi):
        hi *= 2.0
        if hi > 1e9:
            return np.inf
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if _dominated(t, C, d, mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_02_ho_radius_exactness():
    rng = np.random.default_rng(2024)
    checked = voids = 0
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        t = float(rng.uniform(0.2, 4.0))
        crit = (2.0 * np.sqrt(np.pi)) ** (d / 2.0)
        C = float(crit * np.exp(rng.uniform(-0.7, 3.0)))
        closed = ho_pgsd_radius(t, C, d)
        oracle = _bisect_radius(t, C, d)
        if closed is None:
            assert oracle is None
            voids += 1
        else:
            assert oracle is not None
            worst = max(worst, abs(closed - oracle))
            assert abs(closed - oracle) <= 1e-9
            # pointwise equivalence of the inequality across the boundary
            assert _dominated(t, C, d, max(closed - 1e-6, 0.0))
            assert not _dominated(t, C, d, closed + 1e-6)
        checked += 1
    # sub-critical level at large time reproduces the void right-hand side
    for d in (1, 2, 3):
        crit = (2.0 * np.sqrt(np.pi)) ** (d / 2.0)
        assert ho_pgsd_radius(6.0, 0.9 * crit, d) is None
        voids += 1
    assert voids >= 4
    report(2, True, f"50 triples, {voids} void cases, worst |closed-bisect|={worst:.1e}")


# ---------------------------------------------------------------------------
# 3. non-uniformity at moving points


def _moving_ratio(t, x0=1.0):
    xt = np.exp(2 * t) * x0 / 2.0
    ls = log_ho_survival(t, xt)
    val, _ = quad(
        lambda y: np.exp(log_mehler_kernel(t, xt, y) - ls), 0.0, 1.0, epsabs=1e-13
    )
    return val


def _criterion3_numbers():
    ratios = [_moving_ratio(t) for t in (2.0, 3.0, 4.0)]
    limit, _ = quad(
        lambda y: np.exp(-((y - 1.0) ** 2) / 2) / np.sqrt(2 * np.pi), 0.0, 1.0,
        epsabs=1e-13,
    )
    m_K, _ = quad(
        lambda y: np.exp(-(y**2) / 2) / np.sqrt(2 * np.pi), 0.0, 1.0, epsabs=1e-13
    )
    return ratios, limit, m_K


def test_criterion_03a_moving_point_ratio_converges():
    ratios, limit, _ = _criterion3_numbers()
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert diffs[1] < diffs[0]  # successive differences shrink
    assert abs(ratios[-1] - limit) < 1e-6
    report(
        "3a", True,
        f"ratios={[f'{r:.8f}' for r in ratios]} -> limit={limit:.8f} "
        f"residual={abs(ratios[-1] - limit):.1e}",
    )


def test_criterion_03b_limit_differs_from_qsd_mass():
    # As stated, the limit must differ from m(K) by more than ten times the
    # convergence residual.  For x0 = 1, K = [0, 1] the shifted-Gaussian limit
    # equals m(K) exactly (reflection symmetry of the standard normal), so
    # this assertion cannot hold; it is kept faithful to the stated criterion.
    ratios, limit, m_K = _criterion3_numbers()
    residual = abs(ratios[-1] - limit)
    gap = abs(limit - m_K)
    report("3b", gap > 10 * residual, f"|limit - m(K)|={gap:.2e} residual={residual:.2e}")
    assert gap > 10 * residual, (
        "limit coincides with m(K) for the pinned symmetric configuration: "
        f"|limit - m(K)| = {gap:.3e} <= 10 * residual = {10 * residual:.3e}"
    )


# ---------------------------------------------------------------------------
# 4. quasi-ergodicity rate suite


def _rate_pair(model, sigma_index):
    spec = principal_triple(model)
    t_grid = np.linspace(3.0 / spec.gap, 6.0 / spec.gap, 6)
    kce = DiagnosticSeries("kce")
    qee = DiagnosticSeries("qee")
    sigma = np.zeros(model.n)
    sigma[sigma_index] = 1.0
    for t in t_grid:
        op = feynman_kac_operator(model, t)
        kce.append(t, kernel_convergence_error(op, spec))
        qee.append(t, quasi_ergodic_error(op, spec, sigma, np.inf))
    r1 = -fit_exponential_rate(kce, 1.0)[0]
    r2 = -fit_exponential_rate(qee, 1.0)[0]
    return spec.gap, r1, r2


def test_criterion_04_rate_suite():
    start = time.monotonic()
    cases = []
    swap2 = build_ctmc_model(2, "swap2")
    cases.append(("swap2", *_rate_pair(swap2, 0)))
    bd20 = build_ctmc_model(20, "birth-death", label="birthdeath(20)")
    cases.append(("birthdeath(20)", *_rate_pair(bd20, 0)))
    frac = build_fractional_model(
        (30.0, 0.25), LevyProfile("polynomial", alpha=1.0, delta=0.0),
        PotentialSpec("log-power", beta=2.0),
    )
    cases.append(("frac(a=1,d=0,b=2)", *_rate_pair(frac, frac.n // 3)))
    for name, gap, r1, r2 in cases:
        assert abs(r1 - gap) / gap <= 0.10, (name, "kernel", r1, gap)
        assert abs(r2 - gap) / gap <= 0.10, (name, "quasi-ergodic", r2, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    detail = "; ".join(
        f"{name}: gap={gap:.4f} kce={r1:.4f} qee={r2:.4f}" for name, gap, r1, r2 in cases
    )
    report(4, True, detail + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. heat-content asymptotics


def test_criterion_05_heat_content_asymptotics():
    # genuinely anharmonic confining well (different slopes on either side):
    # any locally symmetric well makes the subdominant mode near-odd, which
    # decouples it from the heat content and the defect then decays at twice
    # the gap instead
    k = np.arange(20.0)
    V = np.where(k < 6, 0.5 * (6 - k), 0.08 * (k - 6))
    model = build_ctmc_model(20, "birth-death", V=V, label="birthdeath(20)")
    spec = principal_triple(model)
    limit = heat_content_limit(spec, model.space.mu)
    series = DiagnosticSeries("hc_defect")
    for t in np.linspace(3.0 / spec.gap, 6.0 / spec.gap, 6):
        z = heat_content(feynman_kac_operator(model, t))
        series.append(t, abs(np.exp(spec.lambda0 * t) * z - limit))
    rate, _, r2 = fit_exponential_rate(series, 1.0)
    assert abs(-rate - spec.gap) / spec.gap <= 0.10
    report(5, True, f"gap={spec.gap:.4f} fitted={-rate:.4f} r2={r2:.4f} limit={limit:.4f}")


# ---------------------------------------------------------------------------
# 6. QSD uniqueness across the zoo


def test_criterion_06_qsd_uniqueness():
    zoo = [
        build_ctmc_model(2, "swap2"),
        build_ctmc_model(2, "swap2", V=np.array([0.0, 1.0])),
        build_ctmc_model(20, "birth-death"),
        build_ctmc_model(20, "birth-death", V=0.05 * (np.arange(20) - 9.5) ** 2),
        build_ctmc_model(9, "box:2", V=PotentialSpec("power", beta=2.0, scale=0.2)),
        build_ctmc_model(5, "complete", V=np.linspace(0.0, 1.0, 5)),
        build_ctmc_model(6, "cycle", V=np.array([0.0, 0.3, 0.8, 0.2, 0.5, 0.1])),
        build_fractional_model(
            (20.0, 0.5), LevyProfile("polynomial", alpha=1.0),
            PotentialSpec("log-power", beta=2.0),
        ),
    ]
    worst_match = worst_resid = 0.0
    for model in zoo:
        spec = principal_triple(model)
        m = qsd_from_spectral(spec, model.space)
        fixed = find_qsd(feynman_kac_operator(model, 1.0))
        worst_match = max(worst_match, float(np.abs(fixed.weights - m.weights).sum()))
        assert worst_match <= 1e-8
        for t in (0.5, 1.0, 2.0):
            worst_resid = max(worst_resid, qsd_residual(m, feynman_kac_operator(model, t)))
        assert worst_resid <= 1e-9
    # reducible two-component model fires the warning
    blk = np.array([[0.0, 1.0], [1.0, 0.0]])
    Q = np.block([[blk, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])
    sp = StateSpace((0, 1, 2, 3), np.ones(4), np.arange(4.0)[:, None])
    reducible = MarkovModel(sp, Q, np.zeros(4))
    with pytest.warns(NonuniquenessWarning):
        find_qsd(feynman_kac_operator(reducible, 1.0))
    report(6, True, f"{len(zoo)} models, worst match={worst_match:.1e} resid={worst_resid:.1e}")


# ---------------------------------------------------------------------------
# 7. regime classification vs measured domination


def test_criterion_07_regime_classification():
    start = time.monotonic()
    cells = [
        ("polynomial", 0.0, "log-power", 2.0, (50.0, 0.25)),
        ("polynomial", 0.0, "log-power", 0.5, (50.0, 0.25)),
        ("exponential", 1.5, "power", 2.0, (15.0, 0.1)),
        ("exponential", 1.5, "power", 0.5, (15.0, 0.1)),
    ]
    details = []
    for levy_kind, delta, v_kind, beta, grid in cells:
        levy = LevyProfile(levy_kind, alpha=1.0, delta=delta)
        pot = PotentialSpec(v_kind, beta=beta)
        predicted = regime_classifier(levy, pot)
        model = build_fractional_model(grid, levy, pot)
        spec = principal_triple(model)
        t_grid = [model.time_scale * t for t in (1.0, 2.0, 3.0, 4.0)]
        ops = [feynman_kac_operator(model, t) for t in t_grid]
        certified, worst = agsd_certificate(ops, spec, level=10.0)
        assert certified == (predicted == "aGSD"), (levy_kind, beta, predicted, worst)
        details.append(f"{levy_kind[:4]}/b={beta:g}: {predicted} ratio={worst:.3g}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(7, True, "; ".join(details) + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. progressive bound with a single calibrated constant


def test_criterion_08_progressive_bound():
    model = build_fractional_model(
        (50.0, 0.25), LevyProfile("polynomial", alpha=1.0),
        PotentialSpec("log-power", beta=0.5),
    )
    spec = principal_triple(model)
    mu = model.space.mu
    base = model.space.points[model.n // 2]

    # exhausting family from the measured domination radii (empirical rho)
    sat = float(np.sum(spec.psi0 * mu) / spec.Lambda)
    scan = np.arange(1.0, 31.0, 1.0)
    radii = []
    for t in scan:
        prof = gsd_profile(feynman_kac_operator(model, t), spec)
        r = pgsd_radius(prof, model.space, base, 3.0 * sat)
        radii.append(0.0 if r is None else r)
    fam = ExhaustingFamily(base, tabulated_radius(scan, radii), t_min=1.0)

    a = b = 1.0 / 3.0
    t0 = 1.0
    op0 = feynman_kac_operator(model, t0)
    dist = model.space.distances(model.space.index(base))
    C = None
    rows = []
    for t in (12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0):
        op = feynman_kac_operator(model, t)
        E = progressive_error(op, spec, dist <= fam.radius_fn(a * t))
        kb = kappa_rate(op0, spec, fam, b, t)
        if C is None:
            C = E / kb
        rows.append((t, E, kb, E / (C * kb)))
        assert E <= C * kb * (1.0 + 1e-9), (t, E, C * kb)
    report(8, True, "E<=C*kappa_b at all t; C=%.3f, ratios=%s"
           % (C, [f"{r[3]:.3f}" for r in rows]))


# ---------------------------------------------------------------------------
# 9. Monte Carlo cross-validation


def test_criterion_09_monte_carlo():
    rng = np.random.default_rng(909)
    pool = [
        build_ctmc_model(20, "birth-death", V=0.05 * (np.arange(20) - 9.5) ** 2),
        build_ctmc_model(7, "birth-death"),
        build_ctmc_model(6, "cycle", V=np.array([0.0, 0.3, 0.8, 0.2, 0.5, 0.1])),
        build_ctmc_model(16, "box:2", V=PotentialSpec("power", beta=1.0, scale=0.3)),
        build_ctmc_model(5, "complete", V=np.linspace(0.0, 1.0, 5)),
        build_ctmc_model(2, "swap2", V=np.array([0.0, 1.0])),
        build_ctmc_model(
            6, "birth-death", mu=2.0 ** (-np.arange(6, dtype=float)), V=0.1 * np.arange(6.0)
        ),
    ]
    # (a) 20 randomized (model, x0, t) cases with n = 1e5
    agree = 0
    for k in range(20):
        model = pool[int(rng.integers(len(pool)))]
        x0 = model.space.points[int(rng.integers(model.n))]
        t = float(rng.uniform(0.3, 2.0))
        est = fk_estimate(model, x0, t, np.ones(model.n), 100_000, rng=1000 + k)
        target = float(feynman_kac_operator(model, t).survival[model.space.index(x0)])
        assert est.within(target), (model.label, x0, t, est, target)
        agree += 1

    # (b) survival sandwich on birthdeath(20)
    model = pool[0]
    x0 = 9
    radius = 1.0
    i0 = model.space.index(x0)
    inball = model.space.distances(i0) <= radius
    vmax = float(model.V[inball].max())
    free = build_ctmc_model(20, "birth-death")
    for t in (0.5, 1.0, 2.0):
        surv = float(feynman_kac_operator(model, t).survival[i0])
        est = exit_probability(model, x0, t, radius, n=100_000, rng=int(10 * t))
        lower = np.exp(-t * vmax) * (est.mean - 3.0 * est.stderr)
        assert lower <= surv
        # Simpson quadrature of (1/t) int_0^t P_s e^{-tV}(x0) ds
        nodes, weights = np.linspace(0.0, t, 9), None
        vals = []
        target_vec = np.exp(-t * model.V)
        for s in nodes:
            if s == 0.0:
                vals.append(target_vec[i0])
            else:
                vals.append(float(feynman_kac_operator(free, s).apply(target_vec)[i0]))
        simp = (nodes[1] - nodes[0]) / 3.0 * (
            vals[0] + vals[-1] + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-2:2])
        )
        upper = simp / t
        assert surv <= upper * (1.0 + 1e-6)

    # (c) stable-increment empirical characteristic function, alpha = 1.5
    alpha, dt, n = 1.5, 0.7, 30_000
    gen = np.random.default_rng(77)
    draws = np.array([sample_stable_increment(alpha, dt, gen) for _ in range(n)])
    for xi in (0.5, 1.0, 2.0):
        emp = np.cos(xi * draws)
        target = np.exp(-dt * xi**alpha)
        assert abs(emp.mean() - target) <= 3.0 * emp.std(ddof=1) / np.sqrt(n)

    report(9, True, f"{agree}/20 randomized fk cases in 3 sigma; sandwich and CF hold")


def test_criterion_09_levy_continuum_cross_check():
    # continuum Euler estimator vs the discretized operator on matched windows
    from qergo.montecarlo import fk_estimate_levy

    pot = PotentialSpec("power", beta=1.0)
    model = build_fractional_model((40.0, 0.1), LevyProfile("polynomial", alpha=1.0), pot)
    t = 0.5
    i0 = model.n // 2
    matrix = float(feynman_kac_operator(model, model.time_scale * t).survival[i0])
    est = fk_estimate_levy(1.0, pot, 0.0, t, n_steps=64, n=100_000, rng=4242)
    tol = max(3.0 * est.stderr, 0.05 * matrix)
    assert abs(est.mean - matrix) <= tol
    report("9L", True, f"mc={est.mean:.5f}+-{est.stderr:.5f} matrix={matrix:.5f}")


# ---------------------------------------------------------------------------
# 10. determinism


DET_CONFIG = """
[model]
id = birthdeath
n = 8

# conservative path chain: gap = 1 - cos(pi/8) ~ 0.0761, so the rate-fit
# window [3/gap, 6/gap] sits near [40, 79]
[times]
t_grid = 40 53 66 79

[diagnostics]
names = heat_content kernel_convergence qsd

[mc]
n = 4000
seed = 31337

[output]
dir = {out}
"""


def test_criterion_10_determinism(tmp_path):
    from qergo.cli import parse_config, run_experiment

    bodies = []
    for tag in ("one", "two"):
        cfg_path = tmp_path / f"{tag}.ini"
        cfg_path.write_text(DET_CONFIG.format(out=tmp_path / tag))
        _, paths, code = run_experiment(parse_config(str(cfg_path)))
        assert code == 0
        chunk = {}
        for name, path in paths.items():
            if path.endswith(".csv"):
                chunk[name] = open(path).read().splitlines()[1:]
        bodies.append(chunk)
    assert bodies[0] == bodies[1]
    report(10, True, "CSV bodies byte-identical across repeated seeded runs")
