import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qergo.cli import (
    ConfigError,
    _mc_problem,
    list_models,
    main,
    parse_config,
    parse_model_string,
    run_experiment,
)
from qergo.models import MAX_PATH_STEPS, build_ho_discretization, lattice_space, zoo_build
from qergo.spectral import principal_triple, principal_triple_from_operator, spectral_to_text

BIRTHDEATH_FULL = Path(__file__).resolve().parents[1] / "configs" / "birthdeath_full.ini"
HO_ORACLE = Path(__file__).resolve().parents[1] / "configs" / "ho_oracle.ini"
README = Path(__file__).resolve().parents[1] / "README.md"


SWAP2_CONFIG = """
[model]
id = swap2
potential = power
beta = 1.0
scale = 0.5

[times]
t_grid = 1.0 1.75 2.5 3.25 4.0 4.75

[diagnostics]
names = heat_content kernel_convergence quasi_ergodic qsd gsd uniqueness

[diagnostics.quasi_ergodic]
p = inf
sigma = point:0

[family]
base_point = 0
radius = linear:1.0
t_min = 0.0

[output]
dir = {out}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_missing_model_section(self, tmp_path):
        path = write_config(tmp_path, "[times]\nt_grid = 1 2\n")
        with pytest.raises(ConfigError, match="model"):
            parse_config(path)

    def test_nonmonotone_grid_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[model]\nid = swap2\n[times]\nt_grid = 2.0 1.0\n"
        )
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(path)

    def test_unknown_diagnostic_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "[model]\nid = swap2\n[times]\nt_grid = 1 2\n[diagnostics]\nnames = entropy\n",
        )
        with pytest.raises(ConfigError, match="entropy"):
            parse_config(path)

    def test_progressive_split_constraint(self, tmp_path):
        path = write_config(
            tmp_path,
            "[model]\nid = swap2\n[times]\nt_grid = 1 2\n"
            "[diagnostics]\nnames = kappa\n[diagnostics.kappa]\na = 0.5\nb = 0.4\n",
        )
        with pytest.raises(ConfigError, match="a \\+ 2b"):
            parse_config(path)

    def test_error_messages_reference_lines(self, tmp_path):
        path = write_config(
            tmp_path, "[model]\nid = swap2\n[times]\nt_grid = 2.0 1.0\n"
        )
        with pytest.raises(ConfigError, match=r":\d+"):
            parse_config(path)

    def test_model_strings(self):
        assert parse_model_string("swap2") == ("swap2", {})
        assert parse_model_string("birthdeath(20)") == ("birthdeath", {"n": 20})
        mid, params = parse_model_string("frac(1.0, 0.0, 2.0, polynomial)")
        assert mid == "frac" and params["alpha"] == 1.0
        assert params["potential"] == "log-power"
        mid, params = parse_model_string("frac(1.0, 1.5, 0.5, exponential)")
        assert params["potential"] == "power"
        assert parse_model_string("box(2, 25)") == ("box", {"d": 2, "n": 25})


class TestRun:
    def test_swap2_full_suite_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(write_config(tmp_path, SWAP2_CONFIG.format(out=out)))
        report, paths, code = run_experiment(cfg)
        assert code == 0
        assert report.all_pass
        assert os.path.exists(paths["series"]) and os.path.exists(paths["verdict"])
        verdict = open(paths["verdict"]).read()
        assert "FAIL" not in verdict.replace("# overall", "")
        assert "PASS" in verdict

    def test_reducible_user_matrix_flags_nonuniqueness(self, tmp_path):
        text = """
[model]
id = user
q = 0 1 0 0 ; 1 0 0 0 ; 0 0 0 1 ; 0 0 1 0

[times]
t_grid = 0.5 1.0

[diagnostics]
names = qsd

[output]
dir = {out}
"""
        cfg = parse_config(write_config(tmp_path, text.format(out=tmp_path / "o")))
        report, paths, code = run_experiment(cfg)
        assert code == 2
        verdict = open(paths["verdict"]).read()
        assert "NonuniquenessWarning" in verdict

    def test_short_grid_writes_skipped_rate_verdicts(self, tmp_path):
        # three grid times are too few for a rate fit: each rate series says so
        # in a FAIL line, and the run cannot end in an overall PASS
        text = BIRTHDEATH_FULL.read_text()
        grid, names = "t_grid = 6.7 8.0 9.3 10.6 11.9 13.2", "names = heat_content kernel_convergence"
        assert grid in text and names in text
        text = text.replace(grid, "t_grid = 6.7 8.0 9.3").replace(
            names + " quasi_ergodic qsd gsd eta kappa uniqueness",
            "names = kernel_convergence quasi_ergodic heat_content")
        text = text[:text.index("[mc]")] + f"[output]\ndir = {tmp_path / 'o'}\n"
        _, paths, code = run_experiment(parse_config(write_config(tmp_path, text)))
        verdict = open(paths["verdict"]).read()
        assert code == 2 and "# overall FAIL" in verdict
        for name in ("kernel_convergence", "quasi_ergodic"):
            assert f"FAIL {name}_rate SKIPPED: 3 samples, a rate fit needs 4\n" in verdict

    def test_nonpositive_sample_writes_a_skipped_rate_verdict(self):
        from qergo.cli import _Report, _run_rate_series

        report = _Report("m")
        samples = [(1.0, 0.1), (2.0, 0.0), (3.0, 0.01), (4.0, 0.001)]
        _run_rate_series(report, "kernel_convergence", samples, None, {})
        assert report.verdicts == [
            (False, "kernel_convergence_rate SKIPPED: a sample is <= 0, a log-linear fit needs > 0")]

    def test_deterministic_csv_bodies(self, tmp_path):
        text = SWAP2_CONFIG + "\n[mc]\nn = 2000\nseed = 99\n"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = parse_config(write_config(tmp_path, text.format(out=out1), "c1.ini"))
        cfg2 = parse_config(write_config(tmp_path, text.format(out=out2), "c2.ini"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("series.csv", "summary.csv", "mc.csv"):
            body1 = open(out1 / name).read().splitlines()[1:]
            body2 = open(out2 / name).read().splitlines()[1:]
            assert body1 == body2  # identical modulo the timestamped header

    def test_full_diagnostic_set_on_confining_birthdeath(self, tmp_path):
        text = """
[model]
id = birthdeath
n = 12
potential = power
beta = 2.0
scale = 0.15

[times]
t_grid = 6.7 8.0 9.3 10.6 11.9 13.2

[diagnostics]
names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness

[diagnostics.quasi_ergodic]
p = inf
sigma = point:3

[diagnostics.kappa]
a = 0.333333333333333333
b = 0.333333333333333333
t0 = 1.0

[family]
base_point = 5
radius = linear:0.6
t_min = 0.0

[output]
dir = {out}
"""
        cfg = parse_config(write_config(tmp_path, text.format(out=tmp_path / "full")))
        report, paths, code = run_experiment(cfg)
        assert code == 0, [line for ok, line in report.verdicts if not ok]
        checked = {line.split()[0] for _, line in report.verdicts}
        assert {
            "heat_content_duality", "heat_content_upper_bound", "kernel_convergence_rate",
            "quasi_ergodic_rate", "qsd_cross_method", "qsd_residual", "gsd_reverse_bound",
            "eta_monotone", "kappa_progressive_bound", "uniqueness_condition",
        } <= checked
        summary = open(paths["summary"]).read()
        assert "kernel_convergence" in summary and "quasi_ergodic" in summary

    def test_ho_oracle_run_with_kernel_diagnostics(self, tmp_path):
        text = """
[model]
id = ho
half_width = 6.0
h = 0.1

[times]
t_grid = 0.5 0.75 1.0 1.25

[diagnostics]
names = heat_content kernel_convergence gsd

[family]
base_point = 60
radius = linear:1.0

[output]
dir = {out}
"""
        cfg = parse_config(write_config(tmp_path, text.format(out=tmp_path / "ho")))
        report, paths, code = run_experiment(cfg)
        assert code == 0, [line for ok, line in report.verdicts if not ok]
        series = open(paths["series"]).read()
        assert "pgsd_radius" in series and "gsd_sup" in series

    def test_ho_oracle_runs_kappa_and_uniqueness(self, tmp_path, monkeypatch):
        # the oracle's engine has U_t 1 and U*_t 1, all these two read
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = HO_ORACLE.read_text().replace(
            "names = heat_content kernel_convergence gsd", "names = kappa uniqueness")
        _, paths, _ = run_experiment(parse_config(write_config(tmp_path, text)))
        checked = [line.split()[1] for line in open(paths["verdict"]) if not line.startswith("#")]
        assert checked == ["kappa_progressive_bound", "uniqueness_condition"]

    def test_ho_oracle_with_mc_section_exits_one(self, tmp_path, capsys, monkeypatch):
        import qergo.models as models

        def no_operator(*args):
            raise AssertionError("an operator was built before the [mc] check")

        monkeypatch.setattr(models, "build_ho_discretization", no_operator)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        path = write_config(tmp_path, HO_ORACLE.read_text() + "\n[mc]\nn = 100\nseed = 1\n")
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "[mc]" in err and "kernel-only" in err

    @pytest.mark.parametrize("names,mc,key", [
        ("heat_content kappa", "[mc]\nn = 10\n", "[mc]"),
    ], ids=["mc"])
    def test_ho_oracle_generator_error_names_the_config_line(self, tmp_path, names, mc, key):
        text = ("[model]\nid = ho\nhalf_width = 2.0\nh = 0.5\n\n[times]\nt_grid = 0.5 1.0\n\n"
                f"[diagnostics]\nnames = {names}\n\n{mc}")
        path = write_config(tmp_path, text)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:{line}: .*kernel-only"):
            run_experiment(parse_config(path))

    def test_ho_run_writes_the_triple_of_u1(self, tmp_path, monkeypatch):
        # the middle grid time is 1.1; the oracle's triple is still taken at t = 1
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = HO_ORACLE.read_text().replace("t_grid = 0.5 0.75 1.0 1.25", "t_grid = 0.5 0.8 1.1 1.4")
        _, paths, code = run_experiment(parse_config(write_config(tmp_path, text)))
        assert code == 0
        u1 = build_ho_discretization(lattice_space(6.0, 0.1), 1.0)
        assert open(paths["spectral"]).read() == spectral_to_text(principal_triple_from_operator(u1))

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(override))
        cfg = parse_config(write_config(tmp_path, SWAP2_CONFIG.format(out=tmp_path / "ignored")))
        _, paths, _ = run_experiment(cfg)
        assert str(override) in paths["series"]
        assert override.exists()


FACTORIZATION_CONFIG = """
[model]
id = {model}
n = {n}
potential = power
beta = 2.0
scale = 0.05

[times]
t_grid = {grid}

[diagnostics]
names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness
{kappa}
[family]
base_point = 0
radius = linear:0.6

[output]
dir = {out}
"""


class TestFactorizationCounts:
    """One run factorizes each model once: when it is reversible, one eigh, or
    one pair of half-size eigh when its symmetrized generator is centrosymmetric.
    Otherwise one exponential of a step of 1-norm at most 1 per grid time that
    is not the sum of two earlier ones; those are formed by one product of
    memoized operators.  No run takes a dense eig of its generator."""

    @pytest.fixture
    def step_norms(self):
        return []

    @pytest.fixture
    def counts(self, monkeypatch, step_norms):
        # the engine calls numpy.linalg.eigh and its unit step
        # operators._exp_step at call time; dense eig calls are counted by
        # the dense_eigs fixture, which skips an Arnoldi run's Ritz steps
        import qergo.operators as operators

        calls = {"eigh": 0, "_exp_step": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "_exp_step":
                    step_norms.append(np.linalg.norm(args[0], 1))
                return original(*args, **kwargs)

            return wrapper

        for module, name in ((np.linalg, "eigh"), (operators, "_exp_step")):
            monkeypatch.setattr(module, name, counting(module, name))
        return calls

    def eigh_shapes_of_a_run(self, tmp_path, monkeypatch, extra=""):
        """The shapes of every numpy.linalg.eigh of a birthdeath(12) run, with
        ``extra`` lines added to its [model] section."""
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, *r, **k: shapes.append(a.shape) or eigh(a, *r, **k))
        text = FACTORIZATION_CONFIG.format(
            model="birthdeath", n=12, grid="2 4 6 8 10 12", out=tmp_path / "o",
            kappa="[diagnostics.kappa]\nt0 = 0.5\n").replace("n = 12\n", f"n = 12\n{extra}")
        run_experiment(parse_config(write_config(tmp_path, text)))
        return shapes

    def test_reversible_run_does_one_eigh(self, tmp_path, counts, dense_eigs, monkeypatch):
        # an even potential on uniform mu: S = J S J, so the one solve is a pair
        # of 6 x 6 blocks and no 12 x 12 eigh.  kappa's t0 = 0.5 lies off the
        # grid: its survivals still come from that solve; find_qsd's subspace
        # iteration adds only 8 x 8 Ritz solves
        shapes = self.eigh_shapes_of_a_run(tmp_path, monkeypatch)
        assert counts["_exp_step"] == 0 and dense_eigs == []
        assert [s for s in shapes if s != (8, 8)] == [(6, 6), (6, 6)]

    def test_non_centrosymmetric_reversible_run_does_one_full_eigh(
            self, tmp_path, counts, dense_eigs, monkeypatch):
        # a heavier last state breaks the mirror symmetry of S: one 12 x 12 eigh
        shapes = self.eigh_shapes_of_a_run(tmp_path, monkeypatch, "mu = " + "1 " * 11 + "2\n")
        assert counts["_exp_step"] == 0 and dense_eigs == []
        assert [s for s in shapes if s != (8, 8)] == [(12, 12)]

    @pytest.mark.parametrize("grid,steps", [
        ("2 4 6 8 10 12", 1),  # every later time is the sum of two earlier ones
        ("1 3 4 9", 3),  # only 4 = 3 + 1 is composed; 3 and 9 are not reachable
    ], ids=["uniform", "nonuniform"])
    def test_nonreversible_run_composes_sums_of_grid_times(
            self, tmp_path, counts, step_norms, dense_eigs, grid, steps):
        text = FACTORIZATION_CONFIG.format(
            model="cycle", n=8, grid=grid, out=tmp_path / "o", kappa="")
        run_experiment(parse_config(write_config(tmp_path, text)))
        # the triple is Arnoldi on one inverse of the shifted generator, and
        # find_qsd Arnoldi on U_t: neither takes a dense eig
        assert counts == {"eigh": 0, "_exp_step": steps} and dense_eigs == []
        assert len(step_norms) == steps and max(step_norms) <= 1.0

    @pytest.mark.parametrize("t0,keys,steps", [
        ("0.5", [2.0, 4.0, 6.0, 0.5], 2),  # off the grid and no sum of it: one more exponential
        ("8", [2.0, 4.0, 6.0, 8.0], 1),  # 8 = 6 + 2 is composed from the cached grid
    ], ids=["exponentiated", "composed"])
    def test_kappa_t0_is_asked_after_the_grid(
            self, tmp_path, counts, monkeypatch, t0, keys, steps):
        import qergo.models as models

        built, build = [], models.zoo_build
        monkeypatch.setattr(models, "zoo_build", lambda *a: built.append(build(*a)) or built[-1])
        text = FACTORIZATION_CONFIG.format(
            model="cycle", n=8, grid="2 4 6", out=tmp_path / "o",
            kappa=f"[diagnostics.kappa]\nt0 = {t0}\n")
        run_experiment(parse_config(write_config(tmp_path, text)))
        assert list(built[0].semigroup._ops) == keys
        assert counts["_exp_step"] == steps

    @pytest.mark.parametrize("h,base_point", [("0.1", "60"), ("0.01", "600")],
                             ids=["ho_oracle", "ho_kernel"])
    def test_ho_oracle_run_takes_no_arpack_and_no_dense_eigh(
            self, tmp_path, counts, dense_eigs, monkeypatch, h, base_point):
        # the Mehler kernel is symmetric and positive: its triple is a block
        # subspace iteration on the grid's U_1, whose only eigh calls are the
        # 8 x 8 Ritz solves, so the kernel is built once per grid time.  No
        # Krylov solver runs: neither ARPACK, which no module imports, nor the
        # non-reversible Arnoldi helper
        import qergo.diagnostics as diagnostics
        import qergo.models as models
        import qergo.spectral as spectral

        arnoldi_calls, eigh_shapes, builds = [], [], []
        for module in (spectral, diagnostics):
            monkeypatch.setattr(module, "_arnoldi", lambda *a, _f=module._arnoldi:
                                arnoldi_calls.append(1) or _f(*a))
        ritz, build = np.linalg.eigh, models.build_ho_discretization
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, *r, **k: eigh_shapes.append(a.shape) or ritz(a, *r, **k))
        monkeypatch.setattr(
            models, "build_ho_discretization", lambda grid, t: builds.append(t) or build(grid, t))
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = HO_ORACLE.read_text().replace("h = 0.1", f"h = {h}")
        text = text.replace("base_point = 60", f"base_point = {base_point}")
        _, _, code = run_experiment(parse_config(write_config(tmp_path, text)))
        assert code == 0
        assert counts["_exp_step"] == 0 and dense_eigs == arnoldi_calls == []
        assert eigh_shapes and set(eigh_shapes) == {(8, 8)}
        assert builds == [0.5, 0.75, 1.0, 1.25]


class TestMainEntry:
    def test_list_models_stable_and_complete(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "ho" in out and "frac" in out
        assert out == _second_listing()

    def test_spectral_subcommand(self, capsys):
        assert main(["spectral", "birthdeath(6)"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda0 ")

    def test_spectral_on_ho_oracle(self, capsys):
        assert main(["spectral", "ho(4, 0.1)"]) == 0
        out = capsys.readouterr().out
        lam0 = float(out.splitlines()[0].split()[1])
        assert lam0 == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("model", ["birthdeath(1)", "cycle(1)", "ho(0.05, 0.1)"])
    def test_one_state_model_exits_one(self, capsys, model):
        # no gap, rate or QSD uniqueness is defined on one state
        assert main(["spectral", model]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1-state" in err

    def test_spectral_matches_the_ho_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        _, paths, _ = run_experiment(parse_config(str(HO_ORACLE)))
        assert main(["spectral", "ho(6, 0.1)"]) == 0
        assert capsys.readouterr().out == open(paths["spectral"]).read()

    def test_mc_subcommand(self, capsys):
        # frac carries a potential, so its survival is below 1 and the check can fail
        assert main(["mc", "frac(1.0)", "--t", "0.5", "--n", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "agree3sigma=True" in out
        assert float(out.split("matrix=")[1].split()[0]) < 1.0

    def test_mc_writes_the_row_of_the_run(self, tmp_path):
        # frac(1.0) with its potential: a survival below 1, so the row pins the stream
        text = ("[model]\nid = frac\nalpha = 1.0\npotential = log-power\n[times]\nt_grid = 0.5 1.5\n"
                f"[mc]\nn = 3000\nseed = 11\n[output]\ndir = {tmp_path / 'run'}\n")
        assert main(["run", write_config(tmp_path, text)]) == 0
        one = tmp_path / "one.csv"
        args = ["--t", "1.5", "--n", "3000", "--seed", "11", "-o", str(one)]
        assert main(["mc", "frac(1.0)", *args]) == 0
        run_rows = (tmp_path / "run" / "mc.csv").read_text().splitlines()[1:]
        assert one.read_text().splitlines()[1:] == [run_rows[0], run_rows[2]]

    @pytest.mark.parametrize("args,named", [
        (["--n", "1"], "--n"), (["--n", "0"], "--n"), (["--n", "-5"], "--n"),
        (["--t", "-1"], "--t"), (["--t", "0"], "--t"), (["--t", "nan"], "--t"),
        (["--t", "inf"], "--t"), (["--seed", "-1"], "--seed"),
        (["--n", "100000", "--t", "1000"], "largest usable n is 33554"),
        # a short horizon still costs every path a step: 1e9 paths are ~16 GB of state
        (["--n", "1000000000", "--t", "0.001"], f"largest usable n is {MAX_PATH_STEPS}"),
    ], ids=["n_one", "n_zero", "n_negative", "t_negative", "t_zero", "t_nan", "t_inf",
            "seed_negative", "past_the_budget", "short_horizon_past_the_budget"])
    def test_mc_bad_option_exits_one(self, capsys, monkeypatch, args, named):
        import qergo.cli as cli

        def no_simulation(*args):
            raise AssertionError("paths were simulated before the option check")

        monkeypatch.setattr(cli, "fk_estimate", no_simulation)
        assert main(["mc", "birthdeath(6)", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --") and named in err

    @pytest.mark.parametrize("x0", ["99", "abc"])
    def test_mc_start_point_outside_the_model_exits_one(self, capsys, monkeypatch, x0):
        import qergo.cli as cli

        def no_simulation(*args):
            raise AssertionError("paths were simulated before the point check")

        monkeypatch.setattr(cli, "fk_estimate", no_simulation)
        assert main(["mc", "birthdeath(6)", "--x0", x0]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{x0}'" in err and "6-state" in err

    def test_run_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nid = swap2\n[times]\nt_grid = 3 2 1\n")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_model_exits_one(self, capsys):
        assert main(["spectral", "nonexistent(3)"]) == 1

    @pytest.mark.parametrize("text,named", [
        ("birthdeath()", "'n'"),
        ("box(2)", "'n'"),
        ("frac()", "'alpha'"),
        ("cycle(abc)", "'abc'"),
        ("birthdeath(20, 5)", "birthdeath(n)"),
        ("swap2(3)", "swap2()"),
        ("ho(6, 0)", "lattice h must be finite and positive"),
        ("ho(6, -0.1)", "lattice h must be finite and positive"),
        ("ho(6, nan)", "lattice h must be finite and positive"),
        ("ho(0, 0.1)", "lattice half_width must be finite and positive"),
    ])
    def test_malformed_model_string_exits_one(self, capsys, text, named):
        assert main(["spectral", text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_unknown_model_key_exits_one(self, tmp_path, capsys):
        text = "[model]\nid = cycle\nn = 4\npotential = power\nbta = 3.0\n[times]\nt_grid = 1 2\n"
        assert main(["run", write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'bta'" in err

    @pytest.mark.parametrize("data,named", [
        ("q = nan 1 ; 1 0", "finite entries"),
        ("q = 0 1 ; inf 0", "finite entries"),
        ("q = 0 1 ; 1 0\nmu = 1 inf", "mu must be finite and > 0"),
        ("q = 0 1 ; 1 0\nmu = 1 -1", "mu must be finite and > 0"),
    ], ids=["q_nan", "q_inf", "mu_inf", "mu_negative"])
    def test_nonfinite_user_data_exits_one_before_any_output(self, tmp_path, capsys, data, named):
        out = tmp_path / "o"
        text = (f"[model]\nid = user\n{data}\n[times]\nt_grid = 1 2\n"
                f"[diagnostics]\nnames = heat_content\n[output]\ndir = {out}\n")
        assert main(["run", write_config(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_vector_model_key_from_config(self, tmp_path):
        text = "[model]\nid = birthdeath\nn = 4\nmu = 1 2 4 8\n[times]\nt_grid = 1 2\n"
        cfg = parse_config(write_config(tmp_path, text))
        model = zoo_build(cfg.model_id, cfg.model_params)
        np.testing.assert_array_equal(model.space.mu, [1.0, 2.0, 4.0, 8.0])

    @pytest.mark.parametrize("old,new,named", [
        ("base_point = 5", "base_point = 99", "base_point '99'"),
        ("sigma = point:3", "sigma = point:77", "sigma '77'"),
    ])
    def test_point_outside_the_model_exits_one(
            self, tmp_path, capsys, monkeypatch, old, new, named):
        from qergo.operators import Semigroup

        def no_operator(*args):
            raise AssertionError("an operator was built before the point check")

        monkeypatch.setattr(Semigroup, "operator", no_operator)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text()
        assert old in text
        path = write_config(tmp_path, text.replace(old, new))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(old) + 1
        assert err.startswith(f"error: {path}:{line}: ") and named in err

    @pytest.mark.parametrize("radius", ["linear:abc", "power:1", "table:1", "bogus:1"])
    def test_malformed_radius_exits_one(self, tmp_path, capsys, monkeypatch, radius):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text()
        old = "radius = linear:0.6"
        assert old in text
        path = write_config(tmp_path, text.replace(old, f"radius = {radius}"))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(old) + 1
        assert err.startswith(f"error: {path}:{line}: ") and repr(radius) in err

    @pytest.mark.parametrize("old,new", [
        ("linear:0.6", "linear:0"), ("linear:0.6", "const:0"), ("linear:0.6", "power:2,0"),
        ("linear:0.6", "power:0,3"), ("linear:0.6", "table:0:2,5:1,9:4"),
        ("[output]", "[verdicts]\nqsd_tol = 0\nrate_tol = 0\nfit_tail = 1\n\n[output]"),
    ], ids=["linear_zero", "const_zero", "power_constant", "power_zero", "table", "verdicts"])
    def test_range_edges_parse(self, tmp_path, old, new):
        text = BIRTHDEATH_FULL.read_text()
        assert old in text
        cfg = parse_config(write_config(tmp_path, text.replace(old, new)))
        radius = cfg.family["radius"]
        assert all(0.0 <= radius(s) <= radius(t) for s, t in [(0.0, 1.0), (1.0, 7.0)])

    def test_malformed_t_min_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text()
        old = "t_min = 0.0"
        assert old in text
        path = write_config(tmp_path, text.replace(old, "t_min = abc"))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(old) + 1
        assert err.startswith(f"error: {path}:{line}: ") and "'abc'" in err

    @pytest.mark.parametrize("t_min,refused", [
        ("100", True), (repr(float("0.333333333333333333") * 6.7), False), ("2.5", True),
    ], ids=["above", "at_bound", "2.5"])
    def test_t_min_above_kappas_smallest_ball_is_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch, t_min, refused):
        # kappa reads K_{at} and K_{bt} from min(a, b) t_grid[0] = 6.7 / 3 on; a
        # larger t_min is refused on its line at parse, not after the build
        import qergo.models as models

        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        old, new = "t_min = 0.0", f"t_min = {t_min}"
        text = BIRTHDEATH_FULL.read_text().replace("[mc]\nn = 20000\nseed = 1234\n", "")
        assert old in text
        path = write_config(tmp_path, text.replace(old, new))
        if not refused:
            assert main(["run", path]) in (0, 2)
            assert "error" not in capsys.readouterr().err
            return
        monkeypatch.setattr(models, "zoo_build", lambda *args: pytest.fail("model built"))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(old) + 1
        assert err.startswith(f"error: {path}:{line}: t_min = {float(t_min)} exceeds 2.23")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old,new,bad", [
        ("t0 = 1.0", "t0 = abc", "t0 = abc"),
        ("a = 0.333333333333333333", "a = abc", "a = abc"),
        ("[output]", "[verdicts]\nrate_tol = abc\n\n[output]", "rate_tol = abc"),
        ("n = 20000", "n = abc", "n = abc"),
        ("seed = 1234", "seed = 1.5", "seed = 1.5"),
        ("[output]", "[diagnostics.eta]\ngamma = abc\n\n[output]", "gamma = abc"),
        ("p = inf", "p = abc", "p = abc"),
        ("a = 0.333333333333333333\nb = 0.333333333333333333", "b = 0.45", "b = 0.45"),
        # in range only: a + 2b = 1 holds, but b leaves (0, 1/2) or p falls below 1
        ("a = 0.333333333333333333\nb = 0.333333333333333333", "a = 1.2\nb = -0.1", "b = -0.1"),
        ("a = 0.333333333333333333\nb = 0.333333333333333333", "a = 0.0\nb = 0.5", "b = 0.5"),
        ("p = inf", "p = 0.5", "p = 0.5"),
        ("p = inf", "p = nan", "p = nan"),
        ("t0 = 1.0", "t0 = -1.0", "t0 = -1.0"),
        ("[output]", "[diagnostics.eta]\ngamma = -1.0\n\n[output]", "gamma = -1.0"),
        ("[output]", "[diagnostics.eta]\ngamma = 0.0\n\n[output]", "gamma = 0.0"),
        # grid times: each must be finite and > 0, and uniqueness needs two of them
        ("t_grid = 6.7", "t_grid = 0", "t_grid = 0 8.0 9.3 10.6 11.9 13.2"),
        ("t_grid = 6.7", "t_grid = -6.7", "t_grid = -6.7 8.0 9.3 10.6 11.9 13.2"),
        ("t_grid = 6.7", "t_grid = 6.7 nan", "t_grid = 6.7 nan 8.0 9.3 10.6 11.9 13.2"),
        ("13.2", "13.2 inf", "t_grid = 6.7 8.0 9.3 10.6 11.9 13.2 inf"),
        ("t_grid = 6.7 8.0 9.3 10.6 11.9 13.2", "t_grid = 6.7", "t_grid = 6.7"),
        # a Monte Carlo block needs two paths and a seed numpy accepts
        ("n = 20000", "n = 1", "n = 1"),
        ("n = 20000", "n = 0", "n = 0"),
        ("seed = 1234", "seed = -1", "seed = -1"),
        # verdict values: tolerances finite and >= 0, gsd_level finite and > 0,
        # fit_tail in (0, 1]
        ("[output]", "[verdicts]\nqsd_tol = -1\n\n[output]", "qsd_tol = -1"),
        ("[output]", "[verdicts]\nmatch_tol = inf\n\n[output]", "match_tol = inf"),
        ("[output]", "[verdicts]\nrate_tol = nan\n\n[output]", "rate_tol = nan"),
        ("[output]", "[verdicts]\ngsd_level = -1\n\n[output]", "gsd_level = -1"),
        ("[output]", "[verdicts]\ngsd_level = 0\n\n[output]", "gsd_level = 0"),
        ("[output]", "[verdicts]\nfit_tail = 2\n\n[output]", "fit_tail = 2"),
        ("[output]", "[verdicts]\nfit_tail = 0\n\n[output]", "fit_tail = 0"),
        # the radius law must be nonnegative and nondecreasing
        ("linear:0.6", "linear:-1", "radius = linear:-1"),
        ("linear:0.6", "const:-2", "radius = const:-2"),
        ("linear:0.6", "power:-1,1", "radius = power:-1,1"),
        ("linear:0.6", "power:1,-1", "radius = power:1,-1"),
        ("linear:0.6", "linear:nan", "radius = linear:nan"),
        ("linear:0.6", "const:inf", "radius = const:inf"),
        ("linear:0.6", "table:0:1,5:-1", "radius = table:0:1,5:-1"),
        # a t_min that is not finite would never end the exhaustion search
        ("t_min = 0.0", "t_min = nan", "t_min = nan"),
        ("t_min = 0.0", "t_min = inf", "t_min = inf"),
        ("t_min = 0.0", "t_min = -inf", "t_min = -inf"),
    ], ids=["kappa_t0", "kappa_a", "rate_tol", "mc_n", "mc_seed", "eta_gamma", "qe_p",
            "kappa_b_alone", "kappa_b_negative", "kappa_b_half", "qe_p_below_one", "qe_p_nan",
            "kappa_t0_negative", "eta_gamma_negative", "eta_gamma_zero", "t_grid_zero",
            "t_grid_negative", "t_grid_nan", "t_grid_inf", "uniqueness_one_time",
            "mc_n_one", "mc_n_zero", "mc_seed_negative", "qsd_tol_negative", "match_tol_inf",
            "rate_tol_nan", "gsd_level_negative", "gsd_level_zero", "fit_tail_above_one",
            "fit_tail_zero", "radius_linear_negative", "radius_const_negative",
            "radius_power_coefficient_negative", "radius_power_exponent_negative",
            "radius_linear_nan", "radius_const_inf", "radius_table_negative", "t_min_nan",
            "t_min_inf", "t_min_neg_inf"])
    def test_bad_config_number_exits_one_before_any_build(
            self, tmp_path, capsys, monkeypatch, old, new, bad):
        import qergo.models as models

        def no_model(*args):
            raise AssertionError("a model was built before the config check")

        monkeypatch.setattr(models, "zoo_build", no_model)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text()
        assert old in text
        text = text.replace(old, new)
        path = write_config(tmp_path, text)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(bad) + 1
        assert err.startswith(f"error: {path}:{line}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names,code", [
        ("kernel_convergence", 1), ("gsd", 1), ("uniqueness", 1), ("heat_content", 0)])
    def test_grid_past_the_double_range_exits_one(self, tmp_path, capsys, monkeypatch, names, code):
        # lambda0 ~ 0.346, so e^{lambda0 t} overflows from t ~ 2051 on; only the
        # diagnostics that scale by it are refused, on the t_grid line ([mc] is
        # left out: 20000 paths to t = 6000 take most of a minute)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text()
        grid = "t_grid = 3000 4000 5000 6000"
        text = text.replace("t_grid = 6.7 8.0 9.3 10.6 11.9 13.2", grid).replace(
            "names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness",
            f"names = {names}").replace("[mc]\nn = 20000\nseed = 1234\n", "")
        path = write_config(tmp_path, text)
        assert main(["run", path]) == code
        err = capsys.readouterr().err
        if code == 1:
            lambda0 = principal_triple(zoo_build("birthdeath", parse_config(path).model_params)).lambda0
            t_max = np.log(np.finfo(float).max) / lambda0
            assert err.startswith(f"error: {path}:{text.splitlines().index(grid) + 1}: ")
            assert f"largest usable t is {t_max:.6g}" in err and 2000 < t_max < 2100
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mc,bad", [
        ("[mc]\nn = 20000\nseed = 1234\n", "n = 20000"), ("[mc]\nseed = 1234\n", "[mc]"),
    ], ids=["n", "default_n"])
    def test_mc_past_the_path_step_budget_exits_one(self, tmp_path, capsys, monkeypatch, mc, bad):
        # 20000 (or the default 10000) paths to t = 6000 are ~1e8 path steps, past
        # the 2^25 budget; refused on the [mc] n line (or the [mc] line when n is
        # left out) before any model is built or output written
        import qergo.models as models

        def no_model(*args):
            raise AssertionError("a model was built before the [mc] budget check")

        monkeypatch.setattr(models, "zoo_build", no_model)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = BIRTHDEATH_FULL.read_text().replace(
            "t_grid = 6.7 8.0 9.3 10.6 11.9 13.2", "t_grid = 3000 4000 5000 6000").replace(
            "names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness",
            "names = heat_content").replace("[mc]\nn = 20000\nseed = 1234\n", mc)
        path = write_config(tmp_path, text)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(bad) + 1
        assert err.startswith(f"error: {path}:{line}: ")
        assert f"largest usable n is {MAX_PATH_STEPS // 6000}" in err
        assert not (tmp_path / "o").exists()

    def test_shipped_mc_blocks_are_within_the_budget(self):
        # the shipped config and the README's `qergo mc` example must still run
        cfg = parse_config(str(BIRTHDEATH_FULL))
        assert _mc_problem(cfg.mc["n"], cfg.mc["seed"], cfg.t_grid[-1]) is None
        assert _mc_problem(2000, 7, 1.0) is None

    def test_readme_mc_example_checks_a_survival_below_one(self, capsys):
        # frac carries a potential, so U_t 1 < 1 and the 3-sigma check can fail
        line = next(row for row in README.read_text().splitlines() if row.startswith("qergo mc "))
        assert main(shlex.split(line)[1:]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"matrix=(\S+)", out).group(1)) < 1.0
        assert "agree3sigma=True" in out

    @pytest.mark.parametrize("verdicts,code", [("", 0), ("[verdicts]\nrate_tol = 0\n", 2)],
                             ids=["pass", "fail"])
    def test_run_prints_the_verdicts_then_the_outputs(self, tmp_path, capsys, verdicts, code):
        out = tmp_path / "o"
        path = write_config(tmp_path, SWAP2_CONFIG.format(out=out) + verdicts)
        assert main(["run", path]) == code
        printed = capsys.readouterr().out.splitlines()
        lines = [row for row in open(out / "verdict.txt").read().splitlines()
                 if not row.startswith("#")]
        assert ("FAIL" in " ".join(lines)) == (code == 2)
        names = ("series.csv", "spectral.txt", "summary.csv", "verdict.txt")
        assert printed == lines + [f"wrote {', '.join(str(out / name) for name in names)}"]

    def test_runtime_error_keeps_its_type(self, tmp_path, capsys, monkeypatch):
        import qergo.cli as cli

        def boom(cfg):
            raise FloatingPointError("boom")

        monkeypatch.setattr(cli, "run_experiment", boom)
        path = write_config(tmp_path, SWAP2_CONFIG.format(out=tmp_path / "o"))
        assert main(["run", path]) == 1
        assert "runtime error: FloatingPointError: boom" in capsys.readouterr().err


def _second_listing():
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["list-models"])
    return buf.getvalue()
