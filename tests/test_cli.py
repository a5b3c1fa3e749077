import os
from pathlib import Path

import numpy as np
import pytest

from qergo.cli import (
    ConfigError,
    list_models,
    main,
    parse_config,
    parse_model_string,
    run_experiment,
)
from qergo.models import build_ho_discretization, lattice_space, zoo_build
from qergo.spectral import principal_triple_from_operator, spectral_to_text

BIRTHDEATH_FULL = Path(__file__).resolve().parents[1] / "configs" / "birthdeath_full.ini"
HO_ORACLE = Path(__file__).resolve().parents[1] / "configs" / "ho_oracle.ini"


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

    def test_ho_oracle_rejects_generator_diagnostics(self, tmp_path):
        text = """
[model]
id = ho

[times]
t_grid = 0.5 1.0

[diagnostics]
names = uniqueness

[output]
dir = {out}
"""
        cfg = parse_config(write_config(tmp_path, text.format(out=tmp_path / "x")))
        with pytest.raises(ConfigError, match="kernel-only"):
            run_experiment(cfg)

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

    def test_ho_run_writes_the_triple_of_u1(self, tmp_path, monkeypatch):
        # the middle grid time is 1.1; the oracle's triple is still taken at t = 1
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = HO_ORACLE.read_text().replace("t_grid = 0.5 0.75 1.0 1.25", "t_grid = 0.5 0.8 1.1 1.4")
        _, paths, code = run_experiment(parse_config(write_config(tmp_path, text)))
        assert code == 0
        u1 = build_ho_discretization(lattice_space(6.0, 0.1), 1.0)
        assert open(paths["spectral"]).read() == spectral_to_text(principal_triple_from_operator(u1))

    def test_thread_override_is_deterministic(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "serial", tmp_path / "threaded"
        cfg1 = parse_config(write_config(tmp_path, SWAP2_CONFIG.format(out=out1), "s.ini"))
        run_experiment(cfg1)
        monkeypatch.setenv("QERGO_THREADS", "4")
        cfg2 = parse_config(write_config(tmp_path, SWAP2_CONFIG.format(out=out2), "t.ini"))
        run_experiment(cfg2)
        body1 = open(out1 / "series.csv").read().splitlines()[1:]
        body2 = open(out2 / "series.csv").read().splitlines()[1:]
        assert body1 == body2

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
    """One run factorizes each model once: one eigh when it is reversible.
    Otherwise one exponential of a step of 1-norm at most 1 per grid time that
    is not the sum of two earlier ones; those are formed by one product of
    memoized operators."""

    @pytest.fixture
    def expm_norms(self):
        return []

    @pytest.fixture
    def counts(self, monkeypatch, expm_norms):
        import qergo.operators as operators

        calls = {"eigh": 0, "expm": 0}

        def counting(name):
            original = getattr(operators, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "expm":
                    expm_norms.append(np.linalg.norm(args[0], 1))
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(operators, name, counting(name))
        return calls

    def test_reversible_run_does_one_eigh(self, tmp_path, counts):
        # kappa's t0 = 0.5 lies off the grid: its survivals still come from the eigh
        text = FACTORIZATION_CONFIG.format(
            model="birthdeath", n=12, grid="2 4 6 8 10 12", out=tmp_path / "o",
            kappa="[diagnostics.kappa]\nt0 = 0.5\n")
        run_experiment(parse_config(write_config(tmp_path, text)))
        assert counts == {"eigh": 1, "expm": 0}

    @pytest.mark.parametrize("grid,expm_calls", [
        ("2 4 6 8 10 12", 1),  # every later time is the sum of two earlier ones
        ("1 3 4 9", 3),  # only 4 = 3 + 1 is composed; 3 and 9 are not reachable
    ], ids=["uniform", "nonuniform"])
    def test_nonreversible_run_composes_sums_of_grid_times(
            self, tmp_path, counts, expm_norms, grid, expm_calls):
        text = FACTORIZATION_CONFIG.format(
            model="cycle", n=8, grid=grid, out=tmp_path / "o", kappa="")
        run_experiment(parse_config(write_config(tmp_path, text)))
        assert counts == {"eigh": 0, "expm": expm_calls}
        assert len(expm_norms) == expm_calls and max(expm_norms) <= 1.0

    def test_ho_oracle_run_does_one_eigh_and_no_eig(self, tmp_path, counts, monkeypatch):
        # the Mehler kernel is symmetric: its triple needs no general eig, and
        # it reuses the grid's U_1, so the kernel is built once per grid time
        import qergo.models as models
        import qergo.spectral as spectral

        eig_calls, builds = [], []
        general_eig, build = spectral.eig, models.build_ho_discretization
        monkeypatch.setattr(
            spectral, "eig", lambda *a, **k: eig_calls.append(1) or general_eig(*a, **k))
        monkeypatch.setattr(
            models, "build_ho_discretization", lambda grid, t: builds.append(t) or build(grid, t))
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        _, _, code = run_experiment(parse_config(str(HO_ORACLE)))
        assert code == 0
        assert counts == {"eigh": 1, "expm": 0} and not eig_calls
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

    def test_spectral_matches_the_ho_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        _, paths, _ = run_experiment(parse_config(str(HO_ORACLE)))
        assert main(["spectral", "ho(6, 0.1)"]) == 0
        assert capsys.readouterr().out == open(paths["spectral"]).read()

    def test_mc_subcommand(self, capsys):
        assert main(["mc", "birthdeath(6)", "--t", "0.5", "--n", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "agree3sigma=True" in out

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
