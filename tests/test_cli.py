import gc
import importlib.util
import math
import os
import re
import shlex
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qergo.cli import (
    _KEYS,
    DIAGNOSTIC_NAMES,
    ConfigError,
    list_models,
    main,
    parse_config,
    parse_model_string,
    run_experiment,
)
from qergo.models import (
    _ZOO,
    MAX_STATES,
    build_ctmc_model,
    build_ho_discretization,
    lattice_space,
    zoo_build,
)
from qergo.montecarlo import check_batch
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


REDUCIBLE = """
[model]
id = user
q = 0 1 0 0 ; 1 0 0 0 ; 0 0 0 1 ; 0 0 1 0
v = 0 0 1 1

[times]
t_grid = 0.5 1.0 1.5 2.0

[diagnostics]
names = {names}

[output]
dir = {out}
"""

ALL_NAMES = "heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness"


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

    @pytest.mark.parametrize("section,key,msg", [
        ("[diagnostics]\nnames = qsd gsd qsd\n", "names", "diagnostic 'qsd' is named twice"),
        *[(f"[diagnostics]\nnames = quasi_ergodic\n[diagnostics.quasi_ergodic]\nsigma = {spec}\n",
           "sigma", f"unknown sigma spec {spec!r}") for spec in ("gaussian", "uniform:3", "point")],
    ], ids=["name_twice", "sigma_kind", "sigma_uniform_with_an_argument", "sigma_point_without_one"])
    def test_refused_on_its_line_at_parse(self, tmp_path, section, key, msg):
        text = "[model]\nid = swap2\n[times]\nt_grid = 1 2\n" + section
        path = write_config(tmp_path, text)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:{line}: {re.escape(msg)}$"):
            parse_config(path)

    def test_model_strings(self):
        assert parse_model_string("swap2") == ("swap2", {})
        assert parse_model_string("birthdeath(20)") == ("birthdeath", {"n": 20})
        mid, params = parse_model_string("frac(1.0, 0.0, 2.0, polynomial)")
        assert mid == "frac" and params["alpha"] == 1.0
        assert ",log-power," in zoo_build(mid, params).label
        mid, params = parse_model_string("frac(1.0, 1.5, 0.5, exponential)")
        assert ",power," in zoo_build(mid, params).label
        assert parse_model_string("box(2, 25)") == ("box", {"d": 2, "n": 25})


KEY_TABLE = [(section, key) for section, keys in _KEYS.items() for key in keys]
MODEL_KEYS = [(model_id, key) for model_id, entry in _ZOO.items() for key in entry.keys]
NUMERIC_MODEL_KEYS = [(model_id, key) for model_id, key in MODEL_KEYS
                      if _ZOO[model_id].keys[key].type is not str]
# (id, key, value, the start of its refusal): a word for each numeric key, an n
# past the state budget for each id that takes one, and a box of dimension 0
BAD_MODEL_VALUES = [(m, k, "abc", f"bad '{k}' value 'abc': ") for m, k in NUMERIC_MODEL_KEYS] + [
    (m, k, str(MAX_STATES + 1), f"n must be <= {MAX_STATES}, the desk-scale state budget, "
     f"got {MAX_STATES + 1}") for m, k in MODEL_KEYS if k == "n"] + [
    ("box", "d", "0", "d must be >= 1, got 0")]
# a value for each key that an id requires
REQUIRED = {"n": "4", "alpha": "1.0", "q": "0 1 ; 1 0"}


def model_config(model_id, *lines, **values):
    """A config of ``model_id`` with its required keys, ``values`` over them (None
    leaves a key out) and ``lines`` below, then one grid time."""
    keys = {k: v for k, v in REQUIRED.items() if k in _ZOO[model_id].keys}
    rows = [f"{k} = {v}" for k, v in (keys | values).items() if v is not None]
    return "\n".join(["[model]", f"id = {model_id}", *rows, *lines, "", "[times]", "t_grid = 1", ""])


class TestKeyTable:
    """Every section is read by its rows of cli._KEYS, and [model] by its id's
    rows of the zoo: a key or a section that the table does not hold is
    refused on its line at parse."""

    @staticmethod
    def _refused(tmp_path, capsys, monkeypatch, text, bad):
        """Exit 1 on the line of ``bad`` before any build, with no output; the message."""
        import qergo.models as models

        monkeypatch.setattr(models, "zoo_build", lambda *args: pytest.fail("model built"))
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        path = write_config(tmp_path, text)
        assert main(["run", path]) == 1
        out, err = capsys.readouterr()
        prefix = f"error: {path}:{text.splitlines().index(bad) + 1}: "
        assert out == "" and err.startswith(prefix)
        assert not (tmp_path / "o").exists()
        return err[len(prefix):].strip()

    @pytest.mark.parametrize("section,key", KEY_TABLE, ids=[f"{s}-{k}" for s, k in KEY_TABLE])
    def test_misspelt_key_is_refused_on_its_line(self, tmp_path, capsys, monkeypatch, section, key):
        text, header, bad = BIRTHDEATH_FULL.read_text(), f"[{section}]\n", f"{key}{key[-1]} = 1"
        if header in text:
            text = text.replace(header, header + bad + "\n")
        else:
            text += f"\n{header}{bad}\n"
        msg = self._refused(tmp_path, capsys, monkeypatch, text, bad)
        assert msg.startswith(f"unknown key '{key}{key[-1]}'; [{section}] has ")

    def test_a_key_written_with_a_colon_is_refused_on_its_line(self, tmp_path, capsys, monkeypatch):
        # configparser's other delimiter: the line of "sed: 1234" is found too
        text = BIRTHDEATH_FULL.read_text().replace("seed = 1234", "sed: 1234")
        msg = self._refused(tmp_path, capsys, monkeypatch, text, "sed: 1234")
        assert msg == "unknown key 'sed'; [mc] has n, seed"

    @pytest.mark.parametrize("model_id,key", MODEL_KEYS, ids=[f"{m}-{k}" for m, k in MODEL_KEYS])
    def test_misspelt_model_key_is_refused_on_its_line(
            self, tmp_path, capsys, monkeypatch, model_id, key):
        bad = f"{key}{key[-1]} = 1"
        msg = self._refused(tmp_path, capsys, monkeypatch, model_config(model_id, bad), bad)
        assert msg.startswith(f"unknown key '{key}{key[-1]}'; model '{model_id}' has ")

    @pytest.mark.parametrize("model_id,key,value,msg", BAD_MODEL_VALUES,
                             ids=[f"{m}-{k}-{v}" for m, k, v, _ in BAD_MODEL_VALUES])
    def test_bad_model_value_is_refused_on_its_line(
            self, tmp_path, capsys, monkeypatch, model_id, key, value, msg):
        text = model_config(model_id, **{key: value})
        assert self._refused(tmp_path, capsys, monkeypatch, text, f"{key} = {value}").startswith(msg)

    def test_unknown_model_id_is_refused_on_the_id_line(self, tmp_path, capsys, monkeypatch):
        text = BIRTHDEATH_FULL.read_text().replace("id = birthdeath", "id = birthdeth")
        msg = self._refused(tmp_path, capsys, monkeypatch, text, "id = birthdeth")
        assert msg.startswith("unknown zoo id 'birthdeth'; known: birthdeath, box, ")

    @pytest.mark.parametrize("model_id,key", [("birthdeath", "n"), ("frac", "alpha"), ("user", "q")])
    def test_missing_model_key_is_refused_at_parse(self, tmp_path, capsys, monkeypatch, model_id, key):
        text = model_config(model_id, **{key: None})
        msg = self._refused(tmp_path, capsys, monkeypatch, text, "[model]")
        assert msg == f"missing key '{key}', a required parameter of model '{model_id}'"

    @pytest.mark.parametrize("old,new,msg", [
        ("beta = 2.0", "bta = 2.0", "unknown key 'bta'; model 'birthdeath' has n, potential, beta, "
                                    "scale, mu"),
        ("n = 12", "n = twelve", "bad 'n' value 'twelve': not an integer"),
        ("n = 12", "n = 2002", "n must be <= 2001, the desk-scale state budget, got 2002"),
    ], ids=["misspelt_beta", "word_for_n", "n_past_the_state_budget"])
    def test_shipped_config_with_a_bad_model_key_is_refused_on_its_line(
            self, tmp_path, capsys, monkeypatch, old, new, msg):
        text = BIRTHDEATH_FULL.read_text()
        assert old in text
        assert self._refused(tmp_path, capsys, monkeypatch, text.replace(old, new), new) == msg

    def test_values_are_read_verbatim(self, tmp_path):
        # no interpolation: a '%' is a character and %(p)s is not another key's value
        text = BIRTHDEATH_FULL.read_text().replace("dir = out/birthdeath_full", "dir = out%d")
        text = text.replace("sigma = point:3", "sigma = point:%(p)s")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.output_dir == "out%d"
        assert cfg.diag_params["quasi_ergodic"]["sigma"] == "point:%(p)s"

    def test_model_values_are_the_table_s(self, tmp_path):
        cfg = parse_config(str(BIRTHDEATH_FULL))
        assert cfg.model_params == {"n": 12, "potential": "power", "beta": 2.0, "scale": 0.15}
        cfg = parse_config(write_config(tmp_path, model_config("frac")))
        assert cfg.model_params == {"alpha": 1.0, "delta": 0.0, "kind": "polynomial", "m": 1.0,
                                    "half_width": 50.0, "h": 0.25}

    @pytest.mark.parametrize("before,after,header", [
        ("", "\n[diagnostic.kappa]\nt0 = -3\n", "[diagnostic.kappa]"),
        ("[DEFAULT]\nseed = 1\n\n", "", "[DEFAULT]"),
    ], ids=["misspelt_section", "default_section"])
    def test_unknown_section_is_refused_on_its_header_line(
            self, tmp_path, capsys, monkeypatch, before, after, header):
        text = before + BIRTHDEATH_FULL.read_text() + after
        assert header in self._refused(tmp_path, capsys, monkeypatch, text, header)

    def test_an_empty_default_section_parses(self, tmp_path):
        text = "[DEFAULT]\n" + BIRTHDEATH_FULL.read_text()
        assert parse_config(write_config(tmp_path, text)).mc == {"n": 20000, "seed": 1234}

    def test_mc_option_defaults_are_the_table_s(self, tmp_path, monkeypatch):
        import qergo.cli as cli

        defaults = {key: kind.default for key, kind in _KEYS["mc"].items()}
        assert defaults == {"n": 10000, "seed": 0}
        text = BIRTHDEATH_FULL.read_text().replace("n = 20000\nseed = 1234\n", "")
        assert parse_config(write_config(tmp_path, text)).mc == defaults
        asked = []

        def no_simulation(*args):  # the batch rule is asked first, then the estimator
            asked.append(args[-2:])
            raise RuntimeError("stop")

        monkeypatch.setattr(cli, "check_batch", lambda *args: asked.append(args))
        monkeypatch.setattr(cli, "fk_estimate", no_simulation)
        assert main(["mc", "swap2"]) == 1
        assert asked == [(defaults["n"], 1.0), (defaults["n"], defaults["seed"])]

    def test_verdict_file_lists_the_default_tolerances(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(parse_config(write_config(tmp_path, SWAP2_CONFIG.format(out=out))))
        lines = [row for row in open(out / "verdict.txt").read().splitlines()
                 if row.startswith("# default")]
        assert lines == ["# default fit_tail = 0.5", "# default gsd_level = 10.0",
                         "# default match_tol = 1e-08", "# default qsd_tol = 1e-09",
                         "# default rate_tol = 0.1"]

    def test_shipped_and_bench_configs_parse_and_the_readme_lists_the_table(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        shipped = sorted((root / "configs").glob("*.ini"))
        bench = [workloads.write_config(root, name, 0, tmp_path / f"{name}.ini")
                 for name in workloads.WORKLOADS]
        assert len(shipped) == 2 and len(bench) == 4
        for path in shipped + bench:
            parse_config(str(path))
        rows = re.findall(r"^\| `\[([\w.]+)\]` \| `(\w+)` \|", README.read_text(), re.M)
        assert rows == KEY_TABLE
        ids = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", README.read_text(), re.M)
        assert [(model_id, keys.split(", "), required) for model_id, keys, required in ids] == [
            (model_id, [f"`{key}`" for key in entry.keys],
             ", ".join(f"`{k}`" for k, row in entry.keys.items() if row.default is ...) or "none")
            for model_id, entry in _ZOO.items()]


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

    def test_reducible_chain_with_a_simple_top_eigenvalue_skips_qsd(self, tmp_path):
        # the 2-cycle of V = 0 dominates alone, so find_qsd does not warn; qsd
        # still has no spectral data and must say so, not leave the run a PASS
        out = tmp_path / "o"
        path = write_config(tmp_path, REDUCIBLE.format(names="qsd heat_content", out=out))
        assert main(["run", path]) == 2
        verdict = open(out / "verdict.txt").read()
        assert "FAIL qsd SKIPPED: no spectral data (reducible chain)\n" in verdict
        assert verdict.endswith("# overall FAIL\n")

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

    def test_nonpositive_sample_writes_a_skipped_rate_verdict(self, tmp_path, monkeypatch):
        import qergo.diagnostics as dg

        errors = iter([0.1, 0.0, 0.01, 0.001])
        monkeypatch.setattr(dg, "kernel_convergence_error", lambda *args: next(errors))
        text = SWAP2_CONFIG.format(out=tmp_path / "o").replace(
            "1.0 1.75 2.5 3.25 4.0 4.75", "1 2 3 4").replace(
            "heat_content kernel_convergence quasi_ergodic qsd gsd uniqueness", "kernel_convergence")
        report, _, code = run_experiment(parse_config(write_config(tmp_path, text)))
        assert code == 2 and report.verdicts == [
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

    @pytest.mark.parametrize("command", ["run", "mc"])
    def test_ho_oracle_with_mc_exits_one_before_any_build(
            self, tmp_path, capsys, monkeypatch, command):
        # the zoo entry says that "ho" has no generator: a config's [mc] is
        # refused on its line at parse, and `qergo mc` before its build
        import qergo.models as models

        def no_model(*args):
            raise AssertionError("a model was built before the generator check")

        monkeypatch.setattr(models, "zoo_build", no_model)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        text = HO_ORACLE.read_text() + "\n[mc]\nn = 100\nseed = 1\n"
        path = write_config(tmp_path, text)
        assert main(["run", path] if command == "run" else ["mc", "ho(4,0.1)"]) == 1
        out, err = capsys.readouterr()
        where = f"{path}:{text.splitlines().index('[mc]') + 1}: [mc]: " if command == "run" else ""
        assert out == "" and not (tmp_path / "o").exists()
        assert err == f"error: {where}Monte Carlo needs a Markov generator; zoo id 'ho' is kernel-only\n"

    @pytest.mark.parametrize("names,mc,key", [
        ("heat_content kappa", "[mc]\nn = 10\n", "[mc]"),
    ], ids=["mc"])
    def test_ho_oracle_generator_error_names_the_config_line(
            self, tmp_path, monkeypatch, names, mc, key):
        import qergo.models as models

        monkeypatch.setattr(models, "zoo_build", lambda *args: pytest.fail("model built"))
        text = ("[model]\nid = ho\nhalf_width = 2.0\nh = 0.5\n\n[times]\nt_grid = 0.5 1.0\n\n"
                f"[diagnostics]\nnames = {names}\n\n{mc}")
        path = write_config(tmp_path, text)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(key))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}:{line}: .*kernel-only"):
            parse_config(path)

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
        ("0.5", [2.0, 0.5], 2),  # off the grid and no sum of it: one more exponential
        ("8", [2.0, 8.0], 1),  # 8 = 6 + 2 is composed from the first and last grid operators
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
        # the engine keeps the transition form of the first operator it built
        # and the most recent operator, the factors a non-reversible build reads
        assert [*built[0]._first, *built[0]._ops] == keys
        assert counts["_exp_step"] == steps

    @pytest.mark.parametrize("h,base_point", [("0.1", "60"), ("0.01", "600")],
                             ids=["ho_oracle", "ho_kernel"])
    def test_ho_oracle_run_takes_no_arpack_and_no_dense_eigh(
            self, tmp_path, counts, dense_eigs, monkeypatch, h, base_point):
        # the Mehler kernel is symmetric and positive: its triple is a block
        # subspace iteration on U_1, built first, whose only eigh calls are the
        # 8 x 8 Ritz solves; the engine keeps U_1, so the kernel is built once
        # per grid time.  No
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
        assert builds == [1.0, 0.5, 0.75, 1.25]


FRAC_401 = """
[model]
id = frac
kind = polynomial
alpha = 1.0
potential = log-power
beta = 2.0
scale = 1.0
half_width = 50.0
h = 0.25

[times]
t_grid = 31.2 37.4 43.6 49.9 56.1 62.3

[diagnostics]
names = heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness

[diagnostics.quasi_ergodic]
p = inf
sigma = point:200

[family]
base_point = 200
radius = linear:0.6

[output]
dir = {out}
"""


class Builds:
    """What the engines build while recorded: the time of each operator, in
    order, a weak reference to each, how many built earlier were still
    referenced as each began, and, while tracemalloc traces, the bytes each
    build's peak lay above what was traced as it began."""

    def __init__(self):
        self.times, self.refs, self.held, self.peaks = [], [], [], []
        self._peaks_between = []

    def peak(self) -> int:
        """The traced peak since tracing began, which each build resets."""
        return max([*self._peaks_between, tracemalloc.get_traced_memory()[1]])


def record_builds(monkeypatch) -> Builds:
    """Record every ``_build`` of a MarkovModel or an OscillatorOracle."""
    import qergo.models as models
    import qergo.operators as operators

    builds = Builds()
    for cls in (operators.MarkovModel, models.OscillatorOracle):
        def tracked(self, t, _build=cls._build):
            builds.held.append(sum(r() is not None for r in builds.refs))
            tracing = tracemalloc.is_tracing()
            if tracing:
                live, peak = tracemalloc.get_traced_memory()
                builds._peaks_between.append(peak)
                tracemalloc.reset_peak()
            op = _build(self, t)
            if tracing:
                builds.peaks.append(tracemalloc.get_traced_memory()[1] - live)
            builds.times.append(t)
            builds.refs.append(weakref.ref(op))
            return op
        monkeypatch.setattr(cls, "_build", tracked)
    return builds


def series_order(model, t):
    """(N, series) of the first step series of U_t: the order of
    ``_exp_step`` on the unit-norm step of t G, and how it forms B P, "rows"
    when no row of Q has more than 2 jumps and "gemm" otherwise."""
    A = t * model.generator()
    A /= 2.0 ** max(math.frexp(np.linalg.norm(A, 1))[1], 0)
    np.fill_diagonal(A, A.diagonal() - A.diagonal().min())
    b = np.linalg.norm(A, 1)
    bounds = [1.0]
    while bounds[-1] > 0.1 * np.finfo(float).eps * sum(bounds):
        bounds.append(bounds[-1] * b / len(bounds))
    N = len(bounds) - 1
    jumps = np.count_nonzero(model.Q, axis=1) - (model.Q.diagonal() != 0)
    return N, "rows" if jumps.max() <= 2 else "gemm"


class TestOneGridPass:
    """A run takes the triple first, then visits the grid once: first the times
    whose U_t the engine already holds (the oracle's U_1, which its triple
    read), then the rest in ascending order.  It keeps only the survivals and
    reads of each U_t, stored by grid index, and drops U_t before the next
    build.  Its engine holds the most recent operator, and on a non-reversible
    model, which composes, the first one's transition form as a factor of later
    builds.  The oracle and a reversible model, whose builds read only its
    spectrum, hold the most recent one alone and release it before each build."""

    def test_a_run_holds_two_operator_sized_arrays_past_its_model(self, tmp_path, monkeypatch):
        # frac at n = 401 with every diagnostic.  Q and the spectrum's B live
        # as long as the model, which forms no n x n dual kernel, and the
        # spectrum writes its eigenvectors over S; while a grid time is read
        # the run adds its U_t and the reads' temporaries: the kernel error's
        # two 64 x n blocks, find_qsd's iteration and kappa's masked rows,
        # 3.99 n x n arrays in all.  The bound leaves 0.11 of margin.  A run
        # that held the kernel limit past the first grid time and took the
        # spectrum's vectors in a fresh array peaked at 5.41 n x n arrays, one
        # holding the whole grid of six operators at 12, one that kept U_t
        # alive through the next build at 7.66, and one that formed Q_dual and
        # kept the first operator at 7.41
        n = 401
        builds = record_builds(monkeypatch)
        cfg = parse_config(write_config(tmp_path, FRAC_401.format(out=tmp_path / "o")))
        tracemalloc.start()
        gc.disable()  # what the run leaves is freed by reference counting alone
        try:
            run_experiment(cfg)
            peak = builds.peak()
        finally:
            gc.enable()
            tracemalloc.stop()
        assert builds.times == cfg.t_grid
        assert peak < 4.1 * 8 * n * n
        # each build begins with no earlier operator alive, and once the run
        # has returned and been dropped none is left
        assert builds.held == [0] * 6
        assert [r().t for r in builds.refs if r() is not None] == []

    def test_an_oracle_run_holds_one_operator_and_the_kernel_error_blocks(
            self, tmp_path, monkeypatch):
        # ho_oracle.ini, n = 121: past its space the run holds one U_t at a
        # time, first the U_1 that the triple read, and the kernel error
        # adds its two 64 x n blocks; the bound allows 2^17 bytes
        # for numpy's ufunc buffers (8192 doubles each).  The traced run is the
        # second, so what a first call imports is left out.  It peaks at 2.82
        # n x n arrays under a bound of 3.18; a run whose engine kept U_1
        # through the grid peaked at 3.82, and with the n x n kernel limit
        # held as well, at 4.39
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        cfg = parse_config(str(HO_ORACLE))
        run_experiment(cfg)
        builds = record_builds(monkeypatch)
        tracemalloc.start()
        gc.disable()
        try:
            run, _, _ = run_experiment(cfg)
            peak = builds.peak()
        finally:
            gc.enable()
            tracemalloc.stop()
        n = run.model.n
        assert n == 121 and builds.times == [1.0, 0.5, 0.75, 1.25]
        assert peak <= 8 * n * n + 2 * 64 * 8 * n + 2**17

    @pytest.mark.parametrize("config,held", [
        (HO_ORACLE.read_text(), [0, 0, 0, 0]),  # U_1 for the triple, released before 0.5
        # U_t = U_2 U_{t-2}: the latest, which the build releases once it has
        # taken its transition form, and the first, held as that form alone
        (FACTORIZATION_CONFIG.format(
            model="cycle", n=8, grid="2 4 6 8 10 12", out="{out}", kappa=""), [0, 1, 1, 1, 1, 1]),
        # the six grid times, then kappa's t0 = 1 off the grid: a reversible
        # build reads only the spectrum, so none begins with an operator alive
        (BIRTHDEATH_FULL.read_text(), [0] * 7),
    ], ids=["oracle", "nonreversible", "reversible"])
    def test_a_build_begins_with_only_the_operators_it_may_read(
            self, tmp_path, monkeypatch, config, held):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        builds = record_builds(monkeypatch)
        config = config.replace("{out}", str(tmp_path / "o"))
        run_experiment(parse_config(write_config(tmp_path, config)))
        assert builds.held == held

    @pytest.mark.parametrize("series", ["rows", "gemm"])
    def test_the_first_nonreversible_exponential_holds_its_series_arrays(
            self, monkeypatch, series):
        # the step B is formed in the generator's one array, and the Horner
        # loop holds three n x n arrays.  cycle(400) has one jump per row: its
        # series holds B's array as a Horner buffer, the next P and the
        # gathered rows.  Three jumps per row take B P by GEMM: B, P and the
        # product's buffer.  A Paterson-Stockmeyer sum held B ... B^s, two
        # Horner buffers and one of the divisions, 6.01 arrays at s = 3
        cycle = zoo_build("cycle", {"n": 400, "potential": "power", "beta": "1.0", "scale": "2e-4"})
        model = cycle if series == "rows" else build_ctmc_model(
            400, sum(np.roll(np.eye(400), k, axis=1) for k in (1, 2, 3)) / 3.0, V=cycle.V)
        n, (N, taken) = model.n, series_order(model, 20.0)
        assert not model.reversible  # found once, before the trace
        builds = record_builds(monkeypatch)
        tracemalloc.start()
        try:
            model.operator(20.0)
        finally:
            tracemalloc.stop()
        assert N >= 10 and taken == series and builds.times == [20.0]
        assert builds.peaks[0] <= 3.1 * 8 * n * n, builds.peaks[0] / (8 * n * n)

    def test_a_composed_build_holds_one_transition_form_besides_the_engine(self):
        # at rest the engine holds its latest operator and the first one's
        # transition form.  A composed build takes the latest's transition
        # form and releases that operator before the product: 1.20 n x n
        # arrays above its entry, with the floor's mask and numpy's ufunc
        # buffer.  A build that formed both factors' transition forms beside
        # the first and the latest operators took 3.00
        model = zoo_build("cycle", {"n": 200, "potential": "power", "beta": "1.0", "scale": "2e-4"})
        n, peaks = model.n, []
        assert not model.reversible and model.jump_columns is not None
        tracemalloc.start()
        try:
            for t in (20.0, 40.0, 60.0):  # the first; first + first; first + latest
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                model.operator(t)
                peaks.append(tracemalloc.get_traced_memory()[1] - live)
            at_rest = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert max(peaks[1:]) <= 2.1 * 8 * n * n
        assert list(model._first) == [20.0] and list(model._ops) == [60.0]
        assert at_rest <= 2.1 * 8 * n * n

    @pytest.mark.parametrize("config", [
        BIRTHDEATH_FULL.read_text(), HO_ORACLE.read_text(),
        FACTORIZATION_CONFIG.format(model="cycle", n=8, grid="2 4 6 8", out="{out}", kappa=""),
        FACTORIZATION_CONFIG.format(model="cycle", n=8, grid="1 3 4 9", out="{out}",
                                    kappa="[diagnostics.kappa]\nt0 = 2\n"),
        FRAC_401,
    ], ids=["birthdeath_full", "ho_oracle", "cycle_composed", "cycle_t0_off_grid", "frac_401"])
    def test_no_operator_is_built_twice(self, tmp_path, monkeypatch, config):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        builds = record_builds(monkeypatch)
        cfg = parse_config(write_config(tmp_path, config.replace("{out}", str(tmp_path / "o"))))
        run_experiment(cfg)
        assert len(builds.times) == len(set(builds.times)) and set(cfg.t_grid) <= set(builds.times)

    @pytest.mark.parametrize("grid", [
        "1.0 1.25 1.5 1.75", "0.5 0.75 1.0 1.25 1.5", "0.25 0.5 0.75 1.0", "0.5 0.8 1.1 1.4",
    ], ids=["first", "middle", "last", "absent"])
    def test_an_oracle_pass_reads_the_held_u1_first_to_the_same_bits(
            self, tmp_path, monkeypatch, grid):
        # wherever t = 1 falls on the grid, or off it, no time is built twice
        # and no build begins with an operator alive; every diagnostic writes
        # what the ascending pass writes once the engine's U_1 is dropped
        import qergo.cli as cli

        text = HO_ORACLE.read_text().replace("t_grid = 0.5 0.75 1.0 1.25", f"t_grid = {grid}")
        text = text.replace("names = heat_content kernel_convergence gsd", f"names = {ALL_NAMES}")
        cfg = parse_config(write_config(tmp_path, text))
        builds = record_builds(monkeypatch)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "held"))
        _, paths, code = run_experiment(cfg)
        assert builds.times == [1.0] + [t for t in cfg.t_grid if t != 1.0]
        assert builds.held == [0] * len(builds.times)

        def emptied(model, triple=cli.principal_triple):
            spec = triple(model)
            model._ops.clear()
            return spec

        monkeypatch.setattr(cli, "principal_triple", emptied)
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "ascending"))
        first = len(builds.times)
        _, ascending, ascending_code = run_experiment(cfg)
        assert builds.times[first:] == [1.0] + cfg.t_grid and code == ascending_code
        for key in ("series", "summary", "verdict"):  # past the timestamped first line
            held, fresh = (open(p[key]).read().splitlines()[1:] for p in (paths, ascending))
            assert held == fresh and len(held) > 2


class TestNoDualKernel:
    """No run forms the model's n x n dual kernel: the constructor, the
    reversibility test and the triple's left residual read Q alone.  Asked for
    afterwards, Q_dual is formed once by the former expression, read-only."""

    @staticmethod
    def assert_dual_formed_on_first_use(model):
        assert "Q_dual" not in vars(model)
        mu, dual = model.space.mu, model.Q_dual
        assert model.Q_dual is dual and not dual.flags.writeable
        assert np.array_equal(dual, (model.Q * mu[:, None]).T / mu[:, None])

    @pytest.mark.parametrize("config", [
        FRAC_401, BIRTHDEATH_FULL.read_text(),
        FACTORIZATION_CONFIG.format(model="cycle", n=8, grid="2 4 6 8", out="{out}", kappa=""),
    ], ids=["frac_401", "birthdeath_full", "cycle"])
    def test_a_run_forms_no_dual_kernel(self, tmp_path, monkeypatch, config):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        cfg = parse_config(write_config(tmp_path, config.replace("{out}", str(tmp_path / "o"))))
        run, _, _ = run_experiment(cfg)
        self.assert_dual_formed_on_first_use(run.model)

    def test_the_nonreversible_triple_forms_no_dual_kernel(self):
        model = zoo_build(*parse_model_string("cycle(50)"))
        spec = principal_triple(model)
        assert not model.reversible and not np.array_equal(spec.phi0, spec.psi0)
        self.assert_dual_formed_on_first_use(model)


HEAT_PAIR = ["PASS heat_content_duality", "PASS heat_content_upper_bound"]
BIRTHDEATH_SEQUENCE = HEAT_PAIR * 6 + [
    "PASS kernel_convergence_rate", "PASS quasi_ergodic_rate", "PASS qsd_cross_method",
    *["PASS qsd_residual"] * 3, *["PASS gsd_reverse_bound"] * 6]


class TestVerdictSequence:
    """The ordered verdict names of a run, values stripped, with the whole line
    of a SKIPPED verdict: a diagnostic whose spectral data or [family] is
    missing writes one SKIPPED line in its place, and every other one reports."""

    @pytest.mark.parametrize("config,sequence", [
        (REDUCIBLE.format(names=ALL_NAMES, out="{out}"), HEAT_PAIR * 4 + [
            f"FAIL {name} SKIPPED: no spectral data (reducible chain)"
            for name in ALL_NAMES.split()[1:]]),
        (BIRTHDEATH_FULL.read_text().split("[family]")[0], BIRTHDEATH_SEQUENCE + [
            "FAIL eta SKIPPED: no [family] section", "FAIL kappa SKIPPED: no [family] section",
            "PASS uniqueness_condition"]),
        (BIRTHDEATH_FULL.read_text(), BIRTHDEATH_SEQUENCE + [
            "PASS eta_monotone", "PASS kappa_progressive_bound", "PASS uniqueness_condition",
            *["PASS mc_fk_vs_matrix"] * 6]),
        (HO_ORACLE.read_text(), ["PASS heat_content_duality"] * 4 + [
            "PASS kernel_convergence_rate", *["PASS gsd_reverse_bound"] * 4]),
    ], ids=["reducible", "birthdeath_no_family", "birthdeath_full", "ho_oracle"])
    def test_run_writes_its_verdicts_in_order(self, tmp_path, monkeypatch, config, sequence):
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        report, _, code = run_experiment(parse_config(write_config(tmp_path, config)))
        got = [("PASS " if ok else "FAIL ") + (line if "SKIPPED" in line else line.split()[0])
               for ok, line in report.verdicts]
        assert got == sequence
        assert code == (0 if all(row.startswith("PASS") for row in sequence) else 2)

    def test_a_ratio_above_the_first_fails_kappa(self, tmp_path, monkeypatch, capsys):
        # the family's radius jumps from 0 to 20, the whole chain, at 3.5: the
        # ball at b t = 3.53 takes it at t = 10.6, where E / kappa_b jumps
        # from 0.00494 to 0.165 against C = 0.015, the ratio at the first time
        monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path / "o"))
        config = BIRTHDEATH_FULL.read_text().split("[mc]")[0].replace(
            "radius = linear:0.6", "radius = table:0:0,3.4:0,3.5:20")
        assert main(["run", write_config(tmp_path, config)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
            "kappa_progressive_bound"]
        kappa = next(line for line in lines if "kappa_progressive_bound" in line)
        assert kappa.startswith("FAIL kappa_progressive_bound C=0.0150")
        assert "t=9.3:E/kb=0.00494 t=10.6:E/kb=0.165 " in kappa

    def test_no_run_forms_an_n_by_n_kernel_limit(self, tmp_path, monkeypatch):
        # the kernel error forms the limit's rows of each 64-row block in a
        # 64 x n buffer, so no run holds the n x n limit, through the grid
        # pass or through kappa's off-grid U_t0 after it: cycle at n = 130,
        # three blocks (the last short) per grid time
        import qergo.diagnostics as dg

        calls, kernel_limit = [], dg.kernel_limit

        def tracked_limit(spec, rows=slice(None), out=None):
            calls.append((rows, None if out is None else out.shape))
            return kernel_limit(spec, rows, out)

        monkeypatch.setattr(dg, "kernel_limit", tracked_limit)
        text = FACTORIZATION_CONFIG.format(model="cycle", n=130, grid="1 3 4 9", out=tmp_path / "o",
                                           kappa="[diagnostics.kappa]\nt0 = 2\n")
        run, _, _ = run_experiment(parse_config(write_config(tmp_path, text)))
        blocks = [(slice(0, 64), (64, 130)), (slice(64, 128), (64, 130)), (slice(128, 192), (2, 130))]
        assert calls == blocks * 4
        assert not hasattr(run, "limit")


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
        # --n and --seed are read by the [mc] rows, so a word is refused as in a config
        (["--n", "ten"], "--n: bad 'n' value 'ten': not an integer"),
        (["--seed", "1.5"], "--seed: bad 'seed' value '1.5': not an integer"),
        (["--n", "100000", "--t", "1000"], "largest usable n is 25492"),
        # a short horizon is still charged ~10 steps a path: 1e9 paths fill ~16 GB of jump times
        (["--n", "1000000000", "--t", "0.001"], "largest usable n is 3355107"),
    ], ids=["n_one", "n_zero", "n_negative", "t_negative", "t_zero", "t_nan", "t_inf",
            "seed_negative", "n_word", "seed_fraction", "past_the_budget",
            "short_horizon_past_the_budget"])
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

    @pytest.mark.parametrize("grid,msg", [
        ("3 2 1", "t_grid must be strictly increasing"), ("", "t_grid needs at least one time"),
    ], ids=["decreasing", "empty"])
    def test_run_bad_config_exits_one(self, tmp_path, capsys, grid, msg):
        path = tmp_path / "bad.ini"
        path.write_text(f"[model]\nid = swap2\n[times]\nt_grid = {grid}\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:4: {msg}\n"

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
        ("complete(2002)", f"n must be <= {MAX_STATES}, the desk-scale state budget, got 2002"),
        ("box(0, 4)", "d must be >= 1, got 0"),
        ("box(-1, 4)", "d must be >= 1, got -1"),
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
        from qergo.operators import MarkovModel

        def no_operator(*args):
            raise AssertionError("an operator was built before the point check")

        monkeypatch.setattr(MarkovModel, "operator", no_operator)
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
        # left out: 20000 paths to t = 6000 take most of a minute).  The triple
        # comes first, so a refused grid builds no operator
        import qergo.operators as operators

        builds, build = [], operators.MarkovModel._build
        monkeypatch.setattr(
            operators.MarkovModel, "_build", lambda self, t: builds.append(t) or build(self, t))
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
            assert not (tmp_path / "o").exists() and builds == []

    @pytest.mark.parametrize("mc,bad", [
        ("[mc]\nn = 20000\nseed = 1234\n", "n = 20000"), ("[mc]\nseed = 1234\n", "[mc]"),
    ], ids=["n", "default_n"])
    def test_mc_past_the_path_step_budget_exits_one(self, tmp_path, capsys, monkeypatch, mc, bad):
        # 20000 (or the default 10000) paths to t = 6000 are ~1.4e8 (~6.8e7) path
        # steps, past the 2^25 budget; refused on the [mc] n line (or the [mc] line
        # when n is left out) before any model is built or output written
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
        assert "largest usable n is 4952" in err
        assert not (tmp_path / "o").exists()

    def test_shipped_mc_blocks_are_within_the_budget(self):
        # the shipped config and the README's `qergo mc` example must still run
        cfg = parse_config(str(BIRTHDEATH_FULL))
        check_batch(cfg.mc["n"], cfg.t_grid[-1])
        check_batch(2000, 1.0)

    def test_readme_mc_example_checks_a_survival_below_one(self, capsys):
        # frac carries a potential, so U_t 1 < 1 and the 3-sigma check can fail
        line = next(row for row in README.read_text().splitlines() if row.startswith("qergo mc "))
        assert main(shlex.split(line)[1:]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"matrix=(\S+)", out).group(1)) < 1.0
        assert "agree3sigma=True" in out

    def test_readme_lists_every_diagnostic_in_table_order(self):
        text = " ".join(README.read_text().split())
        listed = re.search(r"`\[diagnostics\] names = \.\.\.` from: (.*?)\. ", text).group(1)
        assert tuple(re.findall(r"`(\w+)`", listed)) == DIAGNOSTIC_NAMES

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
