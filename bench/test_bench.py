"""Tests of the benchmark's own code: the correctness checker, the tracer and
the agreement of BENCHMARK.json with the workload and metric tables.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

VERDICTS = """\
# verdict 2026-01-01T00:00:00
# default rate_tol = 0.1
PASS heat_content_duality t=1.5 |Z-Z*|=0
PASS heat_content_duality t=3 |Z-Z*|=0
FAIL quasi_ergodic_rate fitted=0.18 gap=0.09 rel_err=0.93
PASS kappa_progressive_bound C=0.2 t=1.5:E/kb=0.2 t=3:E/kb=0.1
PASS mc_fk_vs_matrix t=1.5 mc=0.5+-0.01 matrix=0.5
# overall FAIL
"""
SPECTRAL = "lambda0 0.25\ngap 0.5\nLambda 1\nphi0 psi0\n1 1\n"
SERIES = """\
# run 2026-01-01T00:00:00
model_id,diagnostic,t,value,extra
frac(polynomial,a=1),heat_content,1.5,0.75,
frac(polynomial,a=1),heat_content,3,0.5,
frac(polynomial,a=1),eta,3,4,
"""


def write_run(out: Path, verdicts=VERDICTS, spectral=SPECTRAL, series=SERIES) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "verdict.txt").write_text(verdicts)
    (out / "spectral.txt").write_text(spectral)
    (out / "series.csv").write_text(series)
    return out


@pytest.fixture
def ref(tmp_path):
    facts = check.read_facts(write_run(tmp_path / "reference"))
    return {**facts, "mc_fail": {"7": ["mc_fk_vs_matrix@1.5"]}}


def test_facts_keyed_by_check_and_t(ref):
    assert ref["verdicts"] == {
        "heat_content_duality@1.5": "PASS",
        "heat_content_duality@3.0": "PASS",
        "quasi_ergodic_rate": "FAIL",
        "kappa_progressive_bound": "PASS",
        "mc_fk_vs_matrix@1.5": "PASS",
    }
    assert ref["heat_content"] == {"1.5": 0.75, "3.0": 0.5}
    assert (ref["lambda0"], ref["gap"], ref["Lambda"]) == (0.25, 0.5, 1.0)


def test_accepts_exit_code_2_with_matching_fail_verdict(tmp_path, ref):
    out = write_run(tmp_path / "run", series=SERIES.replace("0.75,", "0.7500000000001,"))
    assert check.problems(out, 2, check.expected(ref, None)) == []


def test_rejects_perturbed_lambda0(tmp_path, ref):
    out = write_run(tmp_path / "run", spectral=SPECTRAL.replace("0.25", "0.250000001"))
    assert any("lambda0" in p for p in check.problems(out, 2, check.expected(ref, None)))


def test_rejects_flipped_verdict_status(tmp_path, ref):
    out = write_run(tmp_path / "run", verdicts=VERDICTS.replace("FAIL quasi", "PASS quasi"))
    found = check.problems(out, 2, check.expected(ref, None))
    assert any("quasi_ergodic_rate" in p for p in found)


def test_rejects_perturbed_heat_content_and_missing_verdict(tmp_path, ref):
    out = write_run(tmp_path / "run", series=SERIES.replace("0.5,", "0.5001,"),
                    verdicts=VERDICTS.replace("PASS heat_content_duality t=3 |Z-Z*|=0\n", ""))
    found = check.problems(out, 2, check.expected(ref, None))
    assert any("heat_content t=3.0" in p for p in found)
    assert any("heat_content_duality@3.0" in p for p in found)


def test_rejects_runtime_error_and_wrong_exit_code(tmp_path, ref):
    out = write_run(tmp_path / "run")
    assert check.problems(out, 1, check.expected(ref, None)) == ["exit code 1"]
    assert check.problems(out, 0, check.expected(ref, None)) == ["exit code 0 != 2"]
    assert check.problems(tmp_path / "missing", 2, check.expected(ref, None))


def test_mc_verdicts_follow_the_seed_table(tmp_path, ref):
    out = write_run(tmp_path / "run", verdicts=VERDICTS.replace("PASS mc_fk", "FAIL mc_fk"))
    assert check.problems(out, 2, check.expected(ref, 7)) == []
    assert check.problems(out, 2, check.expected(ref, 8))


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(0, "cli.run_experiment", 1, None)
    parent.start, parent.end = 0.0, 10.0
    kids = []
    for i, (a, b) in enumerate([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]):
        kids.append(tracing.Span(i + 1, "operators.feynman_kac_operator", 1, 0))
        kids[-1].start, kids[-1].end = a, b
    assert tracing._covered(parent, kids) == pytest.approx(4.0)


def test_traced_run_has_the_call_structure_and_uninstall_restores(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import qergo.cli as cli
    import qergo.diagnostics as dg
    import qergo.models as models

    originals = (cli.run_experiment, cli.feynman_kac_operator, dg.heat_content, models.zoo_build)
    monkeypatch.setenv("QERGO_OUTPUT_DIR", str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_run()
        cli.run_experiment(cli.parse_config(str(ROOT / "configs" / "ho_oracle.ini")))
    finally:
        tracer.uninstall()
    assert (cli.run_experiment, cli.feynman_kac_operator, dg.heat_content, models.zoo_build) == originals
    s = tracer.summary(1)
    assert s["models.build_ho_discretization_calls"] == 4
    assert s["diagnostics.heat_content_calls"] == 8  # U_t and its adjoint at 4 times
    assert "operators.feynman_kac_operator_calls" not in s
    root = [sp for sp in tracer.spans if sp.parent is None]
    assert [sp.name for sp in root] == ["cli.run_experiment"]
    build = next(sp for sp in tracer.spans if sp.name == "models.build_ho_discretization")
    by_id = {sp.id: sp for sp in tracer.spans}
    assert by_id[build.parent].name == "cli.run_experiment"  # called through zoo_build's factory
    assert 0 < s["cli.self_s"] < s["cli.run_experiment_s"]


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _, _) in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(units) == set(run.E2E_UNITS) | {"correct_share"}
    assert all(units[k] == u for k, u in run.E2E_UNITS.items())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_configs_are_generated_from_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.write_config(ROOT, name, 5, tmp_path / "a.ini").read_text()
        b = workloads.write_config(ROOT, name, 5, tmp_path / "b.ini").read_text()
        assert a == b
    text = workloads.write_config(ROOT, "chain_mc", 5 + workloads.MC_SEEDS, tmp_path / "c.ini").read_text()
    assert "seed = 5\n" in text
