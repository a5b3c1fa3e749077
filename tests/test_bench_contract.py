"""The benchmark's correctness contract in tier-1: each workload config of
``bench/workloads.py``, written at seed 1 and run once, gives the verdict
statuses, spectral constants and heat content that ``bench/check.py``
compares with ``bench/reference.json``.  The bench files are only read."""

import importlib.util
import json
from pathlib import Path

import pytest

from qergo.cli import parse_config, run_experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """bench/<name>.py, loaded under its own name so that no bench path
    enters sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_contract_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check, workloads = bench_module("check"), bench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_output_matches_the_reference(workload, tmp_path, monkeypatch):
    seed = 1
    cfg = workloads.write_config(BENCH.parent, workload, seed, tmp_path / "config.ini")
    out = tmp_path / "out"
    monkeypatch.setenv("QERGO_OUTPUT_DIR", str(out))
    _, _, code = run_experiment(parse_config(str(cfg)))
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][workload]
    assert check.problems(out, code, check.expected(ref, workloads.mc_seed(workload, seed))) == []
