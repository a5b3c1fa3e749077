"""Write ``reference.json``, the facts ``check.py`` compares, from the current sources.

    python3 bench/record_reference.py

The reference belongs to the commit that defined the benchmark; later
commits are checked against it, so re-record only when a change of verdict
or spectral value is intended.  ``chain_mc`` is recorded at every Monte Carlo
seed in ``range(workloads.MC_SEEDS)``: its ``mc_fk_vs_matrix`` verdicts are
3-sigma checks, and ``mc_fail`` lists the ones that fail at each seed.  This
takes about 15 minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from qergo.cli import parse_config, run_experiment  # noqa: E402

MC_CHECK = "mc_fk_vs_matrix"


def run(workload: str, seed: int, work: Path) -> dict:
    cfg = workloads.write_config(ROOT, workload, seed, work / f"{workload}.ini")
    out = work / workload
    os.environ["QERGO_OUTPUT_DIR"] = str(out)
    run_experiment(parse_config(str(cfg)))
    return check.read_facts(out)


def main() -> None:
    import numpy
    import scipy

    work = HERE / ".work" / "reference"
    refs = {name: {**run(name, 1234, work), "mc_fail": {}} for name in workloads.WORKLOADS}
    chain = refs["chain_mc"]
    mc_keys = sorted(k for k in chain["verdicts"] if k.startswith(MC_CHECK))
    fixed = {k: v for k, v in chain["verdicts"].items() if k not in mc_keys}
    for seed in range(workloads.MC_SEEDS):
        facts = run("chain_mc", seed, work)
        if {k: v for k, v in facts["verdicts"].items() if k not in mc_keys} != fixed:
            raise SystemExit(f"chain_mc verdicts outside {MC_CHECK} changed with the MC seed {seed}")
        fails = [k for k in mc_keys if facts["verdicts"][k] == "FAIL"]
        if fails:
            chain["mc_fail"][str(seed)] = fails
    chain["verdicts"].update(dict.fromkeys(mc_keys, "PASS"))
    doc = {
        "recorded_with": {
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mc_seeds": workloads.MC_SEEDS,
        },
        "workloads": refs,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
