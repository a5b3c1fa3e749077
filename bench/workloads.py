"""The four benchmark workloads and the INI configs generated for them.

Every workload is one ``qergo run`` config.  The configs are written into the
benchmark's work directory; ``configs/`` is only read.  Only ``chain_mc``
depends on the seed: its ``[mc] seed`` is ``seed % MC_SEEDS``, a range for
which ``reference.json`` holds the Monte Carlo verdicts.
"""

from __future__ import annotations

import configparser
from pathlib import Path

MC_SEEDS = 2048

_ALL_DIAGNOSTICS = "heat_content kernel_convergence quasi_ergodic qsd gsd eta kappa uniqueness"

# name -> (why, base config shipped in configs/ or None, sections written over it).
# The frac t_grid is the [3/gap, 6/gap] rule of the shipped configs, rounded
# to one decimal (gap = 0.0962).  n = 2001 is left out: at ~40 s a pass it
# does not fit the run budget.
WORKLOADS = {
    "chain_mc": (
        "shipped birthdeath_full.ini (n=12, MC 20000 paths x 6 times): Monte Carlo and"
        " cli overhead dominate; dense algebra is ~1 %",
        "configs/birthdeath_full.ini",
        {},
    ),
    "frac_rev": (
        "reversible fractional lattice n=801, all diagnostics: 13 expm calls are ~82 % of a"
        " run; where a one-engine-per-model change must show",
        None,
        {
            "model": {
                "id": "frac", "kind": "polynomial", "alpha": "1.0", "potential": "log-power",
                "beta": "2.0", "scale": "1.0", "half_width": "100.0", "h": "0.25",
            },
            "times": {"t_grid": "31.2 37.4 43.6 49.9 56.1 62.3"},
            "diagnostics": {"names": _ALL_DIAGNOSTICS},
            "diagnostics.quasi_ergodic": {"p": "inf", "sigma": "point:400"},
            "family": {"base_point": "400", "radius": "linear:0.6"},
        },
    ),
    "cycle_nonrev": (
        "non-reversible cycle n=500 (Lambda ~0.019), all diagnostics: same dense layers on a"
        " non-normal generator where a symmetric shortcut must fall back to expm",
        None,
        {
            "model": {"id": "cycle", "n": "500", "potential": "power", "beta": "1.0", "scale": "2e-4"},
            "times": {"t_grid": "20 40 60 80 100 120"},
            "diagnostics": {"names": _ALL_DIAGNOSTICS},
            "diagnostics.quasi_ergodic": {"p": "2", "sigma": "uniform"},
            "family": {"base_point": "0", "radius": "linear:2.0"},
        },
    ),
    "ho_kernel": (
        "closed-form oscillator kernel n=1201, no generator: eig of one operator and the Mehler"
        " kernel dominate; an engine change should show nothing here",
        None,
        {
            "model": {"id": "ho", "half_width": "6.0", "h": "0.01"},
            "times": {"t_grid": "0.5 0.75 1.0 1.25"},
            "diagnostics": {"names": "heat_content kernel_convergence gsd"},
            "family": {"base_point": "600", "radius": "linear:1.0"},
        },
    ),
}


def mc_seed(workload: str, seed: int) -> int | None:
    """The ``[mc] seed`` a workload runs with, or None when it has no MC block."""
    return seed % MC_SEEDS if workload == "chain_mc" else None


def write_config(root: Path, workload: str, seed: int, path: Path) -> Path:
    """Write the workload's config to ``path``; raises KeyError for an unknown name."""
    _, base, sections = WORKLOADS[workload]
    cp = configparser.ConfigParser()
    if base is not None:
        if not cp.read(root / base):
            raise FileNotFoundError(f"cannot read {root / base}")
    cp.read_dict(sections)
    s = mc_seed(workload, seed)
    if s is not None:
        cp["mc"]["seed"] = str(s)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        cp.write(fh)
    return path
