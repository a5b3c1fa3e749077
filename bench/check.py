"""Correctness check of one ``qergo run`` against the recorded reference.

A run fails when it exits with anything but 0 or 2, when the PASS/FAIL
status of any verdict line (keyed by check name and ``t``) differs from the
reference, or when lambda0, gap, Lambda or a heat_content sample is off by
more than ``REL_TOL`` relative.  Other numbers, such as kernel errors near
round-off, are not compared, so accuracy fixes do not count as failures.
Exit code 2 is a normal result: the references contain FAIL verdicts.
"""

from __future__ import annotations

import re
from pathlib import Path

REL_TOL = 1e-9
SPECTRAL_KEYS = ("lambda0", "gap", "Lambda")
_T_TOKEN = re.compile(r"t=(\S+)$")


def _verdict_key(name: str, detail: list[str]) -> str:
    """Check name, plus ``@t`` when the detail opens with a ``t=<number>`` token."""
    if detail:
        m = _T_TOKEN.match(detail[0])
        if m:
            try:
                return f"{name}@{float(m.group(1))!r}"
            except ValueError:
                pass
    return name


def read_facts(out_dir: Path) -> dict:
    """The compared facts of one run's output directory.

    Raises OSError or ValueError when an output is missing or malformed.
    """
    verdicts: dict[str, str] = {}
    for line in (out_dir / "verdict.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        status, name, *detail = line.split()
        if status not in ("PASS", "FAIL"):
            raise ValueError(f"bad verdict line {line!r}")
        key = _verdict_key(name, detail)
        base, k = key, 1
        while key in verdicts:  # repeated checks are told apart by their order
            k += 1
            key = f"{base}#{k}"
        verdicts[key] = status
    spectral = {}
    for line in (out_dir / "spectral.txt").read_text().splitlines()[: len(SPECTRAL_KEYS)]:
        name, value = line.split()
        spectral[name] = float(value)
    heat = {}
    for line in (out_dir / "series.csv").read_text().splitlines():
        fields = line.rsplit(",", 4)  # model labels may hold commas, the other columns do not
        if len(fields) == 5 and fields[1] == "heat_content":
            heat[repr(float(fields[2]))] = float(fields[3])
    return {"verdicts": verdicts, **spectral, "heat_content": heat}


def expected(ref: dict, mc_seed: int | None) -> dict:
    """Reference facts of a workload, with the verdicts that fail at ``mc_seed``."""
    verdicts = dict(ref["verdicts"])
    if mc_seed is not None:
        for key in ref["mc_fail"].get(str(mc_seed), []):
            verdicts[key] = "FAIL"
    return {**ref, "verdicts": verdicts}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def problems(out_dir: Path, exit_code: int, ref: dict) -> list[str]:
    """Everything wrong with one run; an empty list means the run is correct.

    ``ref`` is a result of ``expected``.
    """
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    try:
        got = read_facts(out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    found = []
    want = ref["verdicts"]
    for key in sorted(set(want) | set(got["verdicts"])):
        if want.get(key) != got["verdicts"].get(key):
            found.append(f"verdict {key}: {got['verdicts'].get(key)} != {want.get(key)}")
    want_code = 0 if all(s == "PASS" for s in want.values()) else 2
    if exit_code != want_code:
        found.append(f"exit code {exit_code} != {want_code}")
    for name in SPECTRAL_KEYS:
        if name not in got or not _close(got[name], ref[name]):
            found.append(f"{name}: {got.get(name)} != {ref[name]}")
    if set(got["heat_content"]) != set(ref["heat_content"]):
        found.append("heat_content times differ")
    else:
        for t, v in ref["heat_content"].items():
            if not _close(got["heat_content"][t], v):
                found.append(f"heat_content t={t}: {got['heat_content'][t]} != {v}")
    return found
