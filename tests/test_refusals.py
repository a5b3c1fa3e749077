"""Bad input is refused early, with its own error type and a message that
names the cause: one table of library calls, and the command line's exit
code 1 with an ``error:`` line."""

import dataclasses

import numpy as np
import pytest

from qergo.cli import main
from qergo.diagnostics import (
    DiagnosticSeries,
    eta_function,
    find_qsd,
    fit_exponential_rate,
    gsd_profile,
    quasi_ergodic_error,
)
from qergo.errors import DegenerateSupportError, ModelError
from qergo.models import LevyProfile, PotentialSpec, build_ctmc_model
from qergo.operators import KernelOperator, MarkovModel
from qergo.spectral import principal_triple, principal_triple_from_operator
from qergo.statespace import ExhaustingFamily, StateSpace, tabulated_radius

PAIR = StateSpace((0, 1), np.ones(2), np.arange(2.0))
SWAP = build_ctmc_model(2, "swap2", V=np.array([0.0, 1.0]))


def appended(*samples):
    """A series with ``samples`` appended one at a time."""
    series = DiagnosticSeries("x")
    for t, value in samples:
        series.append(t, value)
    return series


def triple(**fields):
    """The swap chain's triple with ``fields`` replaced."""
    return dataclasses.replace(principal_triple(SWAP), **fields)


# name -> (call, error type, message fragment)
REFUSALS = {
    "space_coords_count": (
        lambda: StateSpace((0, 1, 2), np.ones(3), np.zeros((2, 1))),
        ValueError, "one vector per point"),
    "space_no_metric": (lambda: StateSpace((0, 1), np.ones(2)), ValueError, "need coords"),
    "space_dist_shape": (
        lambda: StateSpace((0, 1), np.ones(2), dist=np.zeros((3, 3))), ValueError, "wrong shape"),
    "radius_table_empty": (lambda: tabulated_radius([], []), ValueError, "nonempty"),
    "radius_table_t_repeated": (
        lambda: tabulated_radius([0.0, 0.0], [1.0, 2.0]), ValueError, "strictly increasing"),
    "potential_scale_zero": (
        lambda: PotentialSpec("power", scale=0.0), ModelError, "scale must be positive"),
    "levy_kind": (
        lambda: LevyProfile("gaussian", alpha=1.0), ModelError, "unknown Levy profile kind"),
    "levy_delta_negative": (
        lambda: LevyProfile("polynomial", alpha=1.0, delta=-0.5), ModelError,
        "delta must be nonnegative"),
    "levy_exponential_m_zero": (
        lambda: LevyProfile("exponential", alpha=1.0, delta=2.0, m=0.0), ModelError, "m > 0"),
    "levy_profile_at_zero": (
        lambda: LevyProfile("polynomial", alpha=1.0).profile(0.0), ValueError, "r > 0"),
    "swap2_on_3_states": (lambda: build_ctmc_model(3, "swap2"), ModelError, "2-state recipe"),
    "box2_on_10_states": (
        lambda: build_ctmc_model(10, "box:2"), ModelError, "not a 2-dimensional box size"),
    "user_matrix_shape": (
        lambda: build_ctmc_model(3, np.full((2, 2), 0.5)), ModelError, "wrong shape"),
    "density_not_square": (
        lambda: KernelOperator(1.0, np.ones((2, 3)), PAIR), ValueError, "square"),
    "q_negative": (
        lambda: MarkovModel(PAIR, np.array([[1.0 + 1e-9, -1e-9], [0.0, 1.0]]), np.zeros(2)),
        ModelError, "negative entries"),
    "spectrum_nonreversible": (
        lambda: build_ctmc_model(4, "cycle").spectrum, ValueError, "only a reversible model"),
    "series_out_of_order": (
        lambda: appended((1.0, 1.0), (1.0, 2.0)), ValueError, "strictly increasing"),
    "series_nan": (lambda: appended((1.0, np.nan)), ValueError, "finite"),
    "fit_tail_zero": (
        lambda: fit_exponential_rate(appended(*((t, 1.0) for t in range(5))), tail_fraction=0),
        ValueError, "tail_fraction"),
    "gsd_phi0_not_positive": (
        lambda: gsd_profile(SWAP.operator(1.0), triple(phi0=np.array([1.0, 0.0]))),
        ValueError, "phi0 must be strictly positive"),
    "eta_gamma_zero": (
        lambda: eta_function(triple(), SWAP.space, ExhaustingFamily(0, lambda t: t), 0.0, 1.0),
        ValueError, "gamma must be positive"),
    "quasi_ergodic_p_half": (
        lambda: quasi_ergodic_error(SWAP.operator(1.0), triple(), np.array([1.0, 0.0]), 0.5),
        ValueError, "norm index p"),
    "find_qsd_zero_density": (
        lambda: find_qsd(KernelOperator(1.0, np.zeros((2, 2)), PAIR)),
        DegenerateSupportError, "nilpotent"),
    "kernel_triple_at_t0": (
        lambda: principal_triple_from_operator(KernelOperator(0.0, np.ones((2, 2)), PAIR)),
        ValueError, "positive-time"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_with_its_type_and_cause(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()


@pytest.mark.parametrize("text", [
    "t_grid = 1 2\n",
    "[model]\nid = swap2\n[times]\nt_grid = 1 x\n",
    None,
], ids=["no_section_header", "t_grid_word", "missing_file"])
def test_run_refuses_a_bad_config_file(tmp_path, capsys, text):
    path = tmp_path / "exp.ini"
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and str(path) in err


def test_spectral_writes_to_a_file_what_it_prints(tmp_path, capsys):
    path = tmp_path / "spectral.txt"
    assert main(["spectral", "birthdeath(6)", "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["spectral", "birthdeath(6)"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("lambda0 ") and path.read_text() == printed
