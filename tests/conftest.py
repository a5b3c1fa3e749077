import numpy as np
import pytest

from qergo.models import (
    LevyProfile,
    PotentialSpec,
    build_ctmc_model,
    build_fractional_model,
)


@pytest.fixture
def dense_eigs(monkeypatch):
    """Shapes of the numpy.linalg.eig calls on a matrix that is not upper
    Hessenberg: dense solves, such as the fallback of ``spectral._arnoldi``,
    and not its Ritz steps.  No generator or transition form that a test
    solves is Hessenberg."""
    shapes, eig = [], np.linalg.eig

    def counting(a):
        if np.tril(a, -2).any():
            shapes.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return shapes


@pytest.fixture(scope="session")
def swap2():
    return build_ctmc_model(2, "swap2")


@pytest.fixture(scope="session")
def swap2_v01():
    """2-state swap with V = (0, 1): the workhorse for 2x2 oracles."""
    return build_ctmc_model(2, "swap2", V=np.array([0.0, 1.0]))


@pytest.fixture(scope="session")
def birthdeath5():
    """5-state reversible path chain with a mild confining potential."""
    V = 0.2 * (np.arange(5) - 2.0) ** 2
    return build_ctmc_model(5, "birth-death", V=V)


@pytest.fixture(scope="session")
def birthdeath20():
    return build_ctmc_model(20, "birth-death", label="birthdeath(20)")


@pytest.fixture(scope="session")
def birthdeath20_confining():
    V = 0.05 * (np.arange(20) - 9.5) ** 2
    return build_ctmc_model(20, "birth-death", V=V, label="birthdeath(20,conf)")


@pytest.fixture(scope="session")
def weighted_bd():
    """Weighted path chain, reversible for mu(k) = 2^{-k}; non-uniform dual."""
    mu = 2.0 ** (-np.arange(6, dtype=float))
    return build_ctmc_model(6, "birth-death", mu=mu, V=0.1 * np.arange(6.0))


@pytest.fixture(scope="session")
def cycle4():
    """Non-reversible rotation with a potential: distinct phi0 and psi0."""
    return build_ctmc_model(4, "cycle", V=np.array([0.0, 0.3, 0.8, 0.2]))


@pytest.fixture(scope="session")
def frac_small():
    """Small fractional lattice model (alpha = 1, quadratic log-power V)."""
    return build_fractional_model(
        (20.0, 0.5), LevyProfile("polynomial", alpha=1.0), PotentialSpec("log-power", beta=2.0)
    )
