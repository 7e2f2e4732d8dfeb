import os
from pathlib import Path

import numpy as np
import pytest

from lindcorr import propagation

SRC = Path(__file__).resolve().parents[1] / "src"


def random_matrix(rng, d):
    """Complex matrix with entries scaled so operator norms stay O(1)."""
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)


def random_hermitian(rng, d):
    m = random_matrix(rng, d)
    return m + m.conj().T


def random_density(rng, d):
    m = random_matrix(rng, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Let `python -m lindcorr` child processes import the package from this checkout."""
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
    yield
    patch.undo()


@pytest.fixture(autouse=True)
def _no_held_engine():
    """Start and end each test without a propagation engine held from another call."""
    propagation._release_engines()
    yield
    propagation._release_engines()
