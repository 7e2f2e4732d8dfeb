import os
from pathlib import Path

import numpy as np
import pytest

from lindcorr import _held

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


def held(kind=None, model=None) -> dict:
    """The entries of the held store, least recently used first: key -> value for one
    engine `kind` ("generator", "labels", "order", "propagator", "plan", "run" or
    "steady"), (model digest, key) -> value for "decomposition", whose entries are
    the models' own, or (model key, kind, key) -> value for every kind when `kind` is
    None; only those of the model whose key is `model` when it is given."""
    entries, _counts = _held.snapshot()
    return {((owner, k, key) if kind is None else (owner, key) if kind == "decomposition" else key): value
            for owner, k, key, value, _size in entries
            if kind in (None, k) and model in (None, owner)}


def step_propagators(n, gap, model=None) -> dict:
    """Block -> held block propagator exp(gap G_b) of the n-slot level."""
    return {key[2]: value for key, value in held("propagator", model).items() if key[:2] == (n, gap)}


def held_bytes(model=None) -> int:
    """Bytes of the held entries' values (of one model when given), counted afresh."""
    return sum(map(_held.nbytes, held(model=model).values()))


@pytest.fixture(autouse=True)
def _no_held_engine():
    """Start and end each test with no entry held from another test."""
    _held.drop_all()
    yield
    _held.drop_all()
