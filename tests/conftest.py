import importlib
import os
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import lindcorr
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
    engine `kind` ("generator", "labels", "slice", "propagator", "plan", "run" or
    "steady"), (model digest, key) -> value for "decomposition", whose entries are
    the models' own, or (model key, kind, key) -> value for every kind when `kind` is
    None; only those of the model whose key is `model` when it is given."""
    entries, _counts = _held.snapshot()
    return {((owner, k, key) if kind is None else (owner, key) if kind == "decomposition" else key): value
            for owner, k, key, value, _size in entries
            if kind in (None, k) and model in (None, owner)}


def pull_back(ev, w, n, gap):
    """w @ exp(gap G_n) on the engine `ev`: the dual vector `w` carried across one gap."""
    (pulled,) = ev.trajectory(w, n, np.array([gap]), adjoint=True)
    return pulled


def slice_key(*blocks) -> bytes:
    """The key of the held slice of `blocks`."""
    return np.array(blocks, dtype=np.intp).tobytes()


def slice_blocks(key) -> list[int]:
    """The block numbers of a held slice's key."""
    return np.frombuffer(key, dtype=np.intp).tolist()


def step_propagators(n, gap, model=None) -> dict:
    """Block -> exp(gap G_b) of the n-slot level: the diagonal blocks of the held slice
    propagators exp(gap G[S, S]) of that level and step, each block's span read from
    its held slice; a level stepped whole is block 0."""
    slices, blocks = held("slice", model), {}
    for (level, step, key), prop in held("propagator", model).items():
        if (level, step) == (n, gap):
            spans = ((0, len(prop)),) if key is None else slices[n, key][1]
            for block, (start, stop) in zip([0] if key is None else slice_blocks(key), spans):
                blocks[block] = prop[start:stop, start:stop]
    return blocks


def held_bytes(model=None) -> int:
    """Bytes of the held entries' values (of one model when given), counted afresh."""
    return sum(map(_held.nbytes, held(model=model).values()))


@pytest.fixture(autouse=True)
def _no_held_engine():
    """Start and end each test with no entry held from another test."""
    _held.drop_all()
    yield
    _held.drop_all()


# Hypothesis draws some values from the constants of the local modules loaded
# when a test draws.  Every lindcorr module and test module is loaded here, once
# the helpers they import are defined and before any test runs, so that pool, and
# with it every derandomized test's examples, is the same whichever tests a run
# collects.
for _module in pkgutil.iter_modules(lindcorr.__path__):
    importlib.import_module(f"lindcorr.{_module.name}")
for _path in sorted(Path(__file__).parent.glob("test_*.py")):
    importlib.import_module(_path.stem)
