"""What the bench scripts share: their set-up, models, timers and record writer.

Importing it fixes BLAS and OpenMP threads at 1 and puts this checkout's `src`
first on `sys.path`, so a script run from the root of a checkout times that
checkout's lindcorr: running the same script in two checkouts compares them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lindcorr as lc  # noqa: E402
from lindcorr import _held, propagation  # noqa: E402
from lindcorr.operators import hermitian_eig  # noqa: E402

TAUS = np.linspace(0.0, 10.0, 41)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)
DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)


def env() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), "blas_threads": 1}


def gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    """A d x d matrix of independent complex Gaussian entries."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = gaussian(rng, d)
    return g + g.conj().T


def density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = gaussian(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pauli(label: str) -> np.ndarray:
    """The two-qubit Pauli string of `label`, e.g. "XI"."""
    paulis = {"I": lc.identity(2), "X": lc.sigma_x, "Y": lc.sigma_y, "Z": lc.sigma_z}
    return np.kron(paulis[label[0]], paulis[label[1]])


def random_model(rng: np.random.Generator, d: int, bath, scale: float = 1.0,
                 local: bool = False, eigenbasis: bool = False) -> tuple:
    """(hamiltonian, decomps) of a random model of `d` levels, drawn from `rng`:
    H = scale * (G + G^dag) and the exact decomposition of the coupling
    scale * (G' + G'^dag), or, if `local`, a local one of two jump operators G'
    and G'' at frequencies 0.7 and 1.3 (each G a `gaussian` draw, in this
    order).  With `eigenbasis` H and the coupling are written in the energy
    eigenbasis.  `bath` is a BathSpec, or a function drawing one from `rng`
    after the operators."""
    h = scale * _hermitian(rng, d)
    if local:
        dec = lc.local_decomposition(np.zeros((d, d)), [(gaussian(rng, d), 0.7),
                                                        (gaussian(rng, d), 1.3)])
    else:
        s = scale * _hermitian(rng, d)
        if eigenbasis:
            energies, u = hermitian_eig(h)
            h, s = np.diag(energies).astype(complex), u.conj().T @ s @ u
        dec = lc.exact_bohr_decomposition(h, s)
    return h, (lc.assign_rates(dec, bath(rng) if callable(bath) else bath),)


def median_s(fn, repeats: int, setup=None) -> tuple[float, object]:
    """Median seconds of `repeats` calls of `fn`, each after `setup()` when given,
    and the last call's result."""
    times, out = [], None
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def traced_peak(fn) -> tuple[int, object]:
    """The tracemalloc peak of one call of `fn` (NumPy and SciPy arrays, not
    SuperLU's own storage), in bytes, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def on_engine(h, decs, act):
    """`act(ev)` on the model's engine, in one call through `propagation._model_evolver`."""
    with propagation._model_evolver(h, decs) as ev:
        return act(ev)


def hold_only(h, decs, act) -> None:
    """Leave only the entries `act(ev)` uses held: one call that uses them, under an
    idle-byte cap of 0, so every other entry is dropped."""
    cap, _held.IDLE_BYTE_CAP = _held.IDLE_BYTE_CAP, 0
    try:
        on_engine(h, decs, act)
    finally:
        _held.IDLE_BYTE_CAP = cap


def keep_level(h, decs, n: int, *vectors) -> None:
    """Leave only the n-slot level's generator, block labels and, when `vectors` are
    stepped on the coordinates of some blocks, their slice held."""
    hold_only(h, decs, lambda ev: (ev.generator(n), ev._slice(n, *vectors)))


def write_record(out: str, keys: tuple, result: dict) -> None:
    """Put `result` in the JSON record at `out` under the nested `keys`, keeping
    everything else the record holds."""
    path = Path(out)
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    node = record
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = result
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"written to {out} under {' / '.join(map(repr, keys))}")
