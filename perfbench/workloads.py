"""Seeded inputs and calls of the three benchmark workloads.

Every input is drawn from the run's seed; lindcorr receives only the generated
matrices and configs.  The physical parameters of each model are fixed, and
the seed draws operators, states and insertion times.  This keeps the cost of
a run independent of the seed: the dense engine's cost depends on the
generator and the time step, and the matrix-free engine's step count on the
generator and the evolved operator, so those are the same for every seed.

Each workload is a closed loop: one caller makes its calls back to back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import lindcorr as lc
import lindcorr.cli

DEFAULT_SEED = 0
WORKLOADS = ("otoc-map", "wide-slots", "general-sweep")
SIZES = ("full", "tiny")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)
QUBIT = dict(omega0=1.0, gamma=0.1, temperature=0.5)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)

_PAULI = {"I": np.eye(2, dtype=complex), "X": lc.sigma_x, "Y": lc.sigma_y, "Z": lc.sigma_z}
PAULI_STRINGS = tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:]  # 15 non-identity strings
QUBIT_NAMES = ("sx", "sy", "sz", "s+", "s-")


@dataclass
class Call:
    """One timed call into lindcorr.

    ``run`` makes the call and returns its raw result; ``values`` turns that
    result into correlator values and raises if the call failed.  For calls on
    rate-free models ``closed`` gives the exact values; ``tau0`` gives the exact
    value at tau = 0 when the grid starts there.  Neither runs inside the timed
    region.
    """

    name: str
    run: Callable[[], object]
    values: Callable[[object], np.ndarray]
    closed: Callable[[], np.ndarray] | None = None
    tau0: Callable[[], complex] | None = None


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def pauli(label: str) -> np.ndarray:
    return np.kron(_PAULI[label[0]], _PAULI[label[1]])


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _trace_values(trace) -> np.ndarray:
    return np.asarray(trace.values)


def _closed_trace(h, rho, taus, insertions_at) -> Callable[[], np.ndarray]:
    """Exact values of a rate-free correlator; insertions_at(tau) lists (op, time)."""
    def closed():
        return np.array([lc.closed_correlator(h, lc.CorrelatorSpec(tuple(insertions_at(t)), rho))
                         for t in taus])
    return closed


def otoc_call(name, h, decomps, w, v, rho, taus, rate_free=False, state=None) -> Call:
    """OTOC trace(W^dag(tau) V^dag W(tau) V rho); `state` computes rho inside the call."""
    wd, vd = w.conj().T, v.conj().T

    def run():
        r = state() if state is not None else rho
        return lc.otoc(h, decomps, w, v, r, taus)

    closed = None
    if rate_free:
        closed = _closed_trace(h, rho, taus, lambda t: ((wd, t), (vd, 0.0), (w, t), (v, 0.0)))
    tau0 = None if state is not None else (lambda: complex(np.trace(wd @ vd @ w @ v @ rho)))
    return Call(name, run, _trace_values, closed, tau0)


def qrt_call(name, model, decomps, taus, rate_free=False, rho=None) -> Call:
    """Regression trace <a^dag(tau) a>, from the SVD steady state unless `rho` is given."""
    d = model.dim
    a = lc.annihilation(d)
    ad = a.conj().T
    eye = np.eye(d, dtype=complex)

    def run():
        r = rho if rho is not None else lc.steady_state(model, decomps)
        return lc.qrt_correlator(model.hamiltonian, decomps, eye, ad, a, r, taus)

    closed = None
    tau0 = None
    if rate_free:
        closed = _closed_trace(model.hamiltonian, rho, taus, lambda t: ((ad, t), (a, 0.0)))
        tau0 = lambda: complex(np.trace(ad @ a @ rho))  # noqa: E731
    return Call(name, run, _trace_values, closed, tau0)


def _otoc_map(rng, size: str, workdir: Path) -> list[Call]:
    """About 110 alike OTOCs on one shared coupled dimer (order-256 slot tensor)."""
    full = size == "full"
    taus = np.linspace(0.0, 20.0, 41) if full else np.linspace(0.0, 5.0, 11)
    model = lc.coupled_dimer(**DIMER)
    decomps = lc.decompose_model(model)
    rho = lc.steady_state(model, decomps)
    free = lc.coupled_dimer(**{**DIMER, "gamma1": 0.0, "gamma2": 0.0})
    free_decomps = lc.decompose_model(free)

    w_labels = PAULI_STRINGS if full else tuple(rng.choice(PAULI_STRINGS, 3, replace=False))
    calls = []
    for w in w_labels:
        for v in rng.choice(PAULI_STRINGS, 7 if full else 2, replace=False):
            calls.append(otoc_call(f"W={w},V={v}", model.hamiltonian, decomps,
                                   pauli(w), pauli(v), rho, taus))
    for k in range(3 if full else 1):
        w, v = rng.choice(PAULI_STRINGS, 2)
        calls.append(otoc_call(f"rate-free{k}:W={w},V={v}", free.hamiltonian, free_decomps,
                               pauli(w), pauli(v), random_density(rng, 4), taus,
                               rate_free=True))
    return calls


def _oscillator_ops(dim: int) -> dict[str, np.ndarray]:
    a = lc.annihilation(dim)
    ad = a.conj().T
    return {"x": a + ad, "p": 1j * (ad - a), "n": ad @ a, "a": a, "adag": ad}


def _wide_slots(rng, size: str, workdir: Path) -> list[Call]:
    """A few calls on large slot tensors, each on its own oscillator.

    The 2-slot OTOC at dim 6 (order 1296) runs on the dense engine, the one at
    dim 9 (order 6561) on the matrix-free engine, and the 1-slot trace at dim
    30 starts from the SVD steady state.  W is the x quadrature throughout:
    the matrix-free step count depends on the evolved operator.
    """
    full = size == "full"
    taus = np.linspace(0.0, 10.0, 41) if full else np.linspace(0.0, 1.0, 5)
    dense_dim, free_dim, qrt_dim, small_dim = (6, 9, 30, 12) if full else (3, 9, 8, 5)

    calls = []
    for label, dim in (("dense", dense_dim), ("matrix-free", free_dim)):
        model = lc.truncated_oscillator(dim=dim, **OSCILLATOR)
        decomps = lc.decompose_model(model)
        ops = _oscillator_ops(dim)
        v = str(rng.choice(sorted(ops)))
        state = (lambda m=model, dc=decomps: lc.steady_state(m, dc))
        calls.append(otoc_call(f"otoc-{label}:dim={dim},V={v}", model.hamiltonian, decomps,
                               ops["x"], ops[v], None, taus, state=state))
    model = lc.truncated_oscillator(dim=qrt_dim, **OSCILLATOR)
    calls.append(qrt_call(f"qrt-steady:dim={qrt_dim}", model, lc.decompose_model(model), taus))

    free = lc.truncated_oscillator(dim=free_dim, omega0=1.0, gamma=0.0, temperature=0.0)
    ops = _oscillator_ops(free_dim)
    v = str(rng.choice(sorted(ops)))
    calls.append(otoc_call(f"rate-free-otoc:dim={free_dim},V={v}", free.hamiltonian,
                           lc.decompose_model(free), ops["x"], ops[v],
                           random_density(rng, free_dim), taus, rate_free=True))
    free = lc.truncated_oscillator(dim=small_dim, omega0=1.0, gamma=0.0, temperature=0.0)
    calls.append(qrt_call(f"rate-free-qrt:dim={small_dim}", free, lc.decompose_model(free),
                          taus, rate_free=True, rho=random_density(rng, small_dim)))
    return calls


def _encode(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _read_csv(path: Path, taus: np.ndarray) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (len(taus), 3) or np.max(np.abs(rows[:, 0] - taus)) > 1e-12:
        raise ValueError(f"{path.name}: tau column does not match the requested grid")
    return rows[:, 1] + 1j * rows[:, 2]


def cli_call(name: str, workdir: Path, config: dict, ops: list, times: list,
             rho: np.ndarray, span: float, points: int, h=None) -> Call:
    """One `corr` config through lindcorr.cli.run: JSON in, CSV out.

    `ops` are config operator entries (names or matrices), `times` their
    insertion times with None marking the swept insertions.  The CLI sweeps the
    insertions that hold the latest time, so those are written at the last
    tau; the sweep runs over `points` taus from the latest fixed time on,
    across `span`.
    `h` is given for rate-free models, whose values are then checked exactly.
    """
    floor = max(t for t in times if t is not None)
    grid = np.linspace(floor, floor + span, points)
    config = {
        **config,
        "task": "corr",
        "params": {
            "insertions": [{"operator": op if isinstance(op, str) else _encode(op),
                            "time": floor + span if t is None else t}
                           for op, t in zip(ops, times)],
            "initial_state": _encode(rho),
            "taus": {"start": floor, "stop": floor + span, "points": points},
        },
    }
    config_path = workdir / f"{name}.json"
    csv_path = workdir / f"{name}.csv"
    config_path.write_text(json.dumps(config))

    def run():
        return lindcorr.cli.run(str(config_path), out=str(csv_path), fmt="csv")

    def values(code):
        if code != 0:
            raise RuntimeError(f"lindcorr.cli.run exited with code {code}")
        return _read_csv(csv_path, grid)

    closed = None
    if h is not None:
        dim = rho.shape[0]
        mats = [lc.named_operator(op, dim) if isinstance(op, str) else op for op in ops]
        closed = _closed_trace(h, rho, grid, lambda tau: [
            (m, tau if t is None else t) for m, t in zip(mats, times)])
    return Call(name, run, values, closed, None)


def _general_sweep(rng, size: str, workdir: Path) -> list[Call]:
    """Three general-pattern sweeps through the CLI, plus two rate-free ones.

    The swept insertions hold the latest time, so every tau is a new gap and
    every propagator lookup misses.  The dimer patterns keep at most 2
    evolving slots (see README.md on the budget edge).
    """
    full = size == "full"
    n1, n2, n3, n4, n5 = (100, 100, 200, 30, 50) if full else (8, 8, 12, 5, 6)
    dimer_cfg = {"model": {"name": "coupled_dimer", "params": DIMER}}
    qubit_cfg = {"model": {"name": "two_level_atom", "params": QUBIT}}
    free_dimer = {**DIMER, "gamma1": 0.0, "gamma2": 0.0}
    free_qubit = {**QUBIT, "gamma": 0.0}

    def strings(n):
        return [pauli(s) for s in rng.choice(PAULI_STRINGS, n)]

    def names(n):
        return [str(s) for s in rng.choice(QUBIT_NAMES, n)]

    calls = []
    t1 = float(rng.uniform(0.5, 1.5))
    calls.append(cli_call("dimer-4-insertions-2-times", workdir, dimer_cfg, strings(4),
                          [None, t1, None, t1], random_density(rng, 4), 10.0, n1))
    t1 = float(rng.uniform(0.3, 0.8))
    t2 = t1 + float(rng.uniform(0.5, 1.0))
    calls.append(cli_call("dimer-3-insertions-3-times", workdir, dimer_cfg, strings(3),
                          [None, t2, t1], random_density(rng, 4), 10.0, n2))
    t1 = float(rng.uniform(0.3, 0.8))
    t2 = t1 + float(rng.uniform(0.5, 1.0))
    calls.append(cli_call("qubit-4-insertions-3-times", workdir, qubit_cfg, names(4),
                          [None, None, t2, t1], random_density(rng, 2), 20.0, n3))

    t1 = float(rng.uniform(0.3, 0.8))
    t2 = t1 + float(rng.uniform(0.5, 1.0))
    calls.append(cli_call("rate-free-dimer-3-insertions", workdir,
                          {"model": {"name": "coupled_dimer", "params": free_dimer}},
                          strings(3), [None, t2, t1], random_density(rng, 4),
                          5.0, n4, h=lc.coupled_dimer(**free_dimer).hamiltonian))
    calls.append(cli_call("rate-free-qubit-4-insertions", workdir,
                          {"model": {"name": "two_level_atom", "params": free_qubit}},
                          names(4), [None, None, t2, t1], random_density(rng, 2),
                          10.0, n5, h=lc.two_level_atom(**free_qubit).hamiltonian))
    return calls


_BUILDERS = {"otoc-map": _otoc_map, "wide-slots": _wide_slots, "general-sweep": _general_sweep}


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Call]:
    """Generate the workload's inputs and return its calls in timed order."""
    return _BUILDERS[workload](rng_for(workload, seed), size, workdir)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, size: str) -> dict[str, np.ndarray]:
    """Stored values of the calls without a closed form, for the default seed."""
    data = json.loads(reference_path(workload).read_text())
    return {name: np.array([complex(re, im) for re, im in vals])
            for name, vals in data[size].items()}
