"""Repeated calls on the held engine, and the engine tolerance.

    python3 bench/repeats.py [--out BENCH_11.json] [--label change] [--repeats 3]

Run it from the root of a checkout: it imports lindcorr from that checkout's
`src`, so running the same file in two checkouts compares them.  With BLAS
and OpenMP threads fixed at 1 it makes three calls in a row of each workload
below on one held engine and records, per call, the median time over
`--repeats` sequences (each on a fresh engine), the bytes the engine holds
after the call and whether the call returned the bytes of the first call:

* the dimer OTOC W = XI, V = ZZ against the steady state on the 400-point
  grid geomspace(1e-3, 20), whose steps are all distinct (dense 2-slot level
  of order 256, 70 coordinates touched);
* a single-value `general_correlator` on the dimer with insertions at 2.0,
  1.2 and 0.4, whose fixed gap 0.8 is pulled back once on the 2-slot level;
* the OTOC W = V = x of a 9-level oscillator against its steady state on the
  25-point grid geomspace(1e-3, 20) (sparse 2-slot level of order 6561).

It then measures how far the two ways of taking one step exp(gap G) v
differ: the action by `integrate_ode` (`expm_multiply`) against the product
with the propagator `expm(G, gap)`, on random models (random Hermitian H and
coupling under the exact decomposition, a thermal bath with random
temperature, rate and gamma0, and a random gap in [0.05, 5]).  The
generators are a dense 2-slot level (d = 3, 4), the restricted block G[S, S]
of a sparse 2-slot level in the energy eigenbasis (d = 3 to 5, half the
blocks) and a CSR 2-slot level (d = 4, 5).  The deviation is the largest
entry of the difference over the largest entry of the propagator product.

The rows go under `--label` in `--out`, next to what else that file holds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lindcorr as lc  # noqa: E402
from lindcorr import propagation  # noqa: E402
from lindcorr.operators import hermitian_eig  # noqa: E402

DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)
CALLS = 3


def _pauli(label: str) -> np.ndarray:
    paulis = {"I": lc.identity(2), "X": lc.sigma_x, "Y": lc.sigma_y, "Z": lc.sigma_z}
    return np.kron(paulis[label[0]], paulis[label[1]])


def workloads(rng: np.random.Generator) -> dict:
    """Name -> a call returning its values as an array."""
    dimer = lc.coupled_dimer(**DIMER)
    decs = lc.decompose_model(dimer)
    rho = lc.steady_state(dimer, decs)
    grid = np.geomspace(1e-3, 20.0, 400)

    def dimer_otoc():
        return lc.otoc(dimer.hamiltonian, decs, _pauli("XI"), _pauli("ZZ"), rho, grid).values

    ops = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    spec = lc.CorrelatorSpec(tuple(zip(ops, (2.0, 1.2, 0.4))), rho)

    def single_gap():
        return np.array([lc.general_correlator(dimer.hamiltonian, decs, spec)])

    oscillator = lc.truncated_oscillator(omega0=1.0, dim=9, gamma=0.1, temperature=0.5)
    odecs = lc.decompose_model(oscillator)
    orho = lc.steady_state(oscillator, odecs)
    a = lc.annihilation(9)
    x = a + a.conj().T
    ogrid = np.geomspace(1e-3, 20.0, 25)

    def oscillator_otoc():
        return lc.otoc(oscillator.hamiltonian, odecs, x, x, orho, ogrid).values

    return {"otoc:coupled_dimer:XI,ZZ:geomspace400": dimer_otoc,
            "general:coupled_dimer:single_gap_0.8": single_gap,
            "otoc:oscillator:d=9:x,x:geomspace25": oscillator_otoc}


def held_bytes(ev) -> dict:
    """Bytes of the arrays the engine holds, by cache (a propagator entry is an
    array, or a map from block to array)."""
    out = {}
    for name, held in (("generators", ev._generators), ("propagators", ev._propagators),
                       ("labels", ev._labels), ("grouped", getattr(ev, "_grouped", {}))):
        out[name] = 0
        for m in (m for entry in held.values()
                  for m in (entry.values() if isinstance(entry, dict) else [entry])):
            parts = (m.data, m.indices, m.indptr) if hasattr(m, "indptr") else (m,)
            out[name] += sum(int(p.nbytes) for p in parts)
    return out


def measure_calls(name, call, repeats: int) -> dict:
    times = [[] for _ in range(CALLS)]
    held, same = [], []
    for _sequence in range(repeats):
        propagation._held = None
        first = None
        for k in range(CALLS):
            start = time.perf_counter()
            values = call()
            times[k].append(time.perf_counter() - start)
            first = values if first is None else first
            if _sequence == 0:
                held.append(held_bytes(propagation._held[1]))
                same.append(bool(np.array_equal(values, first)))
    propagation._held = None
    row = {"workload": name, "calls": [
        {"call": k + 1, "time_s": statistics.median(times[k]), "held_bytes": held[k],
         "same_bytes_as_first_call": same[k]} for k in range(CALLS)]}
    print(name + " | " + " | ".join(
        f"call {c['call']} {c['time_s']:.4f} s, propagators {c['held_bytes']['propagators'] / 2**20:.1f}"
        f" MiB, same {c['same_bytes_as_first_call']}" for c in row["calls"]), flush=True)
    return row


def _random_decomps(rng: np.random.Generator, d: int, eigenbasis: bool):
    def hermitian():
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return m + m.conj().T

    h, s = hermitian(), hermitian()
    if eigenbasis:
        energies, u = hermitian_eig(h)
        h, s = np.diag(energies).astype(complex), u.conj().T @ s @ u
    bath = lc.BathSpec(temperature=float(rng.uniform(0.0, 2.0)),
                       rate_profile=float(rng.uniform(0.01, 0.5)), gamma0=float(rng.uniform(0.0, 0.2)))
    return h, lc.assign_rates(lc.exact_bohr_decomposition(h, s), bath)


def tolerance(rng: np.random.Generator, models: int) -> dict:
    """Deviation of the action from the propagator product, per kind of generator."""
    rows = []
    for kind, dims in (("dense_level", (3, 4)), ("sparse_level_block", (3, 4, 5)),
                       ("csr_level", (4, 5))):
        for _model in range(models):
            d, gap = int(rng.choice(dims)), float(rng.uniform(0.05, 5.0))
            h, decs = _random_decomps(rng, d, eigenbasis=kind == "sparse_level_block")
            gen = lc.multi_slot_action(h, decs, 2).to_csr()
            if kind == "sparse_level_block":
                labels = propagation._block_labels(gen)
                blocks = np.unique(labels)
                picked = rng.permutation(blocks)[: max(1, len(blocks) // 2)]
                coords = np.flatnonzero(np.isin(labels, picked))
                gen = gen[coords][:, coords]
            dense = gen.toarray()
            v = rng.standard_normal(len(dense)) + 1j * rng.standard_normal(len(dense))
            acted = propagation.integrate_ode(dense if kind == "dense_level" else gen, v, [0.0, gap])[-1]
            product = lc.expm(dense, gap) @ v
            rows.append({"kind": kind, "dim": d, "order": len(dense), "gap": gap,
                         "rel_deviation": float(np.max(np.abs(acted - product))
                                                / np.max(np.abs(product)))})
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(row["rel_deviation"])
    summary = {kind: {"max": max(devs), "median": statistics.median(devs), "models": len(devs)}
               for kind, devs in by_kind.items()}
    for kind, stats in summary.items():
        print(f"tolerance {kind:20s} max {stats['max']:.1e} median {stats['median']:.1e} "
              f"over {stats['models']} models", flush=True)
    return {"rows": rows, "by_kind": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_11.json"))
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--models", type=int, default=20, help="random models per generator kind")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(11)
    rows = [measure_calls(name, call, args.repeats) for name, call in workloads(rng).items()]
    result = {
        "script": "bench/repeats.py",
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count(), "blas_threads": 1},
        "repeats": args.repeats,
        "calls": rows,
        "tolerance": tolerance(rng, args.models),
    }
    out = Path(args.out)
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record[args.label] = result
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"written to {args.out} under {args.label!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
