"""Sector engine, layer by layer: the blocks of sparse levels and the steps on them.

    python3 bench/blocks.py [--out BENCH_9.json] [--repeats 3]

Run it from the root of a checkout.  A sparse level (more than
`lindcorr.generators.DEFAULT_SLOT_BUDGET` coordinates) steps only the blocks of
its generator where both the slot tensor T and the dual vector w are nonzero.
For each case below, with BLAS and OpenMP threads fixed at 1, it times:

* assembly of the CSR generator G_n and its block labels (the connected
  components of its sparsity pattern, `propagation._block_labels`);
* extraction of the restricted generator G[S, S] over the touched
  coordinates S, as CSR and, when S is within the budget, as a dense array;
* the sweep on the restricted level (`_SlotEvolver.sweep` with the labels
  held: cold, with G[S, S] and its propagator built, and warm, on the held
  engine) against the sweep of the whole level, w @ exp(tau G_n) T by
  `integrate_ode` on the full CSR generator (the sparse engine before blocks);
* the tracemalloc peak of each sweep (NumPy and SciPy arrays; one more call).

The cases are the sparse levels of the wide-slots benchmark workload (2-slot
OTOCs of 6- and 9-level oscillators with W = x, the 30-level regression
trace from the steady state, the rate-free 9-level OTOC), the 3-slot
`coupled_dimer` sweep and a 3-slot 6-level oscillator sweep, on the grid
linspace(0, 10, 41).  Each time is the median of `--repeats` runs.

It then re-runs the dense/CSR crossover at block orders: for unions of whole
blocks of those generators (what the engine steps), of orders 35 to 1666 and
on up to two levels per order, a vector on the union is stepped along the
same grid by a dense propagator (one expm and 40 products, cold) and by
`expm_multiply` on its CSR generator.  The budget it suggests is, as in
`bench/crossover.py`, the largest order up to which the median dense/CSR
time ratio stays at or below 1.
"""

from __future__ import annotations

import argparse
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
from lindcorr import generators, propagation  # noqa: E402

TAUS = np.linspace(0.0, 10.0, 41)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)
DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)
BLOCK_ORDERS = (35, 56, 104, 146, 180, 200, 220, 240, 256, 270, 300, 324, 420, 489, 792, 924, 1666)
LEVELS_PER_ORDER = 2


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _site(op, site):
    return np.kron(op, lc.identity(2)) if site == 0 else np.kron(lc.identity(2), op)


def cases(rng: np.random.Generator) -> list[tuple[str, object, tuple, list, list, np.ndarray]]:
    """(name, hamiltonian, decomps, a_ops, b_ops, state) of each sparse-level sweep."""
    out = []
    for dim in (6, 9):
        model = lc.truncated_oscillator(dim=dim, **OSCILLATOR)
        decs = lc.decompose_model(model)
        a = lc.annihilation(dim)
        ops = {"x": a + a.conj().T, "n": a.conj().T @ a, "a": a}
        rho = lc.steady_state(model, decs)
        for v in ("x", "n", "a"):
            w_op, v_op = ops["x"], ops[v]  # otoc: T = W^dag (x) W, w from (1, V^dag, V)
            out.append((f"otoc:oscillator:d={dim},V={v}", model.hamiltonian, decs,
                        [lc.identity(dim), v_op.conj().T, v_op], [w_op.conj().T, w_op], rho))
    model = lc.truncated_oscillator(dim=30, **OSCILLATOR)
    decs = lc.decompose_model(model)
    a = lc.annihilation(30)
    out.append(("qrt:oscillator:d=30", model.hamiltonian, decs, [lc.identity(30), a],
                [a.conj().T], lc.steady_state(model, decs)))
    free = lc.truncated_oscillator(dim=9, omega0=1.0, gamma=0.0, temperature=0.0)
    a = lc.annihilation(9)
    x = a + a.conj().T
    out.append(("otoc:rate-free:d=9,V=x", free.hamiltonian, lc.decompose_model(free),
                [lc.identity(9), x, x], [x, x], _density(rng, 9)))
    dimer = lc.coupled_dimer(**DIMER)
    decs = lc.decompose_model(dimer)
    out.append(("group:coupled_dimer:n=3", dimer.hamiltonian, decs,
                [lc.identity(4), _site(lc.sigma_x, 1), _site(lc.sigma_z, 1), lc.identity(4)],
                [_site(lc.sigma_plus, 0), _site(lc.sigma_minus, 1), _site(lc.sigma_z, 0)],
                lc.steady_state(dimer, decs)))
    model = lc.truncated_oscillator(dim=6, **OSCILLATOR)
    decs = lc.decompose_model(model)
    a = lc.annihilation(6)
    x, n = a + a.conj().T, a.conj().T @ a
    out.append(("group:oscillator:d=6,n=3", model.hamiltonian, decs, [lc.identity(6)] * 4,
                [x, n, x], lc.steady_state(model, decs)))
    return out


def _median(fn, repeats: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure_case(name, h, decs, a_ops, b_ops, rho, repeats: int) -> tuple[dict, object, np.ndarray]:
    """The case's row, and its level's CSR generator and block labels."""
    n = len(b_ops)
    tensor = lc.elementary_tensor(b_ops)
    w = lc.contraction_functional(a_ops, rho)
    action = generators.multi_slot_action(h, decs, n)
    assemble_s, gen = _median(action.to_csr, repeats)
    labels_s, labels = _median(lambda: propagation._block_labels(gen), repeats)
    sizes = np.bincount(labels)

    def held_evolver():
        ev = propagation._SlotEvolver(h, decs)
        ev._generators[(n, False)] = gen
        ev._labels[(n, False)] = labels
        return ev

    ev = held_evolver()
    _part, _key, coords = ev._level(n, tensor, w)
    order = len(tensor) if coords is None else len(coords)
    if coords is None:
        coords = np.arange(len(tensor))
    extract_csr_s, part = _median(lambda: gen[coords][:, coords], repeats)
    extract_dense_s = (_median(lambda: gen[coords][:, coords].toarray(), repeats)[0]
                       if generators._dense_order(order) else None)

    def full_sweep():
        return np.array([w @ v for v in propagation.integrate_ode(gen, tensor, TAUS)])

    def cold_sweep():
        return held_evolver().sweep(tensor, n, TAUS, w)

    full_s, expected = _median(full_sweep, repeats)
    cold_s, values = _median(cold_sweep, repeats)
    warm = held_evolver()
    warm.sweep(tensor, n, TAUS, w)
    warm_s, _ = _median(lambda: warm.sweep(tensor, n, TAUS, w), repeats)
    scale = float(np.max(np.abs(expected))) or 1.0
    row = {
        "case": name, "slots": n, "level_order": len(tensor), "level_nnz": int(gen.nnz),
        "assemble_s": assemble_s, "labels_s": labels_s, "blocks": len(sizes),
        "largest_block": int(sizes.max()),
        "touched_blocks": int(len(np.unique(labels[coords]))) if order else 0,
        "touched_order": order, "touched_engine": "dense" if generators._dense_order(order) else "csr",
        "extract_csr_s": extract_csr_s, "extract_dense_s": extract_dense_s,
        "touched_nnz": int(part.nnz),
        "full_sweep_s": full_s, "sector_sweep_cold_s": cold_s, "sector_sweep_warm_s": warm_s,
        "speedup_cold": full_s / cold_s, "speedup_warm": full_s / warm_s,
        "full_sweep_peak_b": _peak(full_sweep), "sector_sweep_peak_b": _peak(cold_sweep),
        "max_rel_deviation": float(np.max(np.abs(values - expected))) / scale,
    }
    print(f"{name:28s} order {len(tensor):6d} blocks {len(sizes):3d} touched {order:5d} "
          f"({row['touched_engine']}) | labels {labels_s:.4f} s extract {extract_csr_s:.4f} s | "
          f"sweep full {full_s:.4f} s sector cold {cold_s:.4f} s warm {warm_s:.4f} s | "
          f"peak {row['full_sweep_peak_b'] / 2**20:.1f} -> {row['sector_sweep_peak_b'] / 2**20:.1f} MiB"
          f" | deviation {row['max_rel_deviation']:.1e}", flush=True)
    return row, gen, labels


def _union_of_blocks(labels: np.ndarray, order: int) -> np.ndarray | None:
    """Coordinates of whole blocks that hold `order` coordinates in all, or None."""
    reach = {0: ()}
    for block, size in enumerate(np.bincount(labels)):
        for total, picked in list(reach.items()):
            if total + size <= order and total + size not in reach:
                reach[total + int(size)] = (*picked, block)
    return np.flatnonzero(np.isin(labels, reach[order])) if order in reach else None


def block_crossover(levels, rng: np.random.Generator, repeats: int) -> list[dict]:
    """Dense against CSR stepping of unions of whole blocks of the given orders,
    on up to LEVELS_PER_ORDER levels each (levels of more than 100 blocks skipped)."""
    rows = []
    for order in BLOCK_ORDERS:
        found = 0
        for name, gen, labels in levels:
            coords = _union_of_blocks(labels, order) if labels.max() < 100 else None
            if coords is None:
                continue
            block = gen[coords][:, coords]
            dense = block.toarray()
            v = rng.standard_normal(order) + 1j * rng.standard_normal(order)
            step = float(TAUS[1] - TAUS[0])

            def dense_steps():
                prop = lc.expm(dense, step)
                out = v
                for _ in TAUS[1:]:
                    out = prop @ out
                return out

            dense_s, last_dense = _median(dense_steps, repeats)
            csr_s, states = _median(lambda: propagation.integrate_ode(block, v, TAUS), repeats)
            rows.append({"order": order, "level": name, "blocks": len(np.unique(labels[coords])),
                         "dense_cold_s": dense_s, "csr_s": csr_s, "dense_over_csr": dense_s / csr_s,
                         "rel_deviation": float(np.max(np.abs(last_dense - states[-1]))
                                                / np.max(np.abs(states[-1])))})
            print(f"block order {order:5d} ({name}, {rows[-1]['blocks']} blocks): dense "
                  f"{dense_s:.4f} s csr {csr_s:.4f} s ratio {dense_s / csr_s:.2f}", flush=True)
            found += 1
            if found == LEVELS_PER_ORDER:
                break
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_9.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(9)
    rows, levels = [], []
    for name, *inputs in cases(rng):
        row, gen, labels = measure_case(name, *inputs, args.repeats)
        rows.append(row)
        if all(len(labels) != len(seen) or gen.nnz != g.nnz for _n, g, seen in levels):
            levels.append((name, gen, labels))  # the OTOCs of one model share a level
    crossover = block_crossover(levels, rng, args.repeats)
    by_order = {}
    for row in crossover:
        by_order.setdefault(str(row["order"]), []).append(row["dense_over_csr"])
    by_order = {order: {"ratio_median": statistics.median(ratios), "levels": len(ratios)}
                for order, ratios in by_order.items()}
    suggested = 0
    for order, stats in by_order.items():
        if stats["ratio_median"] > 1.0:
            break
        suggested = int(order)
    result = {
        "script": "bench/blocks.py",
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count(), "blas_threads": 1},
        "grid": "linspace(0, 10, 41)",
        "repeats": args.repeats,
        "cases": rows,
        "block_crossover": crossover,
        "block_crossover_by_order": by_order,
        "suggested_slot_budget": suggested,
        "slot_budget": generators.DEFAULT_SLOT_BUDGET,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"suggested DEFAULT_SLOT_BUDGET at block orders {suggested} "
          f"(set: {generators.DEFAULT_SLOT_BUDGET}); written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
