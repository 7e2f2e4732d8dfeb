"""Sector engine, layer by layer: the blocks of each level and the steps on them.

    python3 bench/blocks.py [--out BENCH_10.json] [--repeats 3]
    python3 bench/blocks.py --dimer-otocs [--label change] [--out BENCH_12.json]
    python3 bench/blocks.py --block-order [--label change] [--out BENCH_19.json]
    python3 bench/blocks.py --assembly [--label change] [--out BENCH_21.json]

Run it from the root of a checkout.  A level steps only the blocks of its
generator where both the slot tensor T and the dual vector w are nonzero.
For each case below, with BLAS and OpenMP threads fixed at 1, it times:

* assembly of the generator G_n as the engine holds it, a CSR matrix summed
  from its slot-factor terms (`_SlotEvolver.generator`), and its block labels
  (the connected components of its sparsity pattern,
  `propagation._block_labels`); a level is sparse when it has more than
  `lindcorr.generators.DEFAULT_SLOT_BUDGET` coordinates;
* extraction of the restricted generator G[S, S] over the touched
  coordinates S, as CSR and, when S is within the budget, as a dense array;
* the sweep on the restricted level (`_SlotEvolver.sweep` in one call through
  `propagation._model_evolver`: cold, from a store holding only the level's
  generator, block labels and the sweep's slice, with its slice propagator
  built, and warm, with it held)
  against the sweep of the whole level, w @ exp(tau G_n) T: by
  `integrate_ode` on the full CSR generator on a sparse level (the sparse
  engine before blocks), by one propagator of the whole level and 40
  products on a dense one (the dense engine before blocks);
* the tracemalloc peak of each sweep (NumPy and SciPy arrays; one more call).

The sparse cases are the sparse levels of the wide-slots benchmark workload
(2-slot OTOCs of 6- and 9-level oscillators with W = x, the 30-level
regression trace from the steady state, the rate-free 9-level OTOC), the
3-slot `coupled_dimer` sweep and a 3-slot 6-level oscillator sweep; the
dense ones are Pauli-string OTOCs of the otoc-map workload's dimer (order
256), the rate-free 12-level regression trace of wide-slots (order 144) and a
3-slot qubit sweep (order 64); all on the grid linspace(0, 10, 41).  Each
time is the median of `--repeats` runs.

It also times single-use pull-backs w @ exp(gap G_n) on dense levels, as the
general-pattern sweeps make them: the whole level's propagator and one
product (the engine before this measurement) against `_SlotEvolver.pull_back`
on the touched blocks, an action on every call, cold (from a store holding
only the level's generator, block labels and the pull-back's slice) and with
its action plan and run held.

It then re-runs the dense/CSR crossover at block orders: for unions of whole
blocks of the sparse generators (what the engine steps), of orders 35 to
1666 and on up to two levels per order, a vector on the union is stepped
along the same grid by a dense propagator (one expm and 40 products, cold)
and by `expm_multiply` on its CSR generator.  The budget it suggests is, as
in `bench/crossover.py`, the largest order up to which the median dense/CSR
time ratio stays at or below 1.  The result goes under the key "blocks" of
`--out`, next to what else that file holds.

With `--dimer-otocs` it measures only the Pauli-string OTOCs of the dimer
(order-256 dense level) and how their propagators are formed: per case the
cold sweep (from a store holding only the level's generator, block labels
and the sweep's slice) and the warm one (on what the cold sweep left held),
the sizes of the touched blocks, the order of every `expm` the cold sweep
made and the bytes held after it (`_held.counts["bytes"]`, each entry counted
once when it was stored: generator, block labels, slice and the slice's
propagator at the grid's step).  The rows go under `--label` in the key
"dimer_otocs" of `--out` (default BENCH_12.json).

With `--block-order` it measures, on the 3-slot levels of the 6- and 9-level
oscillators, what a level's block labels and slices cost cold: the time of
`_SlotEvolver.labels` from a store holding only the level's generator, the
bytes of its labels and slices after a call that steps the whole level (a
vector on every block: the labels alone), and the time and bytes of the
first call that groups coordinates by block (a vector on one block: it
stores that block's slice).  The rows go under `--label` in the key
"block_order" of `--out` (default BENCH_19.json).

With `--assembly` it measures only the cold assembly of levels: per level,
on an emptied store, the median and the least time of
`_SlotEvolver.generator` alone, in one call through
`propagation._model_evolver` (ASSEMBLY_REPEATS runs, 3 for 3 slots, after
one untimed run; the runs go round the levels in turn), the tracemalloc
peak of one more such call, and a SHA-256 digest of the held matrix's data,
indices and indptr bytes with its index dtype, so rows of two checkouts show
whether they hold the same bytes.  The levels are the `coupled_dimer` with
its exact (1 to 3 slots) and local (sigma- per site, 1 to 2 slots)
decompositions, the qubit (1 to 4 slots), truncated oscillators of 6 and 9
levels (1 to 2 slots), 30 levels (1 slot) and 9 levels (3 slots), and random
exact models of 3 to 6 levels (1 to 2 slots).  Where the checkout checks
unitality (`propagation._unital`), it also records the residual
||G_n vec(I)^(x)n||_inf of each level over the bound on ||G_n||_1 it is
checked against, the time of that check, and the residuals of random exact
and local models of 3 to 8 levels and 1 to 3 slots (those whose CSR byte
bound is under 2**28).  The rows go under `--label` in the key "assembly" of
`--out` (default BENCH_21.json).
"""

from __future__ import annotations

import argparse
import hashlib
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
from lindcorr import _held, generators, propagation  # noqa: E402

TAUS = np.linspace(0.0, 10.0, 41)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)
DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)
ASSEMBLY_REPEATS = 15
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
                [lc.identity(4), _site(lc.sigma_x, 1), _site(lc.sigma_x, 0), lc.identity(4)],
                [_site(lc.sigma_plus, 0), _site(lc.sigma_minus, 1), _site(lc.sigma_z, 0)],
                lc.steady_state(dimer, decs)))
    model = lc.truncated_oscillator(dim=6, **OSCILLATOR)
    decs = lc.decompose_model(model)
    a = lc.annihilation(6)
    x, n = a + a.conj().T, a.conj().T @ a
    out.append(("group:oscillator:d=6,n=3", model.hamiltonian, decs, [lc.identity(6)] * 4,
                [x, n, x], lc.steady_state(model, decs)))
    decs = lc.decompose_model(dimer)
    rho = lc.steady_state(dimer, decs)
    for w_label, v_label in (("XI", "ZZ"), ("ZY", "XI"), ("YX", "IZ")):
        w_op, v_op = _pauli(w_label), _pauli(v_label)
        out.append((f"otoc:coupled_dimer:W={w_label},V={v_label}", dimer.hamiltonian, decs,
                    [lc.identity(4), v_op.conj().T, v_op], [w_op.conj().T, w_op], rho))
    free = lc.truncated_oscillator(dim=12, omega0=1.0, gamma=0.0, temperature=0.0)
    a = lc.annihilation(12)
    out.append(("qrt:rate-free:d=12", free.hamiltonian, lc.decompose_model(free),
                [lc.identity(12), a], [a.conj().T], _density(rng, 12)))
    qubit = lc.two_level_atom(1.0, 0.1, 0.5)
    out.append(("group:two_level_atom:n=3", qubit.hamiltonian, lc.decompose_model(qubit),
                [lc.identity(2), lc.sigma_x, lc.sigma_x, lc.identity(2)],
                [lc.sigma_plus, lc.sigma_minus, lc.sigma_z], lc.steady_state(qubit)))
    return out


def _pauli(label: str) -> np.ndarray:
    paulis = {"I": lc.identity(2), "X": lc.sigma_x, "Y": lc.sigma_y, "Z": lc.sigma_z}
    return np.kron(paulis[label[0]], paulis[label[1]])


def _median(fn, repeats: int, setup=None) -> tuple[float, object]:
    """Median time of `fn()` over `repeats` runs, each after `setup()` when given, and
    the last run's result."""
    times, out = [], None
    for _ in range(repeats):
        if setup is not None:
            setup()
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


def _call(h, decs, act):
    """`act(ev)` on the model's engine, in one call through `propagation._model_evolver`."""
    with propagation._model_evolver(h, decs) as ev:
        return act(ev)


def _keep_level(h, decs, n: int, *vectors) -> None:
    """Leave only the n-slot level's generator, block labels and, when `vectors` are
    stepped on the coordinates of some blocks, their slice held."""
    _hold_only(h, decs, lambda ev: (ev.generator(n), ev._slice(n, *vectors)))


def _hold_only(h, decs, act) -> None:
    """Leave only the entries `act(ev)` uses held: one call that uses them, under an
    idle-byte cap of 0, so every other entry is dropped."""
    cap, _held.IDLE_BYTE_CAP = _held.IDLE_BYTE_CAP, 0
    try:
        _call(h, decs, act)
    finally:
        _held.IDLE_BYTE_CAP = cap


def measure_case(name, h, decs, a_ops, b_ops, rho, repeats: int) -> tuple[dict, object, np.ndarray]:
    """The case's row, and its level's generator and block labels."""
    n = len(b_ops)
    tensor = lc.elementary_tensor(b_ops)
    w = lc.contraction_functional(a_ops, rho)
    within = generators._within_budget(h.shape[0] ** (2 * n))
    assemble_s, gen = _median(lambda: _call(h, decs, lambda ev: ev.generator(n)), repeats,
                              setup=_held.drop_all)
    labels_s, labels = _median(lambda: propagation._block_labels(gen), repeats)
    sizes = np.bincount(labels)
    _key, coords, _spans = _call(h, decs, lambda ev: ev._slice(n, tensor, w))
    order = len(tensor) if coords is None else len(coords)
    if coords is None:
        coords = np.arange(len(tensor))
    extract_csr_s, part = _median(lambda: gen[coords][:, coords], repeats)
    extract_dense_s = (_median(lambda: gen[coords][:, coords].toarray(), repeats)[0]
                       if generators._within_budget(order) else None)

    def full_sweep():
        if not within:
            return np.array([w @ v for v in propagation.integrate_ode(gen, tensor, TAUS)])
        prop, v, out = lc.expm(gen.toarray(), float(TAUS[1] - TAUS[0])), tensor, [w @ tensor]
        for _ in TAUS[1:]:
            v = prop @ v
            out.append(w @ v)
        return np.array(out)

    def sweep():
        return _call(h, decs, lambda ev: ev.sweep(tensor, n, TAUS, w))

    def cold_peak():
        _keep_level(h, decs, n, tensor, w)
        return _peak(sweep)

    full_s, expected = _median(full_sweep, repeats)
    cold_s, values = _median(sweep, repeats, setup=lambda: _keep_level(h, decs, n, tensor, w))
    sweep()
    warm_s, _ = _median(sweep, repeats)
    scale = float(np.max(np.abs(expected))) or 1.0
    engine = "dense" if generators._within_budget(order) else "csr"
    row = {
        "case": name, "slots": n, "level_order": len(tensor),
        "level_within_budget": within,
        "level_nnz": int(gen.nnz),
        "assemble_s": assemble_s, "labels_s": labels_s, "blocks": len(sizes),
        "largest_block": int(sizes.max()),
        "touched_blocks": int(len(np.unique(labels[coords]))) if order else 0,
        "touched_order": order, "touched_engine": engine,
        "extract_csr_s": extract_csr_s, "extract_dense_s": extract_dense_s,
        "touched_nnz": int(part.nnz),
        "full_sweep_s": full_s, "sector_sweep_cold_s": cold_s, "sector_sweep_warm_s": warm_s,
        "speedup_cold": full_s / cold_s, "speedup_warm": full_s / warm_s,
        "full_sweep_peak_b": _peak(full_sweep), "sector_sweep_peak_b": cold_peak(),
        "max_rel_deviation": float(np.max(np.abs(values - expected))) / scale,
    }
    print(f"{name:34s} order {len(tensor):6d} ({'dense' if within else 'sparse'}) "
          f"blocks {len(sizes):3d} "
          f"touched {order:5d} ({engine}) | labels {labels_s:.4f} s | "
          f"sweep full {full_s:.4f} s sector cold {cold_s:.4f} s warm {warm_s:.4f} s | "
          f"peak {row['full_sweep_peak_b'] / 2**20:.1f} -> {row['sector_sweep_peak_b'] / 2**20:.1f} MiB"
          f" | deviation {row['max_rel_deviation']:.1e}", flush=True)
    return row, gen, labels


def measure_dimer_otoc(name, h, decs, a_ops, b_ops, rho, repeats: int) -> dict:
    """How a dimer OTOC's sweep forms its propagators, cold and warm."""
    tensor = lc.elementary_tensor(b_ops)
    w = lc.contraction_functional(a_ops, rho)
    gen = _call(h, decs, lambda ev: ev.generator(2))
    labels, (_key, coords, _spans) = _call(h, decs, lambda ev: (ev.labels(2),
                                                                 ev._slice(2, tensor, w)))
    sizes = np.bincount(labels if coords is None else labels[coords])

    def sweep():
        return _call(h, decs, lambda ev: ev.sweep(tensor, 2, TAUS, w))

    cold_s, _ = _median(sweep, repeats, setup=lambda: _keep_level(h, decs, 2, tensor, w))
    orders, expm = [], propagation.expm
    propagation.expm = lambda m, t: orders.append(int(m.shape[0])) or expm(m, t)
    try:
        _keep_level(h, decs, 2, tensor, w)
        sweep()
    finally:
        propagation.expm = expm
    held_b = _held.counts["bytes"]  # the other models' entries went with _keep_level
    warm_s, _ = _median(sweep, repeats)
    row = {"case": name, "level_order": gen.shape[0], "sweep_cold_s": cold_s, "sweep_warm_s": warm_s,
           "touched_block_sizes": sorted(int(b) for b in sizes[sizes > 0]),
           "expm_orders": sorted(orders), "held_b": held_b}
    print(f"{name:34s} touched {row['touched_block_sizes']} | expm orders {row['expm_orders']} | "
          f"sweep cold {cold_s * 1e3:.2f} ms warm {warm_s * 1e3:.3f} ms | held "
          f"{row['held_b']} B", flush=True)
    return row


def pull_back_cases(rng: np.random.Generator) -> list[tuple[str, object, tuple, int, np.ndarray]]:
    """(name, hamiltonian, decomps, slots, dual vector) of each single-use pull-back."""
    dimer = lc.coupled_dimer(**DIMER)
    decs = lc.decompose_model(dimer)
    rho = lc.steady_state(dimer, decs)
    out = []
    for mid, last in (("XI", "ZZ"), ("ZY", "XY")):
        out.append((f"pull_back:coupled_dimer:n=2:{mid},{last}", dimer.hamiltonian, decs, 2,
                     lc.contraction_functional([lc.identity(4), _pauli(mid), _pauli(last)], rho)))
    out.append(("pull_back:coupled_dimer:n=2:random", dimer.hamiltonian, decs, 2,
                lc.contraction_functional([lc.identity(4), _density(rng, 4), _density(rng, 4)],
                                          _density(rng, 4))))
    qubit = lc.two_level_atom(1.0, 0.1, 0.5)
    out.append(("pull_back:two_level_atom:n=3:random", qubit.hamiltonian,
                lc.decompose_model(qubit), 3,
                lc.contraction_functional([_density(rng, 2) for _ in range(4)], _density(rng, 2))))
    return out


def measure_pull_back(name, h, decs, n, w, repeats: int) -> dict:
    """A dense level's pull-back across one gap: the whole propagator and one product
    against the engine's action, cold and held."""
    gap = 0.8
    gen = _call(h, decs, lambda ev: ev.generator(n))
    dense = gen.toarray()
    _key, coords, _spans = _call(h, decs, lambda ev: ev._slice(n, w))

    def pull_back():
        return _call(h, decs, lambda ev: ev.pull_back(w, n, gap))

    full_s, expected = _median(lambda: w @ lc.expm(dense, gap), repeats)
    cold_s, pulled = _median(pull_back, repeats, setup=lambda: _keep_level(h, decs, n, w))
    pull_back()
    held_s, _ = _median(pull_back, repeats)
    row = {"case": name, "slots": n, "level_order": gen.shape[0], "gap": gap,
           "touched_order": gen.shape[0] if coords is None else len(coords),
           "full_propagator_s": full_s, "pull_back_cold_s": cold_s,
           "pull_back_held_s": held_s,
           "speedup_cold": full_s / cold_s,
           "max_rel_deviation": float(np.max(np.abs(pulled - expected)) / np.max(np.abs(expected)))}
    print(f"{name:38s} order {gen.shape[0]:4d} touched {row['touched_order']:4d} | full "
          f"{full_s * 1e3:.2f} ms | pull_back cold {cold_s * 1e3:.2f} ms held "
          f"{held_s * 1e3:.3f} ms | deviation "
          f"{row['max_rel_deviation']:.1e}", flush=True)
    return row


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


def _random_model(d: int, seed: int, local: bool = False):
    """A random Hamiltonian of `d` levels and its exact decomposition of a random
    coupling, or, if `local`, a local one with two random jump operators."""
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = draw()
    h = (h + h.conj().T) / 2
    bath = lc.BathSpec(temperature=0.5, rate_profile=0.1, gamma0=0.05)
    if local:
        dec = lc.local_decomposition(np.zeros((d, d)), [(draw(), 0.7), (draw(), 1.3)])
    else:
        c = draw()
        dec = lc.exact_bohr_decomposition(h, (c + c.conj().T) / 2)
    return h, (lc.assign_rates(dec, bath),)


def assembly_levels() -> list[tuple[str, object, tuple, int]]:
    """(name, hamiltonian, decomps, slots) of each level `--assembly` builds."""
    dimer = lc.coupled_dimer(**DIMER)
    sites = [_site(lc.sigma_minus, 0), _site(lc.sigma_minus, 1)]
    local = tuple(lc.assign_rates(lc.local_decomposition(np.zeros((4, 4)), [(op, w)]), c.bath)
                  for op, w, c in zip(sites, (DIMER["omega1"], DIMER["omega2"]), dimer.couplings))
    qubit = lc.two_level_atom(1.0, 0.1, 0.5)
    models = [("coupled_dimer", dimer.hamiltonian, lc.decompose_model(dimer), (1, 2, 3)),
              ("coupled_dimer:local", dimer.hamiltonian, local, (1, 2)),
              ("two_level_atom", qubit.hamiltonian, lc.decompose_model(qubit), (1, 2, 3, 4))]
    for dim, levels in ((6, (1, 2)), (9, (1, 2)), (30, (1,)), (9, (3,))):
        model = lc.truncated_oscillator(dim=dim, **OSCILLATOR)
        models.append((f"oscillator:d={dim}", model.hamiltonian, lc.decompose_model(model), levels))
    for d in (3, 4, 5, 6):
        models.append((f"random_exact:d={d}", *_random_model(d, 21 + d), (1, 2)))
    return [(f"{name}:n={n}", h, decs, n) for name, h, decs, levels in models for n in levels]


def _unitality(gen, h, decs, n: int) -> tuple[float | None, float | None]:
    """The unitality residual ||G vec(I)^(x)n||_inf of the CSR generator `gen` over
    the bound on ||G||_1 the engine checks it against, and the time of the engine's
    check (`propagation._unital`); None for a checkout without the check."""
    if not hasattr(propagation, "_unital"):
        return None, None
    action = lc.multi_slot_action(h, decs, n)
    action._terms  # the factors, built before the check is timed
    start = time.perf_counter()
    propagation._unital(gen, action)
    check_s = time.perf_counter() - start
    residual = float(np.abs(gen @ lc.elementary_tensor([lc.identity(action.dim)] * n)).max())
    return residual / action._norm_bound(), check_s


def _build(h, decs, n):
    """The n-slot generator built on an emptied store, and the time of ev.generator alone."""
    _held.drop_all()
    with propagation._model_evolver(h, decs) as ev:
        start = time.perf_counter()
        gen = ev.generator(n)
        return gen, time.perf_counter() - start


def measure_assembly(levels) -> list[dict]:
    """Cold assembly of each level: median and least time, tracemalloc peak and held
    bytes' digest.  The timed builds go round the levels in turn, each level
    built once untimed first, so a slow spell of the machine falls on many
    levels' runs rather than on one level's."""
    times = {name: [] for name, *_ in levels}
    for name, h, decs, n in levels:
        _build(h, decs, n)  # so no timed run pays for a first call's set-up
    for run in range(ASSEMBLY_REPEATS):
        for name, h, decs, n in levels:
            if run < (3 if n == 3 else ASSEMBLY_REPEATS):
                times[name].append(_build(h, decs, n)[1])
    rows = []
    for name, h, decs, n in levels:
        gen = _build(h, decs, n)[0]
        digest = hashlib.sha256()
        for part in (gen.data, gen.indices, gen.indptr):
            digest.update(part.tobytes())
        residual, check_s = _unitality(gen, h, decs, n)
        row = {"level": name, "order": gen.shape[0], "nnz": int(gen.nnz),
               "held_b": int(gen.data.nbytes + gen.indices.nbytes + gen.indptr.nbytes),
               "index_dtype": str(gen.indices.dtype), "sha256": digest.hexdigest(),
               "build_s": statistics.median(times[name]), "build_min_s": min(times[name]),
               "runs": len(times[name]), "unitality_residual": residual,
               "unitality_check_s": check_s}
        del gen
        row["peak_b"] = _peak(lambda: _build(h, decs, n))
        _held.drop_all()
        print(f"{name:32s} order {row['order']:7d} nnz {row['nnz']:9d} | build "
              f"{row['build_s'] * 1e3:9.3f} ms (least {row['build_min_s'] * 1e3:9.3f}) | peak "
              f"{row['peak_b'] / 2 ** 20:7.1f} MiB | residual {residual} | {row['sha256'][:12]}",
              flush=True)
        rows.append(row)
    return rows


def unitality_sweep() -> list[dict]:
    """Unitality residuals of random exact and local models, 3 to 8 levels, 1 to 3
    slots, of the levels whose CSR byte bound is under 2**28."""
    rows = []
    for d in range(3, 9):
        for seed in range(3):
            for local in (False, True):
                h, decs = _random_model(d, 1000 + 10 * d + seed, local)
                for n in (1, 2, 3):
                    if lc.multi_slot_action(h, decs, n).csr_bytes() > 2 ** 28:
                        continue
                    gen = _call(h, decs, lambda ev: ev.generator(n))
                    residual, check_s = _unitality(gen, h, decs, n)
                    _held.drop_all()
                    rows.append({"model": f"random_{'local' if local else 'exact'}:d={d}:seed={seed}",
                                 "slots": n, "residual": residual, "check_s": check_s})
    return rows


def _env() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), "blas_threads": 1}


def measure_block_order(dim: int, repeats: int) -> dict:
    """Cold cost of the 3-slot level's block labels and first slice of a `dim`-level
    oscillator."""
    model = lc.truncated_oscillator(dim=dim, **OSCILLATOR)
    h, decs = model.hamiltonian, lc.decompose_model(model)
    _held.drop_all()
    _call(h, decs, lambda ev: ev.generator(3))

    def drop():  # the labels and the slices: only the generator stays held
        _hold_only(h, decs, lambda ev: ev.generator(3))

    def labels():
        return _call(h, decs, lambda ev: ev.labels(3))

    def entry_bytes():  # the level's labels and, once a call groups it, its slices
        entries, _counts = _held.snapshot()
        return sum(size for _owner, kind, key, _value, size in entries
                   if (kind == "labels" and key == 3) or (kind == "slice" and key[0] == 3))

    entry_s, _ = _median(labels, repeats, setup=drop)
    everywhere = np.ones(dim ** 6, dtype=complex)
    whole_s, _ = _median(lambda: _call(h, decs, lambda ev: ev._slice(3, everywhere)), repeats)
    whole_b = entry_bytes()
    level = labels()
    one = (level == level[0]).astype(complex)

    def cold_entry():
        drop()
        labels()
    group_s, _ = _median(lambda: _call(h, decs, lambda ev: ev._slice(3, one)), repeats,
                         setup=cold_entry)
    row = {"level": f"oscillator:d={dim},n=3", "order": dim ** 6, "labels_b": int(level.nbytes),
           "entry_s": entry_s, "stepped_whole_s": whole_s, "stepped_whole_entry_b": whole_b,
           "first_grouping_s": group_s, "grouped_entry_b": entry_bytes()}
    _held.drop_all()
    print(row, flush=True)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dimer-otocs", action="store_true",
                        help="measure only the dimer OTOCs' propagators, under --label")
    parser.add_argument("--block-order", action="store_true",
                        help="measure only the 3-slot levels' blocks entries, under --label")
    parser.add_argument("--assembly", action="store_true",
                        help="measure only the cold assembly of levels, under --label")
    parser.add_argument("--label", default="change")
    args = parser.parse_args(argv)
    args.out = args.out or str(ROOT / ("BENCH_12.json" if args.dimer_otocs else
                                       "BENCH_19.json" if args.block_order else
                                       "BENCH_21.json" if args.assembly else "BENCH_10.json"))
    rng = np.random.default_rng(9)
    if args.assembly:
        rows = measure_assembly(assembly_levels())
        sweep = unitality_sweep() if hasattr(propagation, "_unital") else []
        out = Path(args.out)
        record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        record.setdefault("assembly", {})[args.label] = {
            "script": "bench/blocks.py --assembly", "env": _env(), "repeats": ASSEMBLY_REPEATS,
            "rows": rows, "unitality_sweep": sweep, "largest_residual": max(
                [row["unitality_residual"] or 0.0 for row in rows] + [row["residual"] for row in sweep])}
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"written to {args.out} under {args.label!r}")
        return 0
    if args.block_order:
        rows = [measure_block_order(dim, args.repeats) for dim in (6, 9)]
        out = Path(args.out)
        record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        record.setdefault("block_order", {})[args.label] = {
            "script": "bench/blocks.py --block-order", "env": _env(), "repeats": args.repeats,
            "rows": rows}
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"written to {args.out} under {args.label!r}")
        return 0
    if args.dimer_otocs:
        rows = [measure_dimer_otoc(name, *inputs, args.repeats) for name, *inputs in cases(rng)
                if name.startswith("otoc:coupled_dimer")]
        out = Path(args.out)
        record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        record.setdefault("dimer_otocs", {})[args.label] = {
            "script": "bench/blocks.py --dimer-otocs", "env": _env(), "grid": "linspace(0, 10, 41)",
            "repeats": args.repeats, "rows": rows}
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"written to {args.out} under {args.label!r}")
        return 0
    rows, levels = [], []
    for name, *inputs in cases(rng):
        row, gen, labels = measure_case(name, *inputs, args.repeats)
        rows.append(row)
        if not row["level_within_budget"] and all(
                len(labels) != len(seen) or gen.nnz != g.nnz for _n, g, seen in levels):
            levels.append((name, gen, labels))  # the OTOCs of one model share a level
    pull_backs = [measure_pull_back(*case, args.repeats) for case in pull_back_cases(rng)]
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
        "env": _env(),
        "grid": "linspace(0, 10, 41)",
        "repeats": args.repeats,
        "cases": rows,
        "pull_backs": pull_backs,
        "block_crossover": crossover,
        "block_crossover_by_order": by_order,
        "suggested_slot_budget": suggested,
        "slot_budget": generators.DEFAULT_SLOT_BUDGET,
    }
    out = Path(args.out)
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record["blocks"] = result
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"suggested DEFAULT_SLOT_BUDGET at block orders {suggested} "
          f"(set: {generators.DEFAULT_SLOT_BUDGET}); written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
