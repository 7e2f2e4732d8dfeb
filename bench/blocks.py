"""Sector engine, layer by layer: the blocks of each level and the steps on them.

    python3 bench/blocks.py --out PATH [--label change] [--repeats 3]
    python3 bench/blocks.py --dimer-otocs --out PATH [--label change]
    python3 bench/blocks.py --block-order --out PATH [--label change]
    python3 bench/blocks.py --assembly --out PATH [--label change]

Run it from the root of a checkout.  A level steps only the blocks of its
generator where both the slot tensor T and the dual vector w are nonzero.
For each case below, with BLAS and OpenMP threads fixed at 1, it times:

* assembly of the generator G_n as the engine holds it, a CSR matrix summed
  from its slot-factor terms (`_SlotEvolver.generator`), and its block labels
  (the connected components of its sparsity pattern,
  `propagation._block_labels`); a level is within the budget when it has at
  most `lindcorr.generators.DEFAULT_SLOT_BUDGET` coordinates;
* extraction of the restricted generator G[S, S] over the touched
  coordinates S, as CSR and, when S is within the budget, as a dense array;
* the sweep on the restricted level (`_SlotEvolver.trajectory` given the dual
  vector w, in one call through `propagation._model_evolver`: cold, from a
  store holding only the level's generator, block labels and the sweep's
  slice, with its slice propagator built, and warm, with it held), and its
  tracemalloc peak (NumPy and SciPy arrays; one more cold call).

The cases above the budget are the 2-slot OTOCs of 6- and 9-level oscillators
with W = x, the 30-level regression trace from the steady state and the
rate-free 9-level OTOC of the wide-slots benchmark workload, the 3-slot
`coupled_dimer` sweep and a 3-slot 6-level oscillator sweep; those within it
are Pauli-string OTOCs of the otoc-map workload's dimer (order 256), the
rate-free 12-level regression trace of wide-slots (order 144) and a 3-slot
qubit sweep (order 64); all on the grid linspace(0, 10, 41).  Each time is
the median of `--repeats` runs.  The rows go under `--label` in the key
"blocks" of `--out`.  (Until the sector engine was the only one, this mode
also timed each sweep against the whole level's sweep, single-use pull-backs
against whole-level propagators and a dense/CSR crossover at block orders;
their last numbers are in BENCH_10.json.)

With `--dimer-otocs` it measures only the Pauli-string OTOCs of the dimer
(order-256 level) and how their propagators are formed: per case the
cold sweep (from a store holding only the level's generator, block labels
and the sweep's slice) and the warm one (on what the cold sweep left held),
the sizes of the touched blocks, the order of every `expm` the cold sweep
made and the bytes held after it (`_held.counts["bytes"]`, each entry counted
once when it was stored: generator, block labels, slice and the slice's
propagator at the grid's step).  The rows go under `--label` in the key
"dimer_otocs" of `--out`.

With `--block-order` it measures, on the 3-slot levels of the 6- and 9-level
oscillators, what a level's block labels and slices cost cold: the time of
`_SlotEvolver.labels` from a store holding only the level's generator, the
bytes of its labels and slices after a call that steps the whole level (a
vector on every block: the labels alone), and the time and bytes of the
first call that groups coordinates by block (a vector on one block: it
stores that block's slice).  The rows go under `--label` in the key
"block_order" of `--out`.

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
exact models of 3 to 6 levels (1 to 2 slots).  It also records the residual
||G_n vec(I)^(x)n||_inf of each level over the bound on ||G_n||_1 the engine
checks it against (`propagation._unital`), the time of that check, and the
residuals of random exact and local models of 3 to 8 levels and 1 to 3 slots
(those whose CSR byte bound is under 2**28).  The rows go under `--label` in
the key "assembly" of `--out`.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time

# first, so the threads are fixed and lindcorr is this checkout's
from _common import (DIMER, OSCILLATOR, TAUS, density, env, hold_only, keep_level, median_s,
                     on_engine, pauli, random_model, traced_peak, write_record)

import numpy as np

import lindcorr as lc
from lindcorr import _held, generators, propagation

ASSEMBLY_REPEATS = 15
RANDOM_BATH = lc.BathSpec(temperature=0.5, rate_profile=0.1, gamma0=0.05)


def _site(op, site):
    return np.kron(op, lc.identity(2)) if site == 0 else np.kron(lc.identity(2), op)


def cases(rng: np.random.Generator) -> list[tuple[str, object, tuple, list, list, np.ndarray]]:
    """(name, hamiltonian, decomps, a_ops, b_ops, state) of each sweep: those of levels
    above the budget first."""
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
                [lc.identity(9), x, x], [x, x], density(rng, 9)))
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
        w_op, v_op = pauli(w_label), pauli(v_label)
        out.append((f"otoc:coupled_dimer:W={w_label},V={v_label}", dimer.hamiltonian, decs,
                    [lc.identity(4), v_op.conj().T, v_op], [w_op.conj().T, w_op], rho))
    free = lc.truncated_oscillator(dim=12, omega0=1.0, gamma=0.0, temperature=0.0)
    a = lc.annihilation(12)
    out.append(("qrt:rate-free:d=12", free.hamiltonian, lc.decompose_model(free),
                [lc.identity(12), a], [a.conj().T], density(rng, 12)))
    qubit = lc.two_level_atom(1.0, 0.1, 0.5)
    out.append(("group:two_level_atom:n=3", qubit.hamiltonian, lc.decompose_model(qubit),
                [lc.identity(2), lc.sigma_x, lc.sigma_x, lc.identity(2)],
                [lc.sigma_plus, lc.sigma_minus, lc.sigma_z], lc.steady_state(qubit)))
    return out


def measure_case(name, h, decs, a_ops, b_ops, rho, repeats: int) -> dict:
    """The case's row."""
    n = len(b_ops)
    tensor = lc.elementary_tensor(b_ops)
    w = lc.contraction_functional(a_ops, rho)
    assemble_s, gen = median_s(lambda: on_engine(h, decs, lambda ev: ev.generator(n)), repeats,
                               setup=_held.drop_all)
    labels_s, labels = median_s(lambda: propagation._block_labels(gen), repeats)
    sizes = np.bincount(labels)
    _key, coords, _spans = on_engine(h, decs, lambda ev: ev._slice(n, tensor, w))
    order = len(tensor) if coords is None else len(coords)
    if coords is None:
        coords = np.arange(len(tensor))
    within = generators._within_budget(order)
    extract_csr_s, part = median_s(lambda: gen[coords][:, coords], repeats)
    extract_dense_s = (median_s(lambda: gen[coords][:, coords].toarray(), repeats)[0]
                       if within else None)

    def sweep():
        return on_engine(h, decs, lambda ev: list(ev.trajectory(tensor, n, TAUS, w=w)))

    def cold():
        keep_level(h, decs, n, tensor, w)

    cold_s, _ = median_s(sweep, repeats, setup=cold)
    sweep()
    warm_s, _ = median_s(sweep, repeats)
    cold()
    step = "propagator" if within else "action"
    row = {
        "case": name, "slots": n, "level_order": len(tensor),
        "level_within_budget": generators._within_budget(len(tensor)),
        "level_nnz": int(gen.nnz),
        "assemble_s": assemble_s, "labels_s": labels_s, "blocks": len(sizes),
        "largest_block": int(sizes.max()),
        "touched_blocks": int(len(np.unique(labels[coords]))) if order else 0,
        "touched_order": order, "touched_step": step,
        "extract_csr_s": extract_csr_s, "extract_dense_s": extract_dense_s,
        "touched_nnz": int(part.nnz),
        "sector_sweep_cold_s": cold_s, "sector_sweep_warm_s": warm_s,
        "sector_sweep_peak_b": traced_peak(sweep)[0],
    }
    print(f"{name:34s} order {len(tensor):6d} blocks {len(sizes):3d} touched {order:5d} ({step}) | "
          f"labels {labels_s:.4f} s | sweep cold {cold_s:.4f} s warm {warm_s:.4f} s | "
          f"peak {row['sector_sweep_peak_b'] / 2**20:.1f} MiB", flush=True)
    return row


def measure_dimer_otoc(name, h, decs, a_ops, b_ops, rho, repeats: int) -> dict:
    """How a dimer OTOC's sweep forms its propagators, cold and warm."""
    tensor = lc.elementary_tensor(b_ops)
    w = lc.contraction_functional(a_ops, rho)
    gen = on_engine(h, decs, lambda ev: ev.generator(2))
    labels, (_key, coords, _spans) = on_engine(h, decs, lambda ev: (ev.labels(2),
                                                                    ev._slice(2, tensor, w)))
    sizes = np.bincount(labels if coords is None else labels[coords])

    def sweep():
        return on_engine(h, decs, lambda ev: list(ev.trajectory(tensor, 2, TAUS, w=w)))

    cold_s, _ = median_s(sweep, repeats, setup=lambda: keep_level(h, decs, 2, tensor, w))
    orders, expm = [], propagation.expm
    propagation.expm = lambda m, t: orders.append(int(m.shape[0])) or expm(m, t)
    try:
        keep_level(h, decs, 2, tensor, w)
        sweep()
    finally:
        propagation.expm = expm
    held_b = _held.counts["bytes"]  # the other models' entries went with keep_level
    warm_s, _ = median_s(sweep, repeats)
    row = {"case": name, "level_order": gen.shape[0], "sweep_cold_s": cold_s, "sweep_warm_s": warm_s,
           "touched_block_sizes": sorted(int(b) for b in sizes[sizes > 0]),
           "expm_orders": sorted(orders), "held_b": held_b}
    print(f"{name:34s} touched {row['touched_block_sizes']} | expm orders {row['expm_orders']} | "
          f"sweep cold {cold_s * 1e3:.2f} ms warm {warm_s * 1e3:.3f} ms | held "
          f"{row['held_b']} B", flush=True)
    return row


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


def _random_model(d: int, seed: int, local: bool = False) -> tuple:
    """(hamiltonian, decomps) of `random_model` with H = (G + G^dag) / 2, under RANDOM_BATH."""
    return random_model(np.random.default_rng(seed), d, RANDOM_BATH, scale=0.5, local=local)


def _unitality(gen, h, decs, n: int) -> tuple[float, float]:
    """The unitality residual ||G vec(I)^(x)n||_inf of the CSR generator `gen` over
    the bound on ||G||_1 the engine checks it against, and the time of the engine's
    check (`propagation._unital`)."""
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
        row["peak_b"] = traced_peak(lambda: _build(h, decs, n))[0]
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
                    gen = on_engine(h, decs, lambda ev: ev.generator(n))
                    residual, check_s = _unitality(gen, h, decs, n)
                    _held.drop_all()
                    rows.append({"model": f"random_{'local' if local else 'exact'}:d={d}:seed={seed}",
                                 "slots": n, "residual": residual, "check_s": check_s})
    return rows


def measure_block_order(dim: int, repeats: int) -> dict:
    """Cold cost of the 3-slot level's block labels and first slice of a `dim`-level
    oscillator."""
    model = lc.truncated_oscillator(dim=dim, **OSCILLATOR)
    h, decs = model.hamiltonian, lc.decompose_model(model)
    _held.drop_all()
    on_engine(h, decs, lambda ev: ev.generator(3))

    def drop():  # the labels and the slices: only the generator stays held
        hold_only(h, decs, lambda ev: ev.generator(3))

    def labels():
        return on_engine(h, decs, lambda ev: ev.labels(3))

    def entry_bytes():  # the level's labels and, once a call groups it, its slices
        entries, _counts = _held.snapshot()
        return sum(size for _owner, kind, key, _value, size in entries
                   if (kind == "labels" and key == 3) or (kind == "slice" and key[0] == 3))

    entry_s, _ = median_s(labels, repeats, setup=drop)
    everywhere = np.ones(dim ** 6, dtype=complex)
    whole_s, _ = median_s(lambda: on_engine(h, decs, lambda ev: ev._slice(3, everywhere)), repeats)
    whole_b = entry_bytes()
    level = labels()
    one = (level == level[0]).astype(complex)

    def cold_entry():
        drop()
        labels()
    group_s, _ = median_s(lambda: on_engine(h, decs, lambda ev: ev._slice(3, one)), repeats,
                          setup=cold_entry)
    row = {"level": f"oscillator:d={dim},n=3", "order": dim ** 6, "labels_b": int(level.nbytes),
           "entry_s": entry_s, "stepped_whole_s": whole_s, "stepped_whole_entry_b": whole_b,
           "first_grouping_s": group_s, "grouped_entry_b": entry_bytes()}
    _held.drop_all()
    print(row, flush=True)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dimer-otocs", action="store_true",
                        help="measure only the dimer OTOCs' propagators, under --label")
    parser.add_argument("--block-order", action="store_true",
                        help="measure only the 3-slot levels' blocks entries, under --label")
    parser.add_argument("--assembly", action="store_true",
                        help="measure only the cold assembly of levels, under --label")
    parser.add_argument("--label", default="change")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(9)
    if args.assembly:
        rows = measure_assembly(assembly_levels())
        sweep = unitality_sweep()
        write_record(args.out, ("assembly", args.label), {
            "script": "bench/blocks.py --assembly", "env": env(), "repeats": ASSEMBLY_REPEATS,
            "rows": rows, "unitality_sweep": sweep, "largest_residual": max(
                [row["unitality_residual"] for row in rows] + [row["residual"] for row in sweep])})
    elif args.block_order:
        rows = [measure_block_order(dim, args.repeats) for dim in (6, 9)]
        write_record(args.out, ("block_order", args.label), {
            "script": "bench/blocks.py --block-order", "env": env(), "repeats": args.repeats,
            "rows": rows})
    elif args.dimer_otocs:
        rows = [measure_dimer_otoc(name, *inputs, args.repeats) for name, *inputs in cases(rng)
                if name.startswith("otoc:coupled_dimer")]
        write_record(args.out, ("dimer_otocs", args.label), {
            "script": "bench/blocks.py --dimer-otocs", "env": env(), "grid": "linspace(0, 10, 41)",
            "repeats": args.repeats, "rows": rows})
    else:
        rows = [measure_case(name, *inputs, args.repeats) for name, *inputs in cases(rng)]
        write_record(args.out, ("blocks", args.label), {
            "script": "bench/blocks.py", "env": env(), "grid": "linspace(0, 10, 41)",
            "repeats": args.repeats, "slot_budget": generators.DEFAULT_SLOT_BUDGET, "cases": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
