"""Slot-budget crossover: each call timed with the budget at its order and one below.

    python3 bench/crossover.py --out PATH [--repeats 5]
    python3 bench/crossover.py --single-use --out PATH [--repeats 7]

Run it from the root of a checkout.  It times the calls whose slot tensor has
144 to 1296 coordinates with `lindcorr.generators.DEFAULT_SLOT_BUDGET` set to
the order (the level is within the budget) and to one below it (above).  That
switches how the engine steps: within the budget a run of steps takes the
slice's propagator, above it an action, and a level whose vectors touch every
block is stepped whole; for one-slot calls it also switches the slot factors
from `np.kron` to the factors built from the operators' entries.  Each order
is reached by `qrt_correlator` (one slot, order d**2) and, where d**4 hits
it, by `otoc` (two slots), on a `truncated_oscillator` of dimension d; order
256 also has the `coupled_dimer` OTOC of the otoc-map benchmark workload.
Every call runs on the grid linspace(0, 10, 41).  A cold call starts from no
held entry; a warm call is the second of two calls, on what the first left
held.  Each time is the median of `--repeats` calls, with BLAS and OpenMP
threads fixed at 1 as in perfbench.  The record lists every call and, per
order, the median over its calls of the within/above time ratio, cold and
warm, and the largest relative deviation between the two settings.  The
budget it suggests is the largest order up to which that cold median ratio
stays at or below 1: the propagator is at least as fast on a cold call, and
the warm calls only add to its lead.  The result goes under the key
"slot_budget" of `--out`.  (Before one CSR form served every level, these
two settings picked a dense and a sparse engine; BENCH_5.json holds that
measurement.)

`--single-use` times instead one step applied once, a pull-back across one
gap (`_SlotEvolver.pull_back` in one call through
`propagation._model_evolver`), on levels within the budget of orders 16 to
256: one block each of random exact models, and the qubit's and the dimer's
levels of many blocks.  It times the engine's two ways of taking the step,
with `propagation._SINGLE_USE_ORDER` set to pick each: the slice's
propagator (each block's `expm`) and one product, and the in-house action,
cold (a new plan and run) and warm (both held).  Each cold call starts from a
store holding only the level's generator, block labels and slice.  The order
it suggests for `_SINGLE_USE_ORDER`, cold and warm, is the largest order up
to which the median propagator/action time ratio over the one-block levels
stays at or below 1; above it a step applied once is taken as an action.  The
result goes under the key "single_use" of `--out`.
"""

from __future__ import annotations

import argparse
import statistics
import sys

# first, so the threads are fixed and lindcorr is this checkout's
from _common import (DIMER, OSCILLATOR, TAUS, density, env, gaussian, keep_level, median_s,
                     random_model, write_record)

import numpy as np

import lindcorr as lc
from lindcorr import _held, generators, propagation

ORDERS = (144, 196, 256, 324, 400, 625, 900, 1296)


def calls_at(order: int, rng: np.random.Generator) -> list[tuple[str, object]]:
    """(name, zero-argument call) pairs whose slot tensor has `order` coordinates."""
    out = []
    d = round(order ** 0.5)
    if d * d == order:
        model = lc.truncated_oscillator(dim=d, **OSCILLATOR)
        decs = lc.decompose_model(model)
        a = lc.annihilation(d)
        rho = density(rng, d)
        out.append((f"qrt_correlator:oscillator:d={d}", lambda m=model, dc=decs, a=a, r=rho:
                    lc.qrt_correlator(m.hamiltonian, dc, lc.identity(a.shape[0]), a.conj().T, a,
                                      r, TAUS)))
    d = round(order ** 0.25)
    if d ** 4 == order:
        systems = [(f"oscillator:d={d}", lc.truncated_oscillator(dim=d, **OSCILLATOR))]
        if d == 4:
            systems.append(("coupled_dimer:d=4", lc.coupled_dimer(**DIMER)))
        for label, model in systems:
            decs = lc.decompose_model(model)
            w, v = gaussian(rng, d), gaussian(rng, d)
            rho = density(rng, d)
            out.append((f"otoc:{label}", lambda m=model, dc=decs, w=w, v=v, r=rho: lc.otoc(
                m.hamiltonian, dc, w, v, r, TAUS)))
    return out


def measure_slot_budget(repeats: int) -> dict:
    rng = np.random.default_rng(5)
    rows = []
    saved = generators.DEFAULT_SLOT_BUDGET
    try:
        for order in ORDERS:
            for name, call in calls_at(order, rng):
                row = {"order": order, "call": name}
                values = {}
                for side, budget in (("within", order), ("above", order - 1)):
                    generators.DEFAULT_SLOT_BUDGET = budget
                    row[f"{side}_cold_s"], values[side] = median_s(call, repeats, _held.drop_all)
                    row[f"{side}_warm_s"], _ = median_s(
                        call, repeats, lambda: (_held.drop_all(), call()))
                    _held.drop_all()
                within, above = values["within"].values, values["above"].values
                row["rel_deviation"] = float(np.max(np.abs(within - above)) / np.max(np.abs(within)))
                rows.append(row)
                print(f"{order:5d} {name:34s} cold within {row['within_cold_s']:.4f} s "
                      f"above {row['above_cold_s']:.4f} s | warm within "
                      f"{row['within_warm_s']:.4f} s above {row['above_warm_s']:.4f} s | "
                      f"deviation {row['rel_deviation']:.1e}", flush=True)
    finally:
        generators.DEFAULT_SLOT_BUDGET = saved

    by_order = {}
    for order in ORDERS:
        mine = [r for r in rows if r["order"] == order]
        by_order[str(order)] = {
            f"{when}_ratio_median": statistics.median(
                r[f"within_{when}_s"] / r[f"above_{when}_s"] for r in mine)
            for when in ("cold", "warm")
        }
        by_order[str(order)]["max_rel_deviation"] = max(r["rel_deviation"] for r in mine)
    suggested = 0
    for order in ORDERS:
        if by_order[str(order)]["cold_ratio_median"] > 1.0:
            break
        suggested = order
    return {
        "script": "bench/crossover.py",
        "env": env(),
        "grid": "linspace(0, 10, 41)",
        "repeats": repeats,
        "rows": rows,
        "by_order": by_order,
        "suggested_slot_budget": suggested,
        "slot_budget": saved,
    }


# (model, slots) of each level timed by --single-use, by order: a random exact
# model's level is one block, the qubit's and the dimer's are split into blocks
SINGLE_USE_LEVELS = {
    16: [("random_exact:d=4", 1), ("two_level_atom", 2)],
    25: [("random_exact:d=5", 1)],
    36: [("random_exact:d=6", 1)],
    49: [("random_exact:d=7", 1)],
    64: [("random_exact:d=8", 1), ("two_level_atom", 3)],
    81: [("random_exact:d=9", 1), ("random_exact:d=3", 2)],
    100: [("random_exact:d=10", 1)],
    144: [("random_exact:d=12", 1)],
    196: [("random_exact:d=14", 1)],
    256: [("random_exact:d=16", 1), ("random_exact:d=4", 2), ("coupled_dimer", 2)],
}


def _level_model(name: str) -> tuple:
    """(hamiltonian, decomps) of a --single-use model."""
    if name.startswith("random_exact"):
        d = int(name.split("=")[1])
        bath = lc.BathSpec(temperature=0.5, rate_profile=0.2, gamma0=0.05)
        return random_model(np.random.default_rng(100 + d), d, bath)
    model = lc.two_level_atom(1.0, 0.1, 0.5) if name == "two_level_atom" else lc.coupled_dimer(**DIMER)
    return model.hamiltonian, lc.decompose_model(model)


def measure_single_use(repeats: int) -> dict:
    """One step w @ exp(gap G) applied once, a pull-back across one gap, by the engine:
    the slice's propagator and one product against the action, cold and warm."""
    rng = np.random.default_rng(10)
    gap = 0.7
    rows = []
    saved = propagation._SINGLE_USE_ORDER
    try:
        for order, levels in SINGLE_USE_LEVELS.items():
            for name, slots in levels:
                h, decs = _level_model(name)
                w = rng.standard_normal(order) + 1j * rng.standard_normal(order)

                def pull_back(single_use_order):
                    propagation._SINGLE_USE_ORDER = single_use_order
                    with propagation._model_evolver(h, decs) as ev:
                        return ev.pull_back(w, slots, gap)

                def hold_level():
                    keep_level(h, decs, slots, w)

                prop_s, formed = median_s(lambda: pull_back(order), repeats, hold_level)
                cold_s, acted = median_s(lambda: pull_back(0), repeats, hold_level)
                warm_s, _ = median_s(lambda: pull_back(0), repeats)
                with propagation._model_evolver(h, decs) as ev:
                    assert len(ev.labels(slots)) == order
                    spans = ev._slice(slots, w)[2]
                rows.append({"order": order, "level": f"{name}:n={slots}", "blocks": len(spans),
                             "largest_block": max(stop - start for start, stop in spans),
                             "propagator_s": prop_s, "action_cold_s": cold_s,
                             "action_warm_s": warm_s,
                             "propagator_over_action_cold": prop_s / cold_s,
                             "propagator_over_action_warm": prop_s / warm_s,
                             "rel_deviation": float(np.max(np.abs(acted - formed))
                                                    / np.max(np.abs(formed)))})
                print(f"{order:4d} {name}:n={slots:<3d} largest block {rows[-1]['largest_block']:4d} | "
                      f"propagator + product {prop_s * 1e3:8.3f} ms | action cold "
                      f"{cold_s * 1e3:7.3f} ms warm {warm_s * 1e3:7.3f} ms | deviation "
                      f"{rows[-1]['rel_deviation']:.1e}", flush=True)
    finally:
        propagation._SINGLE_USE_ORDER = saved
        _held.drop_all()
    # the rule reads a slice's largest block, so the order is read from the levels of
    # one block; a level of many blocks forms one expm per block
    orders = sorted({r["order"] for r in rows if r["blocks"] == 1})
    by_order = {when: {str(order): statistics.median(r[f"propagator_over_action_{when}"] for r in rows
                                                     if r["blocks"] == 1 and r["order"] == order)
                       for order in orders}
                for when in ("cold", "warm")}
    suggested = {}
    for when, ratios in by_order.items():
        suggested[when] = 0
        for order in orders:
            if ratios[str(order)] > 1.0:
                break
            suggested[when] = order
    return {
        "script": "bench/crossover.py --single-use",
        "env": env(),
        "gap": gap,
        "repeats": repeats,
        "rows": rows,
        "one_block_propagator_over_action_median": by_order,
        "suggested_single_use_order": suggested,
        "single_use_order": propagation._SINGLE_USE_ORDER,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--single-use", action="store_true")
    args = parser.parse_args(argv)
    if args.single_use:
        result = measure_single_use(args.repeats or 7)
        print(f"suggested single-use order {result['suggested_single_use_order']} (cold, warm) "
              f"(set: {result['single_use_order']})")
        write_record(args.out, ("single_use",), result)
    else:
        result = measure_slot_budget(args.repeats or 5)
        print(f"suggested DEFAULT_SLOT_BUDGET {result['suggested_slot_budget']} "
              f"(set: {result['slot_budget']})")
        write_record(args.out, ("slot_budget",), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
