"""Dense/sparse engine crossover: both engines timed at slot-tensor orders 144 to 1296.

    python3 bench/crossover.py [--out BENCH_5.json] [--repeats 5]
    python3 bench/crossover.py --single-use [--out BENCH_10.json] [--repeats 7]

Run it from the root of a checkout.  Each order is reached by `qrt_correlator`
(one slot, order d**2) and, where d**4 hits it, by `otoc` (two slots), on a
`truncated_oscillator` of dimension d; order 256 also has the `coupled_dimer`
OTOC of the otoc-map benchmark workload.  Every call runs on the grid
linspace(0, 10, 41) once per engine: dense when
`lindcorr.generators.DEFAULT_SLOT_BUDGET` is set to the order, sparse when it
is set one below.  A cold call starts from a fresh engine; a warm call is the
second of two calls on the held engine, which reuses the dense propagator or
the CSR generator.  Each time is the median of `--repeats` calls, with BLAS
and OpenMP threads fixed at 1 as in perfbench.  The JSON written to `--out`
lists every call and, per order, the median over its calls of the dense/sparse
time ratio, cold and warm, and the largest relative deviation between the
engines.  The budget it suggests is the largest order up to which that cold
median ratio stays at or below 1: dense is at least as fast on a cold call,
and the warm calls only add to its lead.

`--single-use` times instead one step applied once on a dense generator, as
a pull-back across one gap is: forming the propagator and applying it
(`expm` and one matrix-vector product) against the action of the exponential
(`integrate_ode`, which calls `expm_multiply`, on the generator and on its
transpose), on the dense levels of qubits, oscillators and the dimer at
orders 16 to 256.  The order it suggests for
`propagation._SINGLE_USE_ORDER` is the largest order up to which the median
propagator/action time ratio stays at or below 1; above it a step applied
once is taken as an action.  The result goes under the key "single_use" of
`--out`, next to what else that file holds.
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
from lindcorr import _held, generators, propagation  # noqa: E402

ORDERS = (144, 196, 256, 324, 400, 625, 900, 1296)
TAUS = np.linspace(0.0, 10.0, 41)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)
DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def calls_at(order: int, rng: np.random.Generator) -> list[tuple[str, object]]:
    """(name, zero-argument call) pairs whose slot tensor has `order` coordinates."""
    out = []
    d = round(order ** 0.5)
    if d * d == order:
        model = lc.truncated_oscillator(dim=d, **OSCILLATOR)
        decs = lc.decompose_model(model)
        a = lc.annihilation(d)
        rho = _density(rng, d)
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
            w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = _density(rng, d)
            out.append((f"otoc:{label}", lambda m=model, dc=decs, w=w, v=v, r=rho: lc.otoc(
                m.hamiltonian, dc, w, v, r, TAUS)))
    return out


def timed(call, warm: bool, repeats: int) -> tuple[float, np.ndarray]:
    """Median seconds of `repeats` calls, and the values of the last one."""
    times = []
    for _ in range(repeats):
        _held.drop_all()
        if warm:
            call()
        start = time.perf_counter()
        values = call().values
        times.append(time.perf_counter() - start)
    _held.drop_all()
    return statistics.median(times), np.asarray(values)


def measure(repeats: int) -> dict:
    rng = np.random.default_rng(5)
    rows = []
    saved = generators.DEFAULT_SLOT_BUDGET
    try:
        for order in ORDERS:
            for name, call in calls_at(order, rng):
                row = {"order": order, "call": name}
                values = {}
                for engine, budget in (("dense", order), ("sparse", order - 1)):
                    generators.DEFAULT_SLOT_BUDGET = budget
                    row[f"{engine}_cold_s"], values[engine] = timed(call, False, repeats)
                    row[f"{engine}_warm_s"], _ = timed(call, True, repeats)
                scale = float(np.max(np.abs(values["dense"])))
                row["rel_deviation"] = float(np.max(np.abs(values["dense"] - values["sparse"]))) / scale
                rows.append(row)
                print(f"{order:5d} {name:34s} cold dense {row['dense_cold_s']:.4f} s "
                      f"sparse {row['sparse_cold_s']:.4f} s | warm dense "
                      f"{row['dense_warm_s']:.4f} s sparse {row['sparse_warm_s']:.4f} s | "
                      f"deviation {row['rel_deviation']:.1e}", flush=True)
    finally:
        generators.DEFAULT_SLOT_BUDGET = saved

    by_order = {}
    for order in ORDERS:
        mine = [r for r in rows if r["order"] == order]
        by_order[str(order)] = {
            f"{when}_ratio_median": statistics.median(
                r[f"dense_{when}_s"] / r[f"sparse_{when}_s"] for r in mine)
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
        "env": _env(),
        "grid": "linspace(0, 10, 41)",
        "repeats": repeats,
        "rows": rows,
        "by_order": by_order,
        "suggested_slot_budget": suggested,
        "slot_budget": saved,
    }


# (model, slots) of each dense level timed by --single-use, by order
SINGLE_USE_LEVELS = {
    16: [("two_level_atom", 2), ("oscillator:d=4", 1)],
    25: [("oscillator:d=5", 1)],
    36: [("oscillator:d=6", 1)],
    49: [("oscillator:d=7", 1)],
    64: [("two_level_atom", 3), ("oscillator:d=8", 1)],
    81: [("oscillator:d=3", 2), ("oscillator:d=9", 1)],
    100: [("oscillator:d=10", 1)],
    144: [("oscillator:d=12", 1)],
    196: [("oscillator:d=14", 1)],
    256: [("coupled_dimer", 2), ("oscillator:d=16", 1)],
}


def _level_model(name: str):
    if name == "two_level_atom":
        return lc.two_level_atom(1.0, 0.1, 0.5)
    if name == "coupled_dimer":
        return lc.coupled_dimer(**DIMER)
    return lc.truncated_oscillator(dim=int(name.split("=")[1]), **OSCILLATOR)


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_single_use(repeats: int) -> dict:
    """One step exp(gap G) v applied once: propagator and product against the action."""
    rng = np.random.default_rng(10)
    gap = 0.7
    rows = []
    for order, levels in SINGLE_USE_LEVELS.items():
        for name, slots in levels:
            model = _level_model(name)
            decs = lc.decompose_model(model)
            gen = lc.multi_slot_generator(model.hamiltonian, decs, slots).matrix
            assert len(gen) == order
            v = rng.standard_normal(order) + 1j * rng.standard_normal(order)
            prop_s = _median_s(lambda: lc.expm(gen, gap) @ v, repeats)
            action_s = _median_s(lambda: propagation.integrate_ode(gen, v, [0.0, gap]), repeats)
            adjoint_s = _median_s(lambda: propagation.integrate_ode(gen.T, v, [0.0, gap]), repeats)
            exact = lc.expm(gen, gap) @ v
            action = propagation.integrate_ode(gen, v, [0.0, gap])[-1]
            rows.append({"order": order, "level": f"{name}:n={slots}", "propagator_s": prop_s,
                         "action_s": action_s, "adjoint_action_s": adjoint_s,
                         "propagator_over_action": prop_s / action_s,
                         "rel_deviation": float(np.max(np.abs(action - exact))
                                                / np.max(np.abs(exact)))})
            print(f"{order:4d} {name}:n={slots:<3d} expm + product {prop_s * 1e3:8.3f} ms | action "
                  f"{action_s * 1e3:7.3f} ms (transposed {adjoint_s * 1e3:7.3f} ms) | deviation "
                  f"{rows[-1]['rel_deviation']:.1e}", flush=True)
    by_order = {str(order): statistics.median(r["propagator_over_action"] for r in rows
                                              if r["order"] == order)
                for order in SINGLE_USE_LEVELS}
    suggested = 0
    for order in SINGLE_USE_LEVELS:
        if by_order[str(order)] > 1.0:
            break
        suggested = order
    return {
        "script": "bench/crossover.py --single-use",
        "env": _env(),
        "gap": gap,
        "repeats": repeats,
        "rows": rows,
        "propagator_over_action_median": by_order,
        "suggested_single_use_order": suggested,
        "single_use_order": propagation._SINGLE_USE_ORDER,
    }


def _env() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--single-use", action="store_true")
    args = parser.parse_args(argv)
    if args.single_use:
        out = Path(args.out or ROOT / "BENCH_10.json")
        result = measure_single_use(args.repeats or 7)
        record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        record["single_use"] = result
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"suggested single-use order {result['suggested_single_use_order']} "
              f"(set: {result['single_use_order']}); written to {out}")
        return 0
    args.out = args.out or str(ROOT / "BENCH_5.json")
    result = measure(args.repeats or 5)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"suggested DEFAULT_SLOT_BUDGET {result['suggested_slot_budget']} "
          f"(set: {result['slot_budget']}); written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
