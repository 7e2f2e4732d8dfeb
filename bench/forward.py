"""Forward dynamics on the engine, and the condition product behind `_LU_MARGIN`.

    python3 bench/forward.py --out PATH [--repeats 3]

Run it from the root of a checkout.  For a `truncated_oscillator` of dimension
d = 6, 9, 12, 17, 20, 30 and 40 (one-slot order d**2; `steady_state` takes
the bordered LU on levels above `lindcorr.generators.DEFAULT_SLOT_BUDGET` =
256, i.e. d >= 17) it times, with BLAS and OpenMP threads fixed at 1:

* the steady state by the bordered sparse LU of the one-slot generator G_1
  (`propagation._bordered_null_vector`, at every d), and by `steady_state`
  itself (SVD of the dense G_1 up to d = 16, the bordered LU above);
* `evolve_density` to t = 5, the engine's pull-back.

A cold call starts from no held entry; a warm call is the second of two, on
what the first left held.  Each time is the median of `--repeats` calls.
Peak memory is the tracemalloc peak of one more call, so it counts NumPy and
SciPy arrays but not SuperLU's own factor storage.  The record also gives,
per d, kappa * s[-2] / s[0] (kappa the 1-norm condition estimate of the
bordered system, s the singular values of G_1), and the range of that
product over four near-degenerate families at 28 rates in
geomspace(1e-3, 1e-12): the number behind `steady_state`'s fallback margin
`propagation._LU_MARGIN`.  The result goes under the key "forward" of
`--out`.  (Until the engine ran the forward dynamics, this script also timed
the dense SVD and `expm` of `forward_lindbladian` that `steady_state` and
`evolve_density` then were; BENCH_6.json holds those numbers.)
"""

from __future__ import annotations

import argparse
import sys

# first, so the threads are fixed and lindcorr is this checkout's
from _common import OSCILLATOR, density, env, median_s, traced_peak, write_record

import numpy as np

import lindcorr as lc
from lindcorr import _held, generators, propagation

DIMS = (6, 9, 12, 17, 20, 30, 40)
T_EVOLVE = 5.0
FAMILIES = {
    "qubit": lambda r: lc.two_level_atom(1.0, r, 0.5),
    "coupled_dimer": lambda r: lc.coupled_dimer(omega1=1.0, omega2=1.25, g=0.3, gamma1=r,
                                                gamma2=0.6 * r, temperature=0.6),
    "oscillator:d=8": lambda r: lc.truncated_oscillator(dim=8, omega0=1.0, gamma=r,
                                                        temperature=0.5),
    "oscillator:d=20": lambda r: lc.truncated_oscillator(dim=20, omega0=1.0, gamma=r,
                                                         temperature=0.5),
}


def lu_steady_state(model, decs):
    """Bordered LU on the held engine's CSR G_1, at every level order."""
    with propagation._model_evolver(model.hamiltonian, decs) as ev:
        return propagation._bordered_null_vector(ev.generator(1))


def timed(call, warm: bool, repeats: int) -> dict:
    """Median seconds of `repeats` calls, each from no held entry (and after one
    untimed call when `warm`), and the tracemalloc peak of one more."""
    def setup():
        _held.drop_all()
        if warm:
            call()

    seconds, _ = median_s(call, repeats, setup)
    setup()
    peak, _ = traced_peak(call)
    _held.drop_all()
    return {"s": seconds, "peak_mb": peak / 2 ** 20}


def condition_product(model) -> tuple[float, float, float]:
    """(kappa, s[-2] / s[0], their product) of the model's one-slot generator."""
    decs = lc.decompose_model(model)
    g = generators.multi_slot_action(model.hamiltonian, decs, 1).to_csr()
    _w, kappa = propagation._bordered_null_vector(g)
    s = np.linalg.svd(g.toarray(), compute_uv=False)
    return kappa, s[-2] / s[0], kappa * s[-2] / s[0]


def measure_forward(repeats: int) -> dict:
    rng = np.random.default_rng(6)
    rows = []
    for d in DIMS:
        model = lc.truncated_oscillator(dim=d, **OSCILLATOR)
        decs = lc.decompose_model(model)
        rho0 = density(rng, d)
        row = {"dim": d, "order": d * d, "within_budget": generators._within_budget(d * d)}
        for kind, warm in (("cold", False), ("warm", True)):
            row[f"lu_{kind}"] = timed(lambda: lu_steady_state(model, decs), warm, repeats)
            row[f"steady_state_{kind}"] = timed(lambda: lc.steady_state(model, decs), warm, repeats)
            row[f"evolve_{kind}"] = timed(
                lambda: lc.evolve_density(model.hamiltonian, decs, rho0, T_EVOLVE), warm, repeats)
        row["kappa"], row["s2_over_s0"], row["kappa_s2_over_s0"] = condition_product(model)
        rows.append(row)
        print(f"d={d:2d} steady: lu cold {row['lu_cold']['s']:.4f} warm {row['lu_warm']['s']:.4f} s, "
              f"steady_state cold {row['steady_state_cold']['s']:.4f} warm "
              f"{row['steady_state_warm']['s']:.4f} s, kappa*s2/s0 {row['kappa_s2_over_s0']:.2f} | "
              f"evolve: cold {row['evolve_cold']['s']:.4f} warm {row['evolve_warm']['s']:.4f} s",
              flush=True)

    families = {}
    for name, make in FAMILIES.items():
        products = [condition_product(make(r))[2] for r in np.geomspace(1e-3, 1e-12, 28)]
        families[name] = {"min": min(products), "max": max(products)}
        print(f"{name:16s} kappa*s2/s0 in [{min(products):.2f}, {max(products):.2f}]", flush=True)
    return {
        "script": "bench/forward.py",
        "env": env(),
        "model": {"truncated_oscillator": OSCILLATOR},
        "evolve_time": T_EVOLVE,
        "repeats": repeats,
        "slot_budget": generators.DEFAULT_SLOT_BUDGET,
        "lu_margin": propagation._LU_MARGIN,
        "rows": rows,
        "near_degenerate_kappa_s2_over_s0": families,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    write_record(args.out, ("forward",), measure_forward(args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
