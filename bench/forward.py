"""Forward dynamics on the engine against the dense forward-generator path it replaced.

    python3 bench/forward.py [--out BENCH_6.json] [--repeats 3]

Run it from the root of a checkout.  For a `truncated_oscillator` of dimension
d = 6, 9, 12, 17, 20, 30 and 40 (one-slot order d**2; `steady_state` takes
the bordered LU on levels above `lindcorr.generators.DEFAULT_SLOT_BUDGET` =
256, i.e. d >= 17) it times, with BLAS and OpenMP threads fixed at 1:

* the steady state by the dense SVD of `forward_lindbladian` (the former
  `steady_state`), by the bordered sparse LU of the one-slot generator G_1
  (`propagation._bordered_null_vector`, at every d), and by `steady_state`
  itself (SVD of the dense G_1 up to d = 16, the bordered LU above);
* `evolve_density` to t = 5 by a dense `expm` of the forward generator (the
  former `evolve_density`) and by the engine's pull-back (today's).

A cold call starts from a fresh engine; a warm call is the second of two on
the held engine (the dense path holds nothing, so it is timed once per
repeat).  Each time is the median of `--repeats` calls.  Peak memory is the
tracemalloc peak of one more call, so it counts NumPy and SciPy arrays but not
SuperLU's own factor storage.  The JSON written to `--out` also records, per
d, the deviation of each new result from the old one and kappa * s[-2] / s[0]
(kappa the 1-norm condition estimate of the bordered system, s the singular
values of G_1), and the range of that product over four near-degenerate
families at 28 rates in geomspace(1e-3, 1e-12): the number behind
`steady_state`'s fallback margin.
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
from lindcorr import _held, generators, propagation  # noqa: E402

DIMS = (6, 9, 12, 17, 20, 30, 40)
OSCILLATOR = dict(omega0=1.0, gamma=0.1, temperature=0.5)
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


def svd_steady_state(model, decs):
    """The former steady_state: SVD null vector of the dense forward generator."""
    f = lc.forward_lindbladian(model.hamiltonian, decs).matrix
    _u, _s, vh = np.linalg.svd(f)
    rho = lc.unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def expm_evolution(model, decs, rho0):
    """The former evolve_density: dense expm of the forward generator."""
    f = lc.forward_lindbladian(model.hamiltonian, decs).matrix
    return lc.unvec(lc.expm(f, T_EVOLVE) @ lc.vec(rho0))


def lu_steady_state(model, decs):
    """Bordered LU on the held engine's CSR G_1, at every level order."""
    with propagation._model_evolver(model.hamiltonian, decs) as ev:
        w, _kappa = propagation._bordered_null_vector(ev.generator(1))
    return lc.unvec(w).T


def timed(call, warm: bool, repeats: int):
    """Median seconds of `repeats` calls, the tracemalloc peak of one more, and its result."""
    times = []
    for _ in range(repeats):
        _held.drop_all()
        if warm:
            call()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    _held.drop_all()
    if warm:
        call()
    tracemalloc.start()
    result = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _held.drop_all()
    return {"s": statistics.median(times), "peak_mb": peak / 2 ** 20}, result


def condition_product(model) -> tuple[float, float, float]:
    """(kappa, s[-2] / s[0], their product) of the model's one-slot generator."""
    decs = lc.decompose_model(model)
    g = generators.multi_slot_action(model.hamiltonian, decs, 1).to_csr()
    _w, kappa = propagation._bordered_null_vector(g)
    s = np.linalg.svd(g.toarray(), compute_uv=False)
    return kappa, s[-2] / s[0], kappa * s[-2] / s[0]


def measure(repeats: int) -> dict:
    rng = np.random.default_rng(6)
    rows = []
    for d in DIMS:
        model = lc.truncated_oscillator(dim=d, **OSCILLATOR)
        decs = lc.decompose_model(model)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        engine = "dense" if d * d <= generators.DEFAULT_SLOT_BUDGET else "sparse"
        row = {"dim": d, "order": d * d, "engine": engine}
        row["svd"], rho_svd = timed(lambda: svd_steady_state(model, decs), False, repeats)
        for kind, warm in (("cold", False), ("warm", True)):
            row[f"lu_{kind}"], rho_lu = timed(lambda: lu_steady_state(model, decs), warm, repeats)
            row[f"steady_state_{kind}"], rho_new = timed(lambda: lc.steady_state(model, decs),
                                                         warm, repeats)
        rho_lu = rho_lu / np.trace(rho_lu)
        row["lu_deviation"] = float(np.max(np.abs(rho_lu - rho_svd)))
        row["steady_state_deviation"] = float(np.max(np.abs(rho_new - rho_svd)))
        row["kappa"], row["s2_over_s0"], row["kappa_s2_over_s0"] = condition_product(model)

        row["expm"], rho_old = timed(lambda: expm_evolution(model, decs, rho0), False, repeats)
        for kind, warm in (("cold", False), ("warm", True)):
            row[f"evolve_{kind}"], rho_t = timed(
                lambda: lc.evolve_density(model.hamiltonian, decs, rho0, T_EVOLVE), warm, repeats)
        row["evolve_deviation"] = float(np.max(np.abs(rho_t - rho_old)))
        rows.append(row)
        print(f"d={d:2d} steady: svd {row['svd']['s']:.4f} s, lu cold {row['lu_cold']['s']:.4f} "
              f"warm {row['lu_warm']['s']:.4f} s, steady_state cold "
              f"{row['steady_state_cold']['s']:.4f} warm {row['steady_state_warm']['s']:.4f} s, "
              f"dev {row['steady_state_deviation']:.1e}, kappa*s2/s0 "
              f"{row['kappa_s2_over_s0']:.2f} | evolve: expm {row['expm']['s']:.4f} s, engine "
              f"cold {row['evolve_cold']['s']:.4f} warm {row['evolve_warm']['s']:.4f} s, "
              f"dev {row['evolve_deviation']:.1e}", flush=True)

    families = {}
    for name, make in FAMILIES.items():
        products = [condition_product(make(r))[2] for r in np.geomspace(1e-3, 1e-12, 28)]
        families[name] = {"min": min(products), "max": max(products)}
        print(f"{name:16s} kappa*s2/s0 in [{min(products):.2f}, {max(products):.2f}]", flush=True)
    return {
        "script": "bench/forward.py",
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "machine": platform.machine(),
                "cpus": os.cpu_count(), "blas_threads": 1},
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
    parser.add_argument("--out", default=str(ROOT / "BENCH_6.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    result = measure(args.repeats)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
