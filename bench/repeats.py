"""Repeated calls on the held engine, and the engine tolerance.

    python3 bench/repeats.py --out PATH [--label change] [--repeats 3]
    python3 bench/repeats.py --engines --out PATH [--label change] [--repeats 3]
    python3 bench/repeats.py --step-peak --out PATH [--label change]
    python3 bench/repeats.py --cli-stages --out PATH [--label change] [--seed 0]

Run it from the root of a checkout: it imports lindcorr from that checkout's
`src`, so running the same file in two checkouts compares them.  With BLAS
and OpenMP threads fixed at 1 it makes three calls in a row of each workload
below on one held engine and records, per call, the median time over
`--repeats` sequences (each from no held entry), the bytes held after the
call (`_held.counts["bytes"]`) and whether the call returned the bytes
of the first call:

* the dimer OTOC W = XI, V = ZZ against the steady state on the 400-point
  grid geomspace(1e-3, 20), whose steps are all distinct (2-slot level of
  order 256, within the slot budget, 70 coordinates touched);
* a single-value `general_correlator` on the dimer with insertions at 2.0,
  1.2 and 0.4, whose fixed gap 0.8 is pulled back once on the 2-slot level;
* the OTOC W = V = x of a 9-level oscillator against its steady state on the
  25-point grid geomspace(1e-3, 20) (2-slot level of order 6561, above the
  budget).

It then measures how far the two ways of taking one step exp(gap G) v
differ: the in-house action by `integrate_ode` (Al-Mohy and Higham's interval
algorithm) against the product with the propagator `expm(G, gap)`, on random
models (`random_model`: random Hermitian H and coupling under the exact
decomposition, a thermal bath with random temperature, rate and gamma0, and
a random gap in [0.05, 5]).  The generators are a 2-slot level as a dense
array (d = 3, 4), the restricted block G[S, S] of a 2-slot level in the
energy eigenbasis (d = 3 to 5, half the blocks) and a 2-slot level as CSR
(d = 4, 5).  The deviation is the largest entry of the difference over the
largest entry of the propagator product.  The rows go under `--label` in
the key "calls" of `--out`.

With `--engines` it records instead what several models leave held between
calls.  First a scan: the dimer OTOC W = XI, V = ZZ on the grid
linspace(0, 20, 41) against the steady state, at each of `--scan-points`
bath temperatures from 0.2 to 2.0, each a new model; after each call it
records the bytes held (`_held.counts["bytes"]`; beyond the last call's own
entries they are idle, bounded by `_held.IDLE_BYTE_CAP`) and the process's
ru_maxrss.  (It also counted the `_SlotEvolver` objects alive until no
engine outlived its call; BENCH_14.json holds the last counts.)  Then
`--rounds` passes of three interleaved sequences, each pass from no held
entry over `--repeats` sequences, with the median time of every call: the
damped and the rate-free dimer OTOC of the otoc-map workload; the five
`corr` configs of perfbench's general-sweep workload (seed `--seed`) run
through `lindcorr.cli.run`; and, as in the wide-slots workload, the steady
state and then the 2-slot OTOC W = x, V = n on linspace(0, 10, 41) of the 6-
and the 9-level oscillator, two calls on each model's two levels.  The first
pass is cold; a later call is warm when what it uses is still held.  Each
call's values are checked to be the bytes of its first pass.  The first of
the `--repeats` runs also records after every call the bytes held and, from
`_held.counts`, the hits, misses and evictions of the call's lookups
of held entries and, where they are counted, the actions' matrix-vector
products and 1-norm estimates; the products and estimates of each round are
printed.  The record goes under `--label` in the key "engines" of `--out`.

With `--step-peak` it measures the memory of an action on a large level: a
sweep of a random tensor against a random dual vector, both nonzero on every
block, on the 3-slot level of the 9-level oscillator (order 531441, one
action of the whole level) over the grid 0, 0.5, 1, made twice on the held
engine.  The level's CSR generator and block labels are assembled before
tracemalloc starts, so each sweep's peak of traced bytes is what the step
adds to what the engine held before it; the record gives it, the
generator's CSR bytes, the bytes held before the sweep, the peak in all
(held before plus traced) over the CSR bytes, and ru_maxrss, under `--label`
in the key "step_peak" of `--out`.

With `--cli-stages` it times the stages of `lindcorr.cli.run` on the five
`corr` configs of perfbench's general-sweep workload (seed `--seed`), warm:
after one cold pass from no held entry, `CLI_PASSES` passes, each config
once per pass.  Each stage is the self time of the CLI functions it names, found
by wrapping them in the `lindcorr.cli` namespace (a wrapped call's time is
taken out of the stage of the wrapped call it runs in): `read` (`json.load`
of the config), `model` (`_parse_model`), `decomposition`
(`_parse_decompositions`), `parse` (`_parse_operator`, `_parse_state`,
`_parse_grid` and the `CorrelatorSpec` they feed), `engine`
(`general_correlator`), `format` (`_trace_csv`), `write` (`_atomic_write`),
and `other`, the rest of `run`.  The record gives the median of each stage
per config and per pass, the median time of a pass with and without the
wrappers, and per warm pass the calls of `exact_bohr_decomposition` and of
`hermitian_eig` in the decomposition module and the held-store lookups,
under `--label` in the key "cli_stages" of `--out`.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# first, so the threads are fixed and lindcorr is this checkout's
from _common import (DIMER, ROOT, density, env, gaussian, pauli, random_model, traced_peak,
                     write_record)

import numpy as np

import lindcorr as lc
from lindcorr import _held, propagation

CALLS = 3


def workloads(rng: np.random.Generator) -> dict:
    """Name -> a call returning its values as an array."""
    dimer = lc.coupled_dimer(**DIMER)
    decs = lc.decompose_model(dimer)
    rho = lc.steady_state(dimer, decs)
    grid = np.geomspace(1e-3, 20.0, 400)

    def dimer_otoc():
        return lc.otoc(dimer.hamiltonian, decs, pauli("XI"), pauli("ZZ"), rho, grid).values

    ops = [gaussian(rng, 4) for _ in range(3)]
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


def _mib(b: int) -> str:
    return f"{b / 2**20:.1f}"


def measure_calls(name, call, repeats: int) -> dict:
    times = [[] for _ in range(CALLS)]
    held, same = [], []
    for _sequence in range(repeats):
        _held.drop_all()
        first = None
        for k in range(CALLS):
            start = time.perf_counter()
            values = call()
            times[k].append(time.perf_counter() - start)
            first = values if first is None else first
            if _sequence == 0:
                held.append(_held.counts["bytes"])
                same.append(bool(np.array_equal(values, first)))
    _held.drop_all()
    row = {"workload": name, "calls": [
        {"call": k + 1, "time_s": statistics.median(times[k]), "held_bytes": held[k],
         "same_bytes_as_first_call": same[k]} for k in range(CALLS)]}
    print(name + " | " + " | ".join(
        f"call {c['call']} {c['time_s']:.4f} s, held {_mib(c['held_bytes'])}"
        f" MiB, same {c['same_bytes_as_first_call']}" for c in row["calls"]), flush=True)
    return row


def otoc_pair(rng: np.random.Generator) -> list:
    """(name, call, values) of the damped and the rate-free dimer OTOC, as in otoc-map."""
    grid = np.linspace(0.0, 20.0, 41)
    out = []
    for name, params in (("damped", DIMER), ("rate-free", {**DIMER, "gamma1": 0.0, "gamma2": 0.0})):
        model = lc.coupled_dimer(**params)
        decs = lc.decompose_model(model)
        if name == "damped":
            rho = lc.steady_state(model, decs)
        else:
            rho = density(rng, 4)
        out.append((f"otoc:{name}_dimer:XI,ZZ", lambda h=model.hamiltonian, dc=decs, r=rho: lc.otoc(
            h, dc, pauli("XI"), pauli("ZZ"), r, grid), lambda trace: np.asarray(trace.values)))
    return out


def general_sweep_configs(seed: int, workdir: Path) -> list:
    """(name, call, values) of the five `corr` configs of perfbench's general-sweep."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as perfbench_workloads  # perfbench/workloads.py of this checkout

    return [(c.name, c.run, c.values)
            for c in perfbench_workloads.build("general-sweep", seed, "full", workdir)]


def oscillator_levels() -> list:
    """(name, call, values) of the steady state and then the OTOC W = x, V = n of the
    6- and the 9-level oscillator of perfbench's wide-slots workload."""
    grid = np.linspace(0.0, 10.0, 41)
    out = []
    for dim in (6, 9):
        model = lc.truncated_oscillator(omega0=1.0, dim=dim, gamma=0.1, temperature=0.5)
        decs = lc.decompose_model(model)
        a = lc.annihilation(dim)
        x, n = a + a.conj().T, a.conj().T @ a
        rho = lc.steady_state(model, decs)
        out.append((f"steady_state:oscillator:d={dim}",
                    lambda m=model, dc=decs: lc.steady_state(m, dc), np.asarray))
        out.append((f"otoc:oscillator:d={dim}:x,n",
                    lambda m=model, dc=decs, r=rho, x=x, n=n: lc.otoc(m.hamiltonian, dc, x, n, r, grid),
                    lambda trace: np.asarray(trace.values)))
    return out


def interleaved(name: str, calls: list, rounds: int, repeats: int) -> dict:
    """Median time of each call of `rounds` passes over `calls`, over `repeats`
    sequences that each start with no engine held: a model's first call is
    cold, a later one finds its engine warm if it is still held."""
    times = [[[] for _ in calls] for _ in range(rounds)]
    held = [[None for _ in calls] for _ in range(rounds)]
    lookups = [[None for _ in calls] for _ in range(rounds)]
    first, same = {}, True
    for sequence in range(repeats):
        _held.drop_all()
        for r in range(rounds):
            for k, (_label, call, values) in enumerate(calls):
                before = dict(_held.counts)
                start = time.perf_counter()
                out = call()
                times[r][k].append(time.perf_counter() - start)
                if sequence == 0:
                    held[r][k] = _held.counts["bytes"]
                    after = _held.counts
                    lookups[r][k] = {key: after[key] - before[key] for key in (
                        "hits", "misses", "evictions", "matvecs", "norm_estimates") if key in after}
                got = values(out)
                same &= bool(np.array_equal(got, first.setdefault(k, got)))
    _held.drop_all()
    passes = [[statistics.median(t) for t in row] for row in times]
    result = {"sequence": name, "calls": [label for label, _c, _v in calls], "rounds": rounds,
              "call_s_by_round": passes, "pass_s_by_round": [sum(row) for row in passes],
              "held_bytes_by_round": held, "lookups_by_round": lookups,
              "same_bytes_every_round": same}
    print(f"{name}: pass " + " | ".join(f"round {r + 1} {t:.4f} s" for r, t in
                                       enumerate(result["pass_s_by_round"]))
          + f" | same bytes {same}", flush=True)
    if "matvecs" in lookups[0][0]:
        print("  action work: " + " | ".join(
            f"round {r + 1} {sum(c['matvecs'] for c in row)} matvecs, "
            f"{sum(c['norm_estimates'] for c in row)} norm estimates"
            for r, row in enumerate(lookups)), flush=True)
    return result


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def temperature_scan(points: int) -> dict:
    """A damped-dimer OTOC at each of `points` bath temperatures, each a new model:
    per call its time and the bytes held after it, and ru_maxrss."""
    grid = np.linspace(0.0, 20.0, 41)
    start_rss = _maxrss_mib()
    _held.drop_all()
    rows = []
    for temperature in np.linspace(0.2, 2.0, points):
        model = lc.coupled_dimer(**{**DIMER, "temperature": float(temperature)})
        start = time.perf_counter()
        decs = lc.decompose_model(model)
        rho = lc.steady_state(model, decs)
        lc.otoc(model.hamiltonian, decs, pauli("XI"), pauli("ZZ"), rho, grid)
        elapsed = time.perf_counter() - start
        rows.append({"temperature": float(temperature), "time_s": elapsed,
                     "held_bytes": _held.counts["bytes"], "maxrss_mib": _maxrss_mib()})
    _held.drop_all()
    cap = _held.IDLE_BYTE_CAP
    summary = {
        "points": points, "idle_byte_cap": cap,
        "max_held_bytes": max(r["held_bytes"] for r in rows),
        "maxrss_before_mib": start_rss, "maxrss_after_mib": rows[-1]["maxrss_mib"],
        "median_call_s": statistics.median(r["time_s"] for r in rows),
    }
    print(f"temperature scan, {points} models: held at most {_mib(summary['max_held_bytes'])} MiB "
          f"(idle cap {_mib(cap)}), maxrss {start_rss:.1f} -> {summary['maxrss_after_mib']:.1f} MiB",
          flush=True)
    return {"summary": summary, "rows": rows}


def engines(args) -> dict:
    """The engine-map record: the scan (first, so ru_maxrss reads its rise) and the
    interleaved sequences."""
    scan = temperature_scan(args.scan_points)
    rng = np.random.default_rng(13)
    with tempfile.TemporaryDirectory() as workdir:
        sequences = [interleaved("otoc-pair:damped,rate-free_dimer", otoc_pair(rng),
                                 args.rounds, args.repeats),
                     interleaved(f"general-sweep:seed={args.seed}",
                                 general_sweep_configs(args.seed, Path(workdir)),
                                 args.rounds, args.repeats),
                     interleaved("same-model:steady_state,otoc_oscillator_d6,d9",
                                 oscillator_levels(), args.rounds, args.repeats)]
    return {"script": "bench/repeats.py --engines", "env": env(), "repeats": args.repeats,
            "sequences": sequences, "temperature_scan": scan}


def step_peak() -> dict:
    """Traced peak bytes of two sweeps on the whole 3-slot level of the 9-level
    oscillator, over the CSR bytes of the level's held generator."""
    model = lc.truncated_oscillator(omega0=1.0, dim=9, gamma=0.1, temperature=0.5)
    decs = lc.decompose_model(model)
    rng = np.random.default_rng(16)
    tensor, w = (rng.standard_normal(9 ** 6) + 1j * rng.standard_normal(9 ** 6) for _ in range(2))
    _held.drop_all()
    start = time.perf_counter()
    with propagation._model_evolver(model.hamiltonian, decs) as ev:
        csr = _held.nbytes(ev.generator(3))
        ev.labels(3)
    assembly_s = time.perf_counter() - start
    calls = []

    def sweep() -> float:
        start = time.perf_counter()
        with propagation._model_evolver(model.hamiltonian, decs) as ev:
            ev.sweep(tensor, 3, np.array([0.0, 0.5, 1.0]), w)
        return time.perf_counter() - start

    for call in (1, 2):
        before = _held.counts["bytes"]
        peak, elapsed = traced_peak(sweep)
        calls.append({"call": call, "time_s": elapsed, "held_bytes_before": before,
                      "step_peak_bytes": peak, "step_peak_over_csr": peak / csr,
                      "peak_in_all_over_csr": (before + peak) / csr,
                      "held_bytes_after": _held.counts["bytes"]})
        print(f"step peak, call {call}: {peak / 2**20:.1f} MiB above the {before / 2**20:.1f} MiB "
              f"held, {(before + peak) / csr:.2f} times the {csr / 2**20:.1f} MiB CSR generator "
              f"in all, {elapsed:.2f} s", flush=True)
    _held.drop_all()
    return {"script": "bench/repeats.py --step-peak", "env": env(), "csr_bytes": csr,
            "assembly_s": assembly_s, "calls": calls, "maxrss_mib": _maxrss_mib()}


CLI_PASSES = 200  # warm passes of --cli-stages
CLI_STAGES = {"read": ("json.load",), "model": ("_parse_model",),
              "decomposition": ("_parse_decompositions",),
              "parse": ("_parse_operator", "_parse_state", "_parse_grid", "CorrelatorSpec"),
              "engine": ("general_correlator",), "format": ("_trace_csv",),
              "write": ("_atomic_write",)}


class StageClock:
    """Self time per stage of wrapped functions, and call counts of counted ones."""

    def __init__(self):
        self.times = dict.fromkeys([*CLI_STAGES, "other"], 0.0)
        self.calls: dict[str, int] = {}
        self._inner: list[float] = []  # time of wrapped calls inside each open one

    def timed(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.times[stage] += elapsed - self._inner.pop()
                if self._inner:
                    self._inner[-1] += elapsed
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def reset(self) -> None:
        self.times = dict.fromkeys(self.times, 0.0)
        self.calls = {}


def cli_stages(args) -> dict:
    """Stage times of the warm general-sweep configs through `lindcorr.cli.run`."""
    import types

    from lindcorr import cli, decomposition

    clock = StageClock()
    originals = []

    def patch(owner, name, wrapper):
        originals.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    with tempfile.TemporaryDirectory() as workdir:
        configs = general_sweep_configs(args.seed, Path(workdir))
        plain = []
        _held.drop_all()
        for _name, call, _values in configs:  # the cold pass
            call()
        for _pass in range(CLI_PASSES):
            start = time.perf_counter()
            for _name, call, _values in configs:
                call()
            plain.append(time.perf_counter() - start)

        json_module = cli.json
        patch(cli, "json", types.SimpleNamespace(
            load=clock.timed("read", json_module.load), dumps=json_module.dumps,
            JSONDecodeError=json_module.JSONDecodeError))
        for stage, names in CLI_STAGES.items():
            for name in names:
                if name != "json.load":
                    patch(cli, name, clock.timed(stage, getattr(cli, name)))
        for name in ("exact_bohr_decomposition", "hermitian_eig"):
            patch(decomposition, name, clock.counted(name, getattr(decomposition, name)))
        try:
            per_config = {name: {stage: [] for stage in clock.times} for name, _c, _v in configs}
            traced, calls, lookups = [], [], []
            for _pass in range(CLI_PASSES):
                before = dict(_held.counts)
                clock.reset()
                start = time.perf_counter()
                for name, call, values in configs:
                    stage_before = dict(clock.times)
                    call_start = time.perf_counter()
                    if call() != 0:
                        raise RuntimeError(f"{name}: lindcorr.cli.run failed")
                    call_s = time.perf_counter() - call_start
                    spent = {stage: clock.times[stage] - stage_before[stage] for stage in clock.times}
                    spent["other"] = call_s - sum(spent.values())
                    for stage, t in spent.items():
                        per_config[name][stage].append(t)
                traced.append(time.perf_counter() - start)
                calls.append(dict(clock.calls))
                lookups.append({key: _held.counts[key] - before[key]
                                for key in ("hits", "misses", "evictions")})
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)
        _held.drop_all()

    stages = {name: {stage: statistics.median(t) for stage, t in times.items()}
              for name, times in per_config.items()}
    pass_stages = {stage: sum(stages[name][stage] for name in stages) for stage in clock.times}
    total = sum(pass_stages.values())
    counts = {name: max(c.get(name, 0) for c in calls)
              for name in ("exact_bohr_decomposition", "hermitian_eig")}
    print(f"general-sweep seed {args.seed}, {CLI_PASSES} warm passes: pass "
          f"{statistics.median(plain) * 1e3:.2f} ms plain, {statistics.median(traced) * 1e3:.2f} ms "
          f"with the stage wrappers", flush=True)
    print("  " + " | ".join(f"{stage} {t * 1e3:.3f} ms ({t / total:.1%})"
                            for stage, t in pass_stages.items()), flush=True)
    print(f"  per warm pass at most: {counts['exact_bohr_decomposition']} exact_bohr_decomposition, "
          f"{counts['hermitian_eig']} hermitian_eig calls; lookups {lookups[-1]}", flush=True)
    return {"script": "bench/repeats.py --cli-stages", "env": env(), "seed": args.seed,
            "passes": CLI_PASSES, "pass_s_plain": statistics.median(plain),
            "pass_s_plain_quartiles": statistics.quantiles(plain, n=4)[::2],
            "pass_s_with_wrappers": statistics.median(traced),
            "stage_s_per_pass": pass_stages, "stage_s_by_config": stages,
            "warm_pass_calls_max": counts, "warm_pass_lookups_last": lookups[-1]}


def _random_bath(rng: np.random.Generator) -> lc.BathSpec:
    return lc.BathSpec(temperature=float(rng.uniform(0.0, 2.0)),
                       rate_profile=float(rng.uniform(0.01, 0.5)), gamma0=float(rng.uniform(0.0, 0.2)))


def tolerance(rng: np.random.Generator, models: int) -> dict:
    """Deviation of the action from the propagator product, per kind of generator."""
    rows = []
    for level, dims in (("dense_level", (3, 4)), ("sparse_level_block", (3, 4, 5)),
                       ("csr_level", (4, 5))):
        for _model in range(models):
            d, gap = int(rng.choice(dims)), float(rng.uniform(0.05, 5.0))
            h, decs = random_model(rng, d, _random_bath, eigenbasis=level == "sparse_level_block")
            gen = lc.multi_slot_action(h, decs, 2).to_csr()
            if level == "sparse_level_block":
                labels = propagation._block_labels(gen)
                blocks = np.unique(labels)
                picked = rng.permutation(blocks)[: max(1, len(blocks) // 2)]
                coords = np.flatnonzero(np.isin(labels, picked))
                gen = gen[coords][:, coords]
            dense = gen.toarray()
            v = rng.standard_normal(len(dense)) + 1j * rng.standard_normal(len(dense))
            acted = propagation.integrate_ode(dense if level == "dense_level" else gen, v, [0.0, gap])[-1]
            product = lc.expm(dense, gap) @ v
            rows.append({"kind": level, "dim": d, "order": len(dense), "gap": gap,
                         "rel_deviation": float(np.max(np.abs(acted - product))
                                                / np.max(np.abs(product)))})
    by_kind = {}
    for row in rows:
        by_kind.setdefault(row["kind"], []).append(row["rel_deviation"])
    summary = {level: {"max": max(devs), "median": statistics.median(devs), "models": len(devs)}
               for level, devs in by_kind.items()}
    for level, stats in summary.items():
        print(f"tolerance {level:20s} max {stats['max']:.1e} median {stats['median']:.1e} "
              f"over {stats['models']} models", flush=True)
    return {"rows": rows, "by_kind": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="change")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--models", type=int, default=20, help="random models per generator kind")
    parser.add_argument("--engines", action="store_true",
                        help="record the interleaved sequences and the temperature scan instead")
    parser.add_argument("--step-peak", action="store_true",
                        help="record the traced peak of an action on a large level instead")
    parser.add_argument("--cli-stages", action="store_true",
                        help="record the stage times of the warm general-sweep configs instead")
    parser.add_argument("--rounds", type=int, default=3, help="passes per interleaved sequence")
    parser.add_argument("--seed", type=int, default=13, help="seed of the general-sweep configs")
    parser.add_argument("--scan-points", type=int, default=200)
    args = parser.parse_args(argv)
    if args.cli_stages:
        key, result = "cli_stages", cli_stages(args)
    elif args.step_peak:
        key, result = "step_peak", step_peak()
    elif args.engines:
        key, result = "engines", engines(args)
    else:
        rng = np.random.default_rng(11)
        rows = [measure_calls(name, call, args.repeats) for name, call in workloads(rng).items()]
        key, result = "calls", {"script": "bench/repeats.py", "env": env(), "repeats": args.repeats,
                                "calls": rows, "tolerance": tolerance(rng, args.models)}
    write_record(args.out, (key, args.label), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
