"""One run of one workload, in a fresh process.

run.py starts this with BLAS and OpenMP threads fixed at 1 and reads the JSON
object it prints as its last line.  The run imports lindcorr from the
checkout's ``src``, builds the workload's inputs, then makes the workload's
calls in passes until ``--seconds`` is used up, and checks every output after
the timed passes.  With ``--trace 1`` the set-up is traced, once for time and
once more for memory, and the passes cycle through plain, time-traced and
memory-traced; the traced ones give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# an output passes when it is within REL_TOL of every exact or stored value,
# measured against the trace's sup-norm (floored for traces that vanish)
REL_TOL = 1e-6
SUP_FLOOR = 1e-6
PASS_KINDS = ("plain", "time", "memory")


def tail_percentile(samples, q: int = 90, min_beyond: int = 10):
    """(q-th percentile, samples above it), or None unless min_beyond samples lie above it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for s in samples if s > value)
    return (value, beyond) if beyond >= min_beyond else None


def import_lindcorr():
    """Import lindcorr from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lindcorr
    import lindcorr.cli  # noqa: F401  (the tracer patches cli.run)

    if Path(lindcorr.__file__).resolve().parent != src / "lindcorr":
        raise SystemExit(f"lindcorr was imported from {lindcorr.__file__}, not from {src}")


def environment() -> dict:
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    tasks = Path("/proc/self/task")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "os_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
    }


@dataclass
class Pass:
    kind: str  # "plain", or traced for "time" (spans only) or "memory" (spans and tracemalloc)
    wall: float
    latencies: list
    outputs: list  # each call's values, or the exception that made it fail


def call_values(call, out):
    """The values of one call's raw result, or the exception that makes it fail."""
    if isinstance(out, Exception):
        return out
    try:
        return np.asarray(call.values(out), dtype=complex)
    except (OSError, RuntimeError, ValueError) as exc:
        return exc


def timed_passes(calls, seconds: float, tracer) -> list[Pass]:
    """Make every call, pass after pass, while the next pass fits in `seconds`.

    With a tracer the passes cycle through plain, time-traced and
    memory-traced, and there are at least three.  tracemalloc slows numpy's
    allocations severalfold, so self times come from passes without it.
    Each call's values are read as soon as it returns, outside its timing,
    so that every pass keeps its own outputs.
    """
    kinds = PASS_KINDS if tracer is not None else PASS_KINDS[:1]
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        traced = kind != "plain"
        if traced:
            tracer.install(memory=kind == "memory")
        latencies, outputs = [], []
        begin = time.perf_counter()
        for k, call in enumerate(calls):
            if traced:
                tracer.run_id = f"{len(passes)}.{k}"
            t = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a failing call counts in failed_frac; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            latencies.append(time.perf_counter() - t)
            outputs.append(call_values(call, out))
        wall = time.perf_counter() - begin
        if traced:
            tracer.uninstall()
        passes.append(Pass(kind, wall, latencies, outputs))
        mean_wall = statistics.mean(p.wall for p in passes)
        if len(passes) >= len(kinds) and time.perf_counter() - start + mean_wall > seconds:
            return passes


def pass_time(passes: list[Pass]) -> float:
    """Time of one pass, each call's time taken as its median over the passes."""
    return sum(statistics.median(p.latencies[k] for p in passes)
               for k in range(len(passes[0].latencies)))


def output_error(values, expected, tau0) -> tuple[float, str]:
    """Worst deviation of one output from its exact or stored values, per sup-norm."""
    if isinstance(values, Exception):
        return math.inf, f"{type(values).__name__}: {values}"
    if not np.all(np.isfinite(values)):
        return math.inf, "non-finite values"
    worst = (0.0, "finite")
    for label, ref in expected:
        if ref is None:
            return math.inf, f"{label}: no value stored for this call"
        if ref.shape != values.shape:
            return math.inf, f"{label}: {values.shape} values, expected {ref.shape}"
        err = float(np.max(np.abs(values - ref))) / max(float(np.max(np.abs(ref))), SUP_FLOOR)
        worst = max(worst, (err, label))
    if tau0 is not None:
        err = abs(values[0] - tau0) / max(float(np.max(np.abs(values))), SUP_FLOOR)
        worst = max(worst, (err, "exact value at tau=0"))
    return worst


def check_outputs(calls, passes: list[Pass], reference) -> dict:
    """Check every output of every pass; `reference` is None off the default seed."""
    failed = attempted = finite_only = 0
    worst = (0.0, "", "")
    for k, call in enumerate(calls):
        expected = []
        if call.closed is not None:
            expected.append(("closed form", call.closed()))
        elif reference is not None:
            expected.append(("stored reference", reference.get(call.name)))
        tau0 = call.tau0() if call.tau0 is not None else None
        if not expected and tau0 is None:
            finite_only += 1
        for p in passes:
            attempted += 1
            err, what = output_error(p.outputs[k], expected, tau0)
            if not err <= REL_TOL:
                failed += 1
                print(f"check failed: {call.name}: {what} (error {err:.3g})", file=sys.stderr)
            if err > worst[0] or not worst[1]:
                worst = (err, call.name, what)
    return {"attempted": attempted, "failed": failed, "worst_error": worst[0],
            "worst_call": worst[1], "worst_check": worst[2], "finite_only_calls": finite_only}


def write_reference(workloads, workload: str) -> None:
    """Store the default seed's values of every call without a closed form."""
    data = {}
    for size in workloads.SIZES:
        workdir = make_workdir()
        try:
            calls = workloads.build(workload, workloads.DEFAULT_SEED, size, workdir)
            data[size] = {
                c.name: [[float(f"{z.real:.12g}"), float(f"{z.imag:.12g}")]
                         for z in c.values(c.run())]
                for c in calls if c.closed is None}
        finally:
            shutil.rmtree(workdir)
    path = workloads.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    body = ",\n".join(
        f"{json.dumps(size)}: {{\n"
        + ",\n".join(f" {json.dumps(name)}: {json.dumps(vals)}" for name, vals in calls.items())
        + "\n}" for size, calls in data.items())
    path.write_text(f'{{"seed": {workloads.DEFAULT_SEED},\n{body}\n}}\n')
    print(json.dumps({"reference": str(path.relative_to(ROOT))}))


def make_workdir() -> Path:
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    return workdir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--t0", type=float, help="time.monotonic() when the process was started")
    parser.add_argument("--probe", action="store_true", help="set up, report set-up time, exit")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    import_lindcorr()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        parser.error(f"workload must be one of {workloads.WORKLOADS}, size one of {workloads.SIZES}")
    if args.write_reference:
        write_reference(workloads, args.workload)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    workdir = make_workdir()
    try:
        begin = time.perf_counter()
        if tracer is not None:
            tracer.install(memory=False)
        calls = workloads.build(args.workload, args.seed, args.size, workdir)
        if tracer is not None:
            tracer.uninstall()
        setup_traced_s = time.perf_counter() - begin
        setup_s = time.monotonic() - t0
        if tracer is not None:
            # build once more under tracemalloc, for the set-up's peak_mb only
            tracer.run_id = "setup-memory"
            tracer.install(memory=True)
            (workdir / "memory").mkdir()
            workloads.build(args.workload, args.seed, args.size, workdir / "memory")
            tracer.uninstall()
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = timed_passes(calls, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = workloads.load_reference(args.workload, args.size)
        result = check_outputs(calls, passes, reference)
    finally:
        shutil.rmtree(workdir)

    plain = [p for p in passes if p.kind == "plain"]
    latencies = [t for p in plain for t in p.latencies]
    tail = tail_percentile(latencies)
    result.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "calls": len(calls), "passes": len(plain),
        "time_passes": sum(p.kind == "time" for p in passes),
        "memory_passes": sum(p.kind == "memory" for p in passes),
        "setup_s": setup_s, "wall_s": pass_time(plain), "peak_rss_mb": rss_mb,
        "op_samples": len(latencies), "op_p50_s": statistics.median(latencies),
        "op_p90_s": tail[0] if tail else None, "op_p90_beyond": tail[1] if tail else None,
        "reference": reference is not None, "env": environment(),
    })
    if tracer is not None:
        traced = [p for p in passes if p.kind == "time"]
        weights = {"setup": 1.0, "setup-memory": 0.0,
                   **{str(i): 1.0 / len(traced) if p.kind == "time" else 0.0
                      for i, p in enumerate(passes) if p.kind != "plain"}}
        layers = tracing.layer_metrics(tracer.spans, weights)
        # traced set-up plus the mean time-traced pass, each pass timed over its calls
        wall = setup_traced_s + statistics.mean(sum(p.latencies) for p in traced)
        layers.update({
            "trace.wall_s": wall,
            "trace.self_s": sum(v for name, v in layers.items() if name.endswith(".self_s")),
            "trace.remainder_s": wall - tracing.covered_time(tracer.spans, weights),
            "trace.overhead_frac": pass_time(traced) / pass_time(plain) - 1.0,
        })
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result.update({"layers": layers, "spans": str(spans_path.relative_to(ROOT))})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
