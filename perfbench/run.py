"""lindcorr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload otoc-map --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  Each run starts fresh worker processes
with BLAS and OpenMP threads fixed at 1: a few that only set up (for the
median set-up time) and one that sets up, makes the workload's calls for
``--seconds`` and checks the outputs.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics, named and
unit-labelled as in BENCHMARK.json; the lines before it record the
environment and print every metric with its unit.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# calls alike enough for per-call latency percentiles to mean something
LATENCY_WORKLOADS = ("otoc-map",)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4
DEADLINE_S = 170.0
# per-layer numbers derived from array sizes and call counts, not measured
COMPUTED = ("propagation.expm_per_value", "propagation.propagator_bytes_peak")


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker process to completion; return the JSON of its last line."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           *extra, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV}, text=True,
                          stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(res: dict, setups: list[float]) -> None:
    env = res["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{res['workload']} seed={res['seed']} size={res['size']}: {res['passes']} timed "
          f"passes of {res['calls']} calls, closed loop, one caller")
    rows = [("wall_s", f"{res['wall_s']:.4f} s", "one pass; each call's median over the passes")]
    if res["workload"] in LATENCY_WORKLOADS:
        rows.append(("op_p50_s", f"{res['op_p50_s']:.5f} s", f"n={res['op_samples']}"))
        p90 = (f"{res['op_p90_s']:.5f} s" if res["op_p90_s"] is not None else "not reported")
        beyond = res["op_p90_beyond"]
        rows.append(("op_p90_s", p90, f"n={res['op_samples']}, "
                     + (f"{beyond} beyond" if beyond else "fewer than 10 beyond")))
    else:
        rows.append(("op_p50_s", "not reported", "calls are not alike; see otoc-map"))
        rows.append(("op_p90_s", "not reported", "calls are not alike; see otoc-map"))
    rows.append(("peak_rss_mb", f"{res['peak_rss_mb']:.1f} MB", "ru_maxrss of the worker"))
    if setups:
        rows.append(("setup_s", f"{statistics.median(setups):.4f} s", f"median of "
                     f"{len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setups)))
    frac = res["failed"] / res["attempted"]
    rows.append(("failed_frac", f"{frac:.4g}", f"{res['failed']} of {res['attempted']} calls"))
    for name, value, note in rows:
        print(f"  {name:<12} {value:>16}   ({note})")
    reference = "stored values of the default seed" if res["reference"] else "none for this seed"
    print(f"checks: worst error {res['worst_error']:.3g} of sup-norm ({res['worst_call']}: "
          f"{res['worst_check']}); stored reference: {reference}; "
          f"{res['finite_only_calls']} calls checked for finite values only")


def report_layers(res: dict, units: dict[str, str]) -> None:
    layers = res["layers"]
    print(f"per layer: set-up plus one time-traced pass (mean of {res['time_passes']}); "
          f"peak_mb over the set-up and {res['memory_passes']} memory-traced passes")
    for name, value in layers.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")
    print(f"trace: wall {layers['trace.wall_s']:.4f} s = layer self times "
          f"{layers['trace.self_s']:.4f} s + untraced remainder {layers['trace.remainder_s']:.4f} s;"
          f" overhead_frac {layers['trace.overhead_frac']:.4f}; spans in {res['spans']}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a scaled-down copy of the workload, for tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's output values for later checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lindcorr" / "__init__.py").is_file():
        print(f"error: no lindcorr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.write_reference:
            spawn(args, ["--write-reference"], deadline)
            return 0
        setups = []
        probes = 0 if args.trace else SETUP_PROBES
        # half the set-up probes run before the timed worker and half after, so
        # the median does not hang on one stretch of a shared machine's speed
        for _ in range(probes // 2):
            setups.append(spawn(args, ["--probe"], deadline)["setup_s"])
        res = spawn(args, [], deadline)
        if not args.trace:
            setups.append(res["setup_s"])
        for _ in range(probes - probes // 2):
            setups.append(spawn(args, ["--probe"], deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(res, setups)
    if args.trace:
        kind, values = "per_layer", res["layers"]
        report_layers(res, {m["name"]: m["unit"] for m in bench[kind]})
    else:
        kind, values = "end_to_end", {"wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                                      "setup_s": statistics.median(setups)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
