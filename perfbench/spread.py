"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wide-slots --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run after another, each for the
run_seconds of BENCHMARK.json, and prints for each
end-to-end metric its median and the distance between its first and third
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  Aim for spreads below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"],
                             cwd=ROOT, text=True, stdout=subprocess.PIPE, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} calls failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4f}"
                                          for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<12} median {median:.4f}  spread {(q3 - q1) / median:.4f}  "
              f"bound {bounds.get(name)}  (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
