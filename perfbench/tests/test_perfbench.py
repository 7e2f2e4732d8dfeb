"""Tests of the benchmark itself: percentile rule, span arithmetic, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p90_reported_only_with_ten_samples_beyond_it():
    reported = worker.tail_percentile(list(range(100)))
    assert reported is not None and reported[1] == 10
    assert sum(s > reported[0] for s in range(100)) == 10
    assert worker.tail_percentile(list(range(91))) is None
    assert worker.tail_percentile([1.0]) is None


def _span(name, parent, start, end, run="0.0", **info):
    return tracer.Span(name, parent, run, start, end, info=info)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        _span("propagation.otoc", -1, 0.0, 10.0, values=41),                   # 0
        _span("propagation.equal_time_group_correlator", 0, 1.0, 9.0, values=41),  # 1
        _span("generators.multi_slot_generator", 1, 1.5, 3.0,
              bytes=100, nnz=25, entries=100),                                 # 2
        _span("operators.expm", 1, 3.0, 7.0, bytes=64, order=4),               # 3
        _span("operators.expm", 1, 7.0, 8.0, bytes=64, order=4),               # 4
        _span("decomposition.decompose_model", -1, 11.0, 12.0, run="setup"),   # 5
        _span("operators.hermitian_eig", 5, 11.2, 11.7, run="setup"),          # 6
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx([2.0, 1.5, 1.5, 4.0, 1.0, 0.5, 0.5])
    # self times telescope to the durations of the top-level spans
    assert sum(own) == pytest.approx(10.0 + 1.0)

    weights = {"setup": 1.0, "0": 0.5}
    assert tracer.covered_time(spans, weights) == pytest.approx(0.5 * 10.0 + 1.0)
    m = tracer.layer_metrics(spans, weights)
    layer_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(tracer.covered_time(spans, weights))
    assert m["propagation.drivers.calls"] == pytest.approx(1.0)       # 2 spans x 1/2
    assert m["propagation.drivers.self_s"] == pytest.approx(0.5 * 3.5)
    assert m["operators.expm.self_s"] == pytest.approx(0.5 * 5.0)
    assert m["operators.hermitian_eig.self_s"] == pytest.approx(0.5)  # set-up weighs 1
    assert m["decomposition.decompose_model.self_s"] == pytest.approx(0.5)
    assert m["operators.expm.max_order"] == 4
    assert m["generators.multi_slot_generator.nnz_frac"] == pytest.approx(0.25)
    # 2 expm calls inside driver spans for the 41 values of the outermost driver
    assert m["propagation.expm_per_value"] == pytest.approx(2 / 41)
    assert m["propagation.propagator_bytes_peak"] == 128
    assert m["cli.run.calls"] == 0.0


def test_wrong_raised_and_missing_outputs_count_as_failed():
    exact = np.array([1.0, 2.0j, -1.0])
    rate_free = SimpleNamespace(name="rate-free", tau0=None, closed=lambda: exact)
    stored = SimpleNamespace(name="stored", tau0=None, closed=None)
    outputs = [exact + 1e-9, exact + 0.1, RuntimeError("boom")]
    passes = [worker.Pass("plain", 0.0, [0.0, 0.0], [out, exact]) for out in outputs]
    result = worker.check_outputs([rate_free, stored], passes, {"stored": exact})
    assert (result["attempted"], result["failed"]) == (6, 2)
    # on the default seed a call with no stored value fails
    assert worker.check_outputs([stored], passes[:1], {})["failed"] == 1
    # off the default seed it is checked for finite values only
    assert worker.check_outputs([stored], passes[:1], None)["finite_only_calls"] == 1


def test_each_pass_keeps_the_values_its_calls_returned():
    # like a CLI call, the call writes its result to a file that the next call overwrites
    written = {}

    def run():
        written["values"] = np.array([written.get("n", 0)])
        written["n"] = written.get("n", 0) + 1
        return 0

    def exit_code(code):
        raise RuntimeError(f"exited with code {code}")

    call = SimpleNamespace(run=run, values=lambda _code: written["values"])
    failing = SimpleNamespace(run=lambda: 1, values=exit_code)
    (first,) = worker.timed_passes([call, failing], 0.0, None)
    run()
    assert first.outputs[0] == np.array([0])
    assert isinstance(first.outputs[1], RuntimeError)


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace,
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.wall_s"] == pytest.approx(m["trace.self_s"] + m["trace.remainder_s"])
        layer_self = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "trace.self_s")
        assert layer_self == pytest.approx(m["trace.self_s"])


def test_other_seed_passes_its_checks():
    proc = _bench("--workload", "general-sweep", "--seed", "7", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


def test_run_outside_a_checkout_fails_without_a_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "otoc-map", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
