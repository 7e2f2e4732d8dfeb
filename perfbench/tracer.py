"""Span tracer that wraps lindcorr's public functions from outside the package.

Each wrapped function is patched under every name a lindcorr module binds it
to, since modules import one another's functions by name (``propagation``
calls its own ``expm`` binding, not ``operators.expm``).  A call records a span:
name, start, end, parent and run id.  Spans stay in memory and are written out
when the run ends.  When installed with ``memory=True`` the tracer also runs
tracemalloc, and each span records the peak of traced allocations above the
level at its entry, children included.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np

MODULES = ("operators", "decomposition", "generators", "propagation", "cli")
DRIVERS = ("otoc", "qrt_correlator", "equal_time_group_correlator", "general_correlator")
TARGETS = (
    ("operators", "expm"),
    ("operators", "hermitian_eig"),
    ("decomposition", "decompose_model"),
    ("generators", "multi_slot_generator"),
    ("generators", "multi_slot_action"),
    ("generators", "forward_lindbladian"),
    ("generators", "SlotKroneckerAction.apply"),
    ("propagation", "integrate_ode"),
    ("propagation", "steady_state"),
    ("propagation", "evolve_density"),
    ("propagation", "contraction_functional"),
    *(("propagation", name) for name in DRIVERS),
    ("cli", "run"),
)
DRIVER_SPANS = frozenset(f"propagation.{name}" for name in DRIVERS)
# the layers reported with calls and self time; drivers are pooled into one
LAYERS = tuple(dict.fromkeys(
    "propagation.drivers" if f"{m}.{n}" in DRIVER_SPANS else f"{m}.{n}" for m, n in TARGETS))


@dataclass
class Span:
    name: str
    parent: int
    run: str
    start: float = 0.0
    end: float = 0.0
    mem_base: int = 0
    mem_hi: int = 0
    info: dict = field(default_factory=dict)


def _result_info(name: str, result) -> dict:
    """Sizes of a call's output that the per-layer counts are built from."""
    if name == "operators.expm":
        out = getattr(result, "matrix", result)
        return {"bytes": out.nbytes, "order": out.shape[0]}
    if name == "generators.multi_slot_generator":
        m = result.matrix
        return {"bytes": m.nbytes, "nnz": int(np.count_nonzero(m)), "entries": m.size}
    if name in DRIVER_SPANS:
        return {"values": len(result.values) if hasattr(result, "values") else 1}
    return {}


class Tracer:
    """Records spans around the TARGETS functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.run_id)
        current, peak = tracemalloc.get_traced_memory()
        if parent >= 0:
            self.spans[parent].mem_hi = max(self.spans[parent].mem_hi, peak)
        tracemalloc.reset_peak()
        span.mem_base = span.mem_hi = current
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        _current, peak = tracemalloc.get_traced_memory()
        span.mem_hi = max(span.mem_hi, peak)
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.mem_hi = max(parent.mem_hi, span.mem_hi)
        tracemalloc.reset_peak()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            self.spans[index].info = _result_info(name, result)
            return result
        return traced

    def install(self, memory: bool) -> None:
        """Patch every TARGETS function under each name lindcorr binds it to."""
        if memory:
            tracemalloc.start()
        modules = [m for n, m in sys.modules.items() if n == "lindcorr" or n.startswith("lindcorr.")]
        for module_name, qualname in TARGETS:
            module = sys.modules[f"lindcorr.{module_name}"]
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        tracemalloc.stop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"i": i, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def covered_time(spans: list[Span], weights: dict[str, float]) -> float:
    """Weighted summed durations of the top-level spans: the time inside wrapped calls."""
    return sum(weights[s.run.split(".")[0]] * (s.end - s.start) for s in spans if s.parent < 0)


def _layer(name: str) -> str:
    return "propagation.drivers" if name in DRIVER_SPANS else name


def layer_metrics(spans: list[Span], weights: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one pass.

    A span counts with the weight of its run id's prefix before the first
    dot: ``setup`` spans weigh 1, spans of each of n time-traced passes 1/n,
    so the result describes set-up plus one mean pass.  Spans of the
    memory-traced set-up and passes weigh 0 and give only the ``peak_mb``
    numbers.
    """
    own = self_times(spans)
    weight = [weights[s.run.split(".")[0]] for s in spans]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for s, t, w in zip(spans, own, weight):
        m[f"{_layer(s.name)}.calls"] += w
        m[f"{_layer(s.name)}.self_s"] += w * t

    expm = [(i, s) for i, s in enumerate(spans) if s.name == "operators.expm"]
    m["operators.expm.max_order"] = max((s.info["order"] for _i, s in expm), default=0)
    gens = [s.info for s in spans if s.name == "generators.multi_slot_generator"]
    m["generators.multi_slot_generator.bytes"] = max((g["bytes"] for g in gens), default=0)
    entries = sum(g["entries"] for g in gens)
    m["generators.multi_slot_generator.nnz_frac"] = (
        sum(g["nnz"] for g in gens) / entries if entries else 0.0)

    def outer_driver(i: int) -> int:
        """Index of the outermost driver span enclosing span i, or -1."""
        found = -1
        while i >= 0:
            if spans[i].name in DRIVER_SPANS:
                found = i
            i = spans[i].parent
        return found

    values = sum(w * s.info["values"] for i, (s, w) in enumerate(zip(spans, weight))
                 if s.name in DRIVER_SPANS and outer_driver(i) == i)
    held: dict[int, int] = {}
    expm_in_drivers = 0.0
    for i, s in expm:
        top = outer_driver(i)
        if top >= 0:
            expm_in_drivers += weight[i]
            held[top] = held.get(top, 0) + s.info["bytes"]
    m["propagation.expm_per_value"] = expm_in_drivers / values if values else 0.0
    m["propagation.propagator_bytes_peak"] = max(held.values(), default=0)

    for module in MODULES:
        m[f"{module}.peak_mb"] = max(
            ((s.mem_hi - s.mem_base) / 2**20 for s in spans if s.name.startswith(module + ".")),
            default=0.0)
    return m
