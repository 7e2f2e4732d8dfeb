"""Command-line front end.

A single JSON config file describes the model, the jump decomposition, and one
task; results land in CSV or JSON, written atomically.  Exit codes: 0 on
success, 1 for invalid configuration or input, 2 when a numerical invariant
fails (the offending check is named on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from .decomposition import assign_rates, decompose_model, local_decomposition, JumpMode
from .errors import ConfigError, NumericsError
from .models import BathSpec, Coupling, SystemModel, named_operator
from .models import coupled_dimer, truncated_oscillator, two_level_atom
from .operators import hermitian_eig, identity
from .propagation import (
    CorrelatorSpec,
    CorrelatorTrace,
    _evolve_grid,
    evolve_density,
    general_correlator,
    otoc,
    qrt_correlator,
    steady_state,
)

_BUILTIN_MODELS = {
    "two_level_atom": (two_level_atom, ("omega0", "gamma", "temperature")),
    "truncated_oscillator": (truncated_oscillator, ("omega0", "dim", "gamma", "temperature")),
    "coupled_dimer": (coupled_dimer, ("omega1", "omega2", "g", "gamma1", "gamma2",
                                      "temperature")),
}

_TASKS = ("decompose", "steady", "evolve", "corr", "otoc", "validate")


def _check_keys(obj, path: str, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed keys are "
                          f"{sorted(allowed)}")


def _require(obj: dict, path: str, key: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return obj[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = float("inf")
    if not np.isfinite(number):
        raise ConfigError(f"{path} must be a finite number, got {number}")
    return number


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{path} must be a number or an [re, im] pair")


def _parse_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of rows")
    n = len(value)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}[{i}] must be a list of {n} entries "
                              f"(square matrix expected)")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"{path}[{i}][{j}]")
    return out


def _parse_operator(value, dim: int, path: str) -> np.ndarray:
    if isinstance(value, str):
        try:
            return named_operator(value, dim)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    mat = _parse_matrix(value, path)
    if mat.shape != (dim, dim):
        raise ConfigError(f"{path} has shape {mat.shape[0]}x{mat.shape[1]}, expected "
                          f"{dim}x{dim}")
    return mat


def _parse_grid(value, path: str) -> np.ndarray:
    _check_keys(value, path, ("start", "stop", "points"))
    start = _as_number(_require(value, path, "start"), f"{path}.start")
    stop = _as_number(_require(value, path, "stop"), f"{path}.stop")
    points = _require(value, path, "points")
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ConfigError(f"{path}.points must be a positive integer")
    if stop < start:
        raise ConfigError(f"{path}: stop ({stop}) must not precede start ({start})")
    if points == 1:
        return np.array([start])
    return np.linspace(start, stop, points)


def _parse_bath(value, path: str) -> BathSpec:
    _check_keys(value, path, ("temperature", "rate_profile", "gamma0"))
    temperature = _as_number(value.get("temperature", 0.0), f"{path}.temperature")
    gamma0 = _as_number(value.get("gamma0", 0.0), f"{path}.gamma0")
    raw = _require(value, path, "rate_profile")
    if isinstance(raw, list):
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 2:
                raise ConfigError(f"{path}.rate_profile[{i}] must be a "
                                  f"[frequency, rate] pair")
            rows.append((_as_number(row[0], f"{path}.rate_profile[{i}][0]"),
                         _as_number(row[1], f"{path}.rate_profile[{i}][1]")))
        profile = tuple(rows)
    else:
        profile = _as_number(raw, f"{path}.rate_profile")
    try:
        return BathSpec(temperature=temperature, rate_profile=profile, gamma0=gamma0)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_model(config: dict) -> SystemModel:
    raw = _require(config, "config", "model")
    bath = _parse_bath(config["bath"], "bath") if "bath" in config else None
    if not isinstance(raw, dict):
        raise ConfigError("model must be a JSON object")
    if "name" in raw:
        _check_keys(raw, "model", ("name", "params"))
        name = raw["name"]
        if name not in _BUILTIN_MODELS:
            raise ConfigError(f"model.name {name!r} is not one of "
                              f"{sorted(_BUILTIN_MODELS)}")
        factory, fields = _BUILTIN_MODELS[name]
        params = raw.get("params", {})
        _check_keys(params, "model.params", fields)
        kwargs = {}
        for field in fields:
            value = _require(params, "model.params", field)
            if field == "dim":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError("model.params.dim must be an integer")
                kwargs[field] = value
            else:
                kwargs[field] = _as_number(value, f"model.params.{field}")
        try:
            model = factory(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"model.params: {exc}") from None
        if bath is not None:
            model = SystemModel(model.hamiltonian,
                                tuple(Coupling(c.operator, bath) for c in model.couplings))
        return model

    _check_keys(raw, "model", ("hamiltonian", "couplings"))
    h = _parse_matrix(_require(raw, "model", "hamiltonian"), "model.hamiltonian")
    dim = h.shape[0]
    if bath is None:
        raise ConfigError("explicit models require a top-level bath section")
    raw_couplings = _require(raw, "model", "couplings")
    if not isinstance(raw_couplings, list) or not raw_couplings:
        raise ConfigError("model.couplings must be a non-empty list")
    couplings = []
    for i, entry in enumerate(raw_couplings):
        _check_keys(entry, f"model.couplings[{i}]", ("operator",))
        op = _parse_operator(_require(entry, f"model.couplings[{i}]", "operator"),
                             dim, f"model.couplings[{i}].operator")
        try:
            couplings.append(Coupling(op, bath))
        except ValueError as exc:
            raise ConfigError(f"model.couplings[{i}]: {exc}") from None
    try:
        return SystemModel(h, tuple(couplings))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _parse_decompositions(config: dict, model: SystemModel) -> list:
    raw = config.get("decomposition", {"kind": "exact"})
    _check_keys(raw, "decomposition", ("kind", "freq_tol", "channels"))
    kind = raw.get("kind", "exact")
    freq_tol = None
    if raw.get("freq_tol") is not None:
        freq_tol = _as_number(raw["freq_tol"], "decomposition.freq_tol")
    if kind == "exact":
        if "channels" in raw:
            raise ConfigError("decomposition.channels is only valid for kind 'local'")
        try:
            return decompose_model(model, freq_tol=freq_tol)
        except ValueError as exc:
            raise ConfigError(f"decomposition: {exc}") from None
    if kind != "local":
        raise ConfigError(f"decomposition.kind must be 'exact' or 'local', got {kind!r}")
    channels = _require(raw, "decomposition", "channels")
    if not isinstance(channels, list) or len(channels) != len(model.couplings):
        raise ConfigError(f"decomposition.channels must list one entry per coupling "
                          f"({len(model.couplings)} expected)")
    dim = model.dim
    decomps = []
    for i, (entry, coupling) in enumerate(zip(channels, model.couplings)):
        path = f"decomposition.channels[{i}]"
        _check_keys(entry, path, ("c0", "modes"))
        c0 = np.zeros((dim, dim), dtype=complex)
        if "c0" in entry:
            c0 = _parse_operator(entry["c0"], dim, f"{path}.c0")
        raw_modes = entry.get("modes", [])
        if not isinstance(raw_modes, list):
            raise ConfigError(f"{path}.modes must be a list")
        modes = []
        for j, m in enumerate(raw_modes):
            _check_keys(m, f"{path}.modes[{j}]", ("operator", "frequency"))
            op = _parse_operator(_require(m, f"{path}.modes[{j}]", "operator"),
                                 dim, f"{path}.modes[{j}].operator")
            freq = _as_number(_require(m, f"{path}.modes[{j}]", "frequency"),
                              f"{path}.modes[{j}].frequency")
            try:
                modes.append(JumpMode(op, freq))
            except ValueError as exc:
                raise ConfigError(f"{path}.modes[{j}]: {exc}") from None
        try:
            dec = local_decomposition(c0, modes, freq_tol=freq_tol)
            decomps.append(assign_rates(dec, coupling.bath))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return decomps


def _parse_state(value, model: SystemModel, decomps, path: str) -> np.ndarray:
    if isinstance(value, str):
        dim = model.dim
        if value == "maximally_mixed":
            return identity(dim) / dim
        if value == "steady":
            return steady_state(model, decomps)
        if value in ("ground", "excited"):
            _, u = hermitian_eig(model.hamiltonian)
            column = u[:, 0] if value == "ground" else u[:, -1]
            return np.outer(column, column.conj())
        raise ConfigError(f"{path}: unknown state name {value!r}; named states are "
                          f"'ground', 'excited', 'maximally_mixed', 'steady'")
    rho = _parse_operator(value, model.dim, path)
    return rho


def _encode_complex_matrix(mat: np.ndarray) -> list:
    # the + 0.0 folds IEEE negative zeros into plain zeros
    return [[[float(z.real) + 0.0, float(z.imag) + 0.0] for z in row]
            for row in np.asarray(mat)]


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"


def _trace_payload(trace: CorrelatorTrace, with_abs: bool) -> dict:
    payload = {
        "taus": [float(t) + 0.0 for t in trace.taus],
        "values": [[float(v.real) + 0.0, float(v.imag) + 0.0] for v in trace.values],
    }
    if with_abs:
        payload["abs"] = [float(a) for a in np.abs(trace.values)]
    return payload


def _trace_csv(trace: CorrelatorTrace, with_abs: bool) -> str:
    lines = ["tau,re,im,abs" if with_abs else "tau,re,im"]
    for t, v in zip(trace.taus, trace.values):
        row = [_fmt(float(t)), _fmt(float(v.real)), _fmt(float(v.imag))]
        if with_abs:
            row.append(_fmt(float(abs(v))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".lindcorr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def _emit(result, out: str | None, fmt: str, with_abs: bool) -> None:
    kind, payload = result
    if kind == "trace":
        data = (_trace_csv(payload, with_abs) if fmt == "csv"
                else json.dumps(_trace_payload(payload, with_abs),
                                indent=2, sort_keys=True) + "\n")
    else:
        if fmt == "csv":
            raise ConfigError(f"output.format 'csv' is only available for tasks that "
                              f"produce a trace; this task produced a report")
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(data)
    else:
        _atomic_write(out, data)


def _task_decompose(model, decomps, params):
    _check_keys(params, "params", ())
    report = []
    for i, dec in enumerate(decomps):
        entry = {
            "coupling": i,
            "provenance": dec.provenance,
            "gamma0": float(dec.gamma0) if dec.gamma0 is not None else 0.0,
            "c0": _encode_complex_matrix(dec.c0),
            "modes": [
                {
                    "frequency": float(m.frequency),
                    "gamma_down": float(m.gamma_down),
                    "gamma_up": float(m.gamma_up),
                    "operator": _encode_complex_matrix(m.operator),
                }
                for m in dec.modes
            ],
        }
        report.append(entry)
    return "json", {"dim": model.dim, "couplings": report}


def _task_steady(model, decomps, params):
    _check_keys(params, "params", ())
    rho = steady_state(model, decomps)
    return "json", {"density_matrix": _encode_complex_matrix(rho)}


def _task_evolve(model, decomps, params):
    _check_keys(params, "params", ("initial_state", "times", "observable"))
    rho0 = _parse_state(_require(params, "params", "initial_state"), model, decomps,
                        "params.initial_state")
    times = _parse_grid(_require(params, "params", "times"), "params.times")
    states = _evolve_grid(model.hamiltonian, decomps, rho0, times)
    if "observable" in params:
        obs = _parse_operator(params["observable"], model.dim, "params.observable")
        values = np.array([np.trace(obs @ rho) for rho in states])
        return "trace", CorrelatorTrace(times, values)
    return "json", {
        "times": [float(t) for t in times],
        "states": [_encode_complex_matrix(rho) for rho in states],
    }


def _task_corr(model, decomps, params):
    has_qrt = "b" in params
    has_general = "insertions" in params
    if has_qrt == has_general:
        raise ConfigError("params must contain exactly one of 'b' (three-operator "
                          "form) or 'insertions' (general form)")
    dim = model.dim
    if has_qrt:
        _check_keys(params, "params",
                    ("a1", "b", "a2", "initial_state", "anchor_time", "taus"))
        a1 = (_parse_operator(params["a1"], dim, "params.a1") if "a1" in params
              else identity(dim))
        b = _parse_operator(params["b"], dim, "params.b")
        a2 = (_parse_operator(params["a2"], dim, "params.a2") if "a2" in params
              else identity(dim))
        rho0 = _parse_state(_require(params, "params", "initial_state"), model, decomps,
                            "params.initial_state")
        taus = _parse_grid(_require(params, "params", "taus"), "params.taus")
        anchor = _as_number(params.get("anchor_time", 0.0), "params.anchor_time")
        if anchor < 0:
            raise ConfigError("params.anchor_time must be non-negative")
        rho_t = (evolve_density(model.hamiltonian, decomps, rho0, anchor)
                 if anchor > 0 else rho0)
        return "trace", qrt_correlator(model.hamiltonian, decomps, a1, b, a2, rho_t, taus)

    _check_keys(params, "params", ("insertions", "initial_state", "taus"))
    raw_ins = params["insertions"]
    if not isinstance(raw_ins, list) or not raw_ins:
        raise ConfigError("params.insertions must be a non-empty list")
    insertions = []
    for i, entry in enumerate(raw_ins):
        path = f"params.insertions[{i}]"
        _check_keys(entry, path, ("operator", "time"))
        op = _parse_operator(_require(entry, path, "operator"), dim, f"{path}.operator")
        t = _as_number(_require(entry, path, "time"), f"{path}.time")
        insertions.append((op, t))
    rho0 = _parse_state(_require(params, "params", "initial_state"), model, decomps,
                        "params.initial_state")
    spec = CorrelatorSpec(tuple(insertions), rho0)
    if "taus" in params:
        taus = _parse_grid(params["taus"], "params.taus")
        return "trace", general_correlator(model.hamiltonian, decomps, spec, taus=taus)
    value = general_correlator(model.hamiltonian, decomps, spec)
    return "json", {"value": [float(value.real) + 0.0, float(value.imag) + 0.0]}


def _task_otoc(model, decomps, params):
    _check_keys(params, "params", ("w", "v", "initial_state", "taus"))
    w = _parse_operator(_require(params, "params", "w"), model.dim, "params.w")
    v = _parse_operator(_require(params, "params", "v"), model.dim, "params.v")
    rho0 = _parse_state(_require(params, "params", "initial_state"), model, decomps,
                        "params.initial_state")
    taus = _parse_grid(_require(params, "params", "taus"), "params.taus")
    return "trace", otoc(model.hamiltonian, decomps, w, v, rho0, taus)


_TASK_RUNNERS = {
    "decompose": _task_decompose,
    "steady": _task_steady,
    "evolve": _task_evolve,
    "corr": _task_corr,
    "otoc": _task_otoc,
}


def _run_validate() -> int:
    from .acceptance import run_acceptance

    outcomes = run_acceptance()
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(f"{status} criterion {o.number}: {o.name} — {o.detail} ({o.seconds:.1f}s)")
    failed = [o for o in outcomes if not o.passed]
    if failed:
        names = ", ".join(f"{o.number} ({o.name})" for o in failed)
        print(f"error: acceptance check(s) failed: {names}", file=sys.stderr)
        return 2
    print(f"all {len(outcomes)} acceptance checks passed")
    return 0


def run(config_path: str | None, task: str | None = None, out: str | None = None,
        fmt: str | None = None) -> int:
    """Execute one task; returns the process exit code instead of raising."""
    try:
        config = {}
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    config = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        _check_keys(config, "config",
                    ("model", "bath", "decomposition", "task", "params", "output"))

        chosen = task if task is not None else config.get("task")
        if chosen is None:
            raise ConfigError("no task given: set 'task' in the config or pass --task")
        if chosen not in _TASKS:
            raise ConfigError(f"unknown task {chosen!r}; tasks are {sorted(_TASKS)}")
        if chosen == "validate":
            return _run_validate()

        output = config.get("output", {})
        _check_keys(output, "output", ("path", "format", "abs"))
        out_path = out if out is not None else output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("output.path must be a string")
        out_fmt = fmt if fmt is not None else output.get("format", "json")
        if out_fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {out_fmt!r}")
        with_abs = output.get("abs", False)
        if not isinstance(with_abs, bool):
            raise ConfigError("output.abs must be a boolean")

        model = _parse_model(config)
        decomps = _parse_decompositions(config, model)
        params = config.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be a JSON object")
        result = _TASK_RUNNERS[chosen](model, decomps, params)
        _emit(result, out_path, out_fmt, with_abs)
        return 0
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lindcorr",
        description="Multi-time correlation functions of Markovian open quantum systems.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--task", choices=_TASKS,
                        help="override (or supply) the task to run")
    parser.add_argument("--out", help="output file path (defaults to output.path, "
                                      "else stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="output format override")
    args = parser.parse_args(argv)
    return run(args.config, task=args.task, out=args.out, fmt=args.fmt)


if __name__ == "__main__":
    sys.exit(main())
