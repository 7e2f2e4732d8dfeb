import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lindcorr import cli, decompose_model, evolve_density, generators, otoc, qrt_correlator
from lindcorr import propagation
from lindcorr import sigma_minus, sigma_plus, sigma_x, sigma_z, two_level_atom

FIXTURES = Path(__file__).resolve().parent / "fixtures"
README = Path(__file__).resolve().parents[1] / "README.md"

LN2_INV = 1.4426950408889634  # temperature at which the qubit splitting costs ln 2


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _atom_config(**params):
    merged = {"omega0": 1.0, "gamma": 0.1, "temperature": 0.0}
    merged.update(params)
    return {"name": "two_level_atom", "params": merged}


# ------------------------------------------------------------ golden fixture


def test_golden_fixture_reproduction(tmp_path):
    golden = (FIXTURES / "golden_corr.csv").read_bytes()
    outputs = []
    for k in range(2):
        out = tmp_path / f"out_{k}.csv"
        code = cli.run(str(FIXTURES / "golden_corr.json"), out=str(out))
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == golden
    assert outputs[1] == golden


def test_golden_fixture_via_module_invocation(tmp_path):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "lindcorr",
         "--config", str(FIXTURES / "golden_corr.json"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (FIXTURES / "golden_corr.csv").read_bytes()


# ------------------------------------------------------------------ reports


def test_decompose_report(tmp_path, capsys):
    cfg = {"model": _atom_config(), "task": "decompose"}
    assert cli.run(_write(tmp_path, cfg)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 2
    (entry,) = report["couplings"]
    assert entry["provenance"] == "exact"
    assert entry["gamma0"] == 0.0
    (mode,) = entry["modes"]
    assert mode["frequency"] == 1.0
    assert mode["gamma_down"] == 0.1
    assert mode["gamma_up"] == 0.0
    assert np.array_equal(
        np.array(mode["operator"]),
        np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]),
    )


def test_steady_task_thermal_population(tmp_path, capsys):
    cfg = {"model": _atom_config(temperature=LN2_INV), "task": "steady"}
    assert cli.run(_write(tmp_path, cfg)) == 0
    rho = json.loads(capsys.readouterr().out)["density_matrix"]
    assert abs(rho[0][0][0] - 1.0 / 3.0) < 1e-9
    assert abs(rho[1][1][0] - 2.0 / 3.0) < 1e-9
    assert rho[0][1] == [0.0, 0.0]


def test_corr_value_form(tmp_path, capsys):
    cfg = {
        "model": _atom_config(),
        "task": "corr",
        "params": {
            "insertions": [{"operator": "s+", "time": 1.5},
                           {"operator": "s-", "time": 0.5}],
            "initial_state": "excited",
        },
    }
    assert cli.run(_write(tmp_path, cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"value"}
    re_part, im_part = payload["value"]
    assert abs(complex(re_part, im_part)) <= 1.0


# ------------------------------------------------------------------- evolve


def test_evolve_observable_csv(tmp_path):
    gamma = 0.2
    cfg = {
        "model": _atom_config(gamma=gamma),
        "task": "evolve",
        "params": {
            "initial_state": "excited",
            "observable": "sz",
            "times": {"start": 0.0, "stop": 10.0, "points": 6},
        },
        "output": {"format": "csv"},
    }
    out = tmp_path / "evolve.csv"
    assert cli.run(_write(tmp_path, cfg), out=str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,re,im"
    for row in lines[1:]:
        t, re_part, im_part = (float(x) for x in row.split(","))
        assert abs(re_part - (2.0 * np.exp(-gamma * t) - 1.0)) < 1e-8
        assert im_part == 0.0


def test_evolve_states_json(tmp_path, capsys):
    gamma = 0.3
    cfg = {
        "model": _atom_config(gamma=gamma),
        "task": "evolve",
        "params": {
            "initial_state": "excited",
            "times": {"start": 0.0, "stop": 4.0, "points": 3},
        },
    }
    assert cli.run(_write(tmp_path, cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["times"] == [0.0, 2.0, 4.0]
    for t, state in zip(payload["times"], payload["states"]):
        assert abs(state[0][0][0] - np.exp(-gamma * t)) < 1e-8
        assert abs(state[0][0][0] + state[1][1][0] - 1.0) < 1e-10


@pytest.mark.parametrize("model", [
    _atom_config(gamma=0.3, temperature=0.7),
    {"name": "truncated_oscillator",
     "params": {"omega0": 1.0, "dim": 17, "gamma": 0.2, "temperature": 0.5}},
], ids=["qubit", "oscillator-17"])
def test_evolve_states_match_per_time_evolution(tmp_path, capsys, model):
    # one state stepped along the grid equals evolving from t = 0 to each time
    cfg = {"model": model, "task": "evolve",
           "params": {"initial_state": "excited",
                      "times": {"start": 0.5, "stop": 6.0, "points": 12}}}
    assert cli.run(_write(tmp_path, cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    parsed = cli._parse_model(cfg)
    decs = decompose_model(parsed)
    rho0 = cli._parse_state("excited", parsed, decs, "params.initial_state")
    for t, state in zip(payload["times"], payload["states"]):
        got = np.array([[complex(*z) for z in row] for row in state])
        expected = evolve_density(parsed.hamiltonian, decs, rho0, t)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.array_equal(got, got.conj().T)


def test_evolve_uniform_grid_makes_one_expm(tmp_path, monkeypatch):
    calls = []
    expm_ = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda m, t: calls.append(t) or expm_(m, t))
    cfg = {"model": _atom_config(gamma=0.2, temperature=0.4), "task": "evolve",
           "params": {"initial_state": "excited", "observable": "sz",
                      "times": {"start": 0.0, "stop": 10.0, "points": 50}},
           "output": {"format": "csv"}}
    assert cli.run(_write(tmp_path, cfg), out=str(tmp_path / "out.csv")) == 0
    assert len(calls) == 1


def test_evolve_repeated_and_negative_times(tmp_path, capsys):
    cfg = {"model": _atom_config(gamma=0.2), "task": "evolve",
           "params": {"initial_state": "excited",
                      "times": {"start": 2.0, "stop": 2.0, "points": 3}}}
    assert cli.run(_write(tmp_path, cfg)) == 0
    states = json.loads(capsys.readouterr().out)["states"]
    assert states[0] == states[1] == states[2]
    cfg["params"]["times"] = {"start": -1.0, "stop": 2.0, "points": 3}
    assert cli.run(_write(tmp_path, cfg)) == 1
    assert ">= 0" in capsys.readouterr().err


# ------------------------------------------------- correlator task vs library


def test_otoc_task_matches_library(tmp_path, capsys):
    taus = {"start": 0.0, "stop": 5.0, "points": 6}
    cfg = {
        "model": _atom_config(),
        "task": "otoc",
        "params": {"w": "sx", "v": "sz", "initial_state": "maximally_mixed",
                   "taus": taus},
    }
    assert cli.run(_write(tmp_path, cfg)) == 0
    payload = json.loads(capsys.readouterr().out)

    model = two_level_atom(1.0, 0.1, 0.0)
    decs = decompose_model(model)
    ref = otoc(model.hamiltonian, decs, sigma_x, sigma_z,
               np.eye(2, dtype=complex) / 2.0, np.linspace(0.0, 5.0, 6))
    got = np.array([complex(re_part, im_part) for re_part, im_part in payload["values"]])
    assert np.max(np.abs(got - ref.values)) < 1e-12
    assert payload["taus"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_corr_insertions_reproduce_otoc(tmp_path, capsys):
    tau = 2.0
    base = {"model": _atom_config()}
    otoc_cfg = dict(base, task="otoc", params={
        "w": "sx", "v": "sz", "initial_state": "maximally_mixed",
        "taus": {"start": tau, "stop": tau, "points": 1},
    })
    assert cli.run(_write(tmp_path, otoc_cfg, "otoc.json")) == 0
    otoc_payload = json.loads(capsys.readouterr().out)

    corr_cfg = dict(base, task="corr", params={
        "insertions": [
            {"operator": "sx", "time": tau},
            {"operator": "sz", "time": 0.0},
            {"operator": "sx", "time": tau},
            {"operator": "sz", "time": 0.0},
        ],
        "initial_state": "maximally_mixed",
    })
    assert cli.run(_write(tmp_path, corr_cfg, "corr.json")) == 0
    corr_payload = json.loads(capsys.readouterr().out)
    got = complex(*corr_payload["value"])
    want = complex(*otoc_payload["values"][0])
    assert abs(got - want) < 1e-9


def test_qrt_anchor_time_matches_library(tmp_path, capsys):
    anchor = 1.3
    cfg = {
        "model": _atom_config(),
        "task": "corr",
        "params": {
            "b": "s+",
            "a2": "s-",
            "initial_state": "excited",
            "anchor_time": anchor,
            "taus": {"start": 0.0, "stop": 3.0, "points": 4},
        },
    }
    assert cli.run(_write(tmp_path, cfg)) == 0
    payload = json.loads(capsys.readouterr().out)

    model = two_level_atom(1.0, 0.1, 0.0)
    decs = decompose_model(model)
    rho_t = evolve_density(model.hamiltonian, decs,
                           np.diag([1.0, 0.0]).astype(complex), anchor)
    ref = qrt_correlator(model.hamiltonian, decs, np.eye(2, dtype=complex),
                         sigma_plus, sigma_minus, rho_t, np.linspace(0.0, 3.0, 4))
    got = np.array([complex(re_part, im_part) for re_part, im_part in payload["values"]])
    assert np.max(np.abs(got - ref.values)) < 1e-12


def test_slot_budget_flag_switches_engine(tmp_path, capsys, monkeypatch):
    cfg = {
        "model": _atom_config(),
        "task": "otoc",
        "params": {"w": "sx", "v": "sz", "initial_state": "maximally_mixed",
                   "taus": {"start": 0.0, "stop": 4.0, "points": 5}},
    }
    path = _write(tmp_path, cfg)
    assert cli.run(path) == 0
    dense = json.loads(capsys.readouterr().out)["values"]
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 4)
    assert cli.run(path) == 0
    free = json.loads(capsys.readouterr().out)["values"]
    diff = np.abs(np.array([complex(*v) for v in dense])
                  - np.array([complex(*v) for v in free]))
    assert np.max(diff) < 1e-12


def test_slot_budget_exceeded_exits_one(tmp_path, capsys):
    # 5 distinct times on a 9-level oscillator first evolve a 4-slot tensor,
    # whose sparse generator is bounded at about 21 GiB, over the byte cap;
    # the run must refuse before evolving anything
    cfg = {
        "model": {"name": "truncated_oscillator",
                  "params": {"omega0": 1.0, "dim": 9, "gamma": 0.1, "temperature": 0.0}},
        "task": "corr",
        "params": {
            "insertions": [{"operator": op, "time": t}
                           for op, t in (("a", 3.0), ("adag", 2.0), ("n", 1.0), ("a", 0.5),
                                         ("adag", 0.25))],
            "initial_state": "maximally_mixed",
        },
    }
    path = _write(tmp_path, cfg)
    start = time.perf_counter()
    assert cli.run(path) == 1
    elapsed = time.perf_counter() - start
    assert "slot budget" in capsys.readouterr().err
    assert elapsed < 1.0


def test_non_finite_numbers_rejected(tmp_path, capsys):
    def corr(anchor, stop):
        return {
            "model": _atom_config(),
            "task": "corr",
            "params": {"b": "s+", "a2": "s-", "initial_state": "excited",
                       "anchor_time": anchor,
                       "taus": {"start": 0.0, "stop": stop, "points": 3}},
        }

    for cfg, where in ((corr(float("nan"), 1.0), "params.anchor_time"),
                       (corr(float("inf"), 1.0), "params.anchor_time"),
                       (corr(0.5, float("inf")), "params.taus.stop"),
                       (corr(10 ** 400, 1.0), "params.anchor_time")):
        assert cli.run(_write(tmp_path, cfg)) == 1
        err = capsys.readouterr().err
        assert where in err and "finite" in err


# ------------------------------------------------- explicit and local models


def test_explicit_model_requires_bath(tmp_path, capsys):
    cfg = {
        "model": {"hamiltonian": [[0.5, 0.0], [0.0, -0.5]],
                  "couplings": [{"operator": "sx"}]},
        "task": "steady",
    }
    assert cli.run(_write(tmp_path, cfg)) == 1
    assert "bath" in capsys.readouterr().err


def test_explicit_model_matches_builtin(tmp_path):
    shared = {
        "task": "corr",
        "params": {
            "b": "s+",
            "a2": "s-",
            "initial_state": "excited",
            "taus": {"start": 0.0, "stop": 10.0, "points": 21},
        },
        "output": {"format": "csv", "abs": True},
    }
    builtin = dict(shared, model=_atom_config())
    explicit = dict(
        shared,
        model={"hamiltonian": [[0.5, 0.0], [0.0, -0.5]],
               "couplings": [{"operator": "sx"}]},
        bath={"temperature": 0.0, "rate_profile": 0.1},
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(_write(tmp_path, builtin, "a.json"), out=str(out_a)) == 0
    assert cli.run(_write(tmp_path, explicit, "b.json"), out=str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_local_decomposition_matches_exact(tmp_path):
    shared = {
        "model": _atom_config(),
        "task": "corr",
        "params": {
            "b": "s+",
            "a2": "s-",
            "initial_state": "excited",
            "taus": {"start": 0.0, "stop": 10.0, "points": 21},
        },
        "output": {"format": "csv"},
    }
    local = dict(shared, decomposition={
        "kind": "local",
        "channels": [{"modes": [{"operator": "s-", "frequency": 1.0}]}],
    })
    out_a, out_b = tmp_path / "exact.csv", tmp_path / "local.csv"
    assert cli.run(_write(tmp_path, shared, "exact.json"), out=str(out_a)) == 0
    assert cli.run(_write(tmp_path, local, "local.json"), out=str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bath_override_rescales_builtin(tmp_path, capsys):
    cfg = {
        "model": _atom_config(gamma=0.1),
        "bath": {"temperature": 0.0, "rate_profile": 0.4},
        "task": "decompose",
    }
    assert cli.run(_write(tmp_path, cfg)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["couplings"][0]["modes"][0]["gamma_down"] == 0.4


# -------------------------------------------------------------- error paths


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = {"model": _atom_config(), "task": "steady", "bogus": 1}
    assert cli.run(_write(tmp_path, cfg)) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "bogus" in err


def test_bad_operator_dimension(tmp_path, capsys):
    cfg = {
        "model": _atom_config(),
        "task": "corr",
        "params": {
            "b": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "initial_state": "excited",
            "taus": {"start": 0.0, "stop": 1.0, "points": 2},
        },
    }
    assert cli.run(_write(tmp_path, cfg)) == 1
    assert "expected 2x2" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.run(str(tmp_path / "absent.json")) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run(str(path)) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_no_task_anywhere(tmp_path, capsys):
    assert cli.run(_write(tmp_path, {"model": _atom_config()})) == 1
    assert "no task given" in capsys.readouterr().err


def test_task_flag_overrides_config(tmp_path, capsys):
    cfg = {"model": _atom_config(temperature=0.5), "task": "steady"}
    assert cli.run(_write(tmp_path, cfg), task="decompose") == 0
    payload = json.loads(capsys.readouterr().out)
    assert "couplings" in payload and "density_matrix" not in payload


def test_degenerate_steady_state_exits_two(tmp_path, capsys):
    cfg = {"model": _atom_config(gamma=0.0), "task": "steady"}
    assert cli.run(_write(tmp_path, cfg)) == 2
    assert "null space" in capsys.readouterr().err


def test_unknown_state_name(tmp_path, capsys):
    cfg = {
        "model": _atom_config(),
        "task": "evolve",
        "params": {"initial_state": "vacuum",
                   "times": {"start": 0.0, "stop": 1.0, "points": 2}},
    }
    assert cli.run(_write(tmp_path, cfg)) == 1
    assert "unknown state name" in capsys.readouterr().err


def test_grid_validation(tmp_path, capsys):
    base = {
        "model": _atom_config(),
        "task": "evolve",
        "params": {"initial_state": "excited", "times": None},
    }
    base["params"]["times"] = {"start": 0.0, "stop": 1.0, "points": 0}
    assert cli.run(_write(tmp_path, base, "p0.json")) == 1
    assert "positive integer" in capsys.readouterr().err
    base["params"]["times"] = {"start": 2.0, "stop": 1.0, "points": 5}
    assert cli.run(_write(tmp_path, base, "rev.json")) == 1
    assert "must not precede" in capsys.readouterr().err


def test_corr_requires_exactly_one_form(tmp_path, capsys):
    cfg = {
        "model": _atom_config(),
        "task": "corr",
        "params": {"initial_state": "excited",
                   "taus": {"start": 0.0, "stop": 1.0, "points": 2}},
    }
    assert cli.run(_write(tmp_path, cfg)) == 1
    assert "exactly one" in capsys.readouterr().err


def test_csv_rejected_for_reports(tmp_path, capsys):
    cfg = {"model": _atom_config(), "task": "decompose"}
    assert cli.run(_write(tmp_path, cfg), fmt="csv") == 1
    assert "produce a trace" in capsys.readouterr().err


def test_atomic_overwrite_leaves_no_temp_files(tmp_path):
    cfg = {
        "model": _atom_config(),
        "task": "steady",
        "output": {"path": str(tmp_path / "steady.json")},
    }
    path = _write(tmp_path, cfg)
    for _ in range(2):
        assert cli.run(path) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["run.json", "steady.json"]
    json.loads((tmp_path / "steady.json").read_text())


def test_module_help():
    proc = subprocess.run([sys.executable, "-m", "lindcorr", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    for task in ("decompose", "steady", "evolve", "corr", "otoc", "validate"):
        assert task in proc.stdout


# ---------------------------------------------------------- README contracts


def _readme_json_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)


def test_readme_json_blocks_parse_and_run(tmp_path, capsys):
    blocks = _readme_json_blocks()
    assert blocks, "README should document at least one JSON config"
    ran = 0
    for i, block in enumerate(blocks):
        payload = json.loads(block)  # every documented block must be valid JSON
        if isinstance(payload, dict) and "task" in payload and payload["task"] != "validate":
            out = tmp_path / f"readme_{i}.out"
            code = cli.run(_write(tmp_path, payload, f"readme_{i}.json"), out=str(out))
            capsys.readouterr()
            assert code == 0, f"README config block {i} failed with exit code {code}"
            ran += 1
    assert ran >= 2, "README should contain runnable task configs"
