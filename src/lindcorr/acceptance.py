"""Self-contained acceptance checks.

Each check draws its own seeded random instances, exercises one end-to-end
guarantee of the package against an independent reference, and raises
AssertionError with the measured numbers on failure.  The registry at the
bottom is shared by the test suite and the command-line ``validate`` task.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .decomposition import assign_rates, decompose_model, exact_bohr_decomposition
from .generators import (
    adjoint_lindbladian,
    dissipation_channels,
    forward_lindbladian,
    multi_slot_action,
    multi_slot_generator,
)
from .models import BathSpec, coupled_dimer, two_level_atom
from .operators import (
    dagger,
    expm,
    hermitian_eig,
    identity,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    unvec,
    vec,
)
from .oracles import (
    closed_correlator,
    finite_bath_correlators,
    golden_rule_band,
    naive_equation_integrator,
)
from .propagation import (
    CorrelatorSpec,
    contraction_functional,
    equal_time_group_correlator,
    general_correlator,
    integrate_ode,
    otoc,
    qrt_correlator,
    steady_state,
)


def _random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2 * d)


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    m = _random_matrix(rng, d)
    return m + m.conj().T


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    m = _random_matrix(rng, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _excited_projector() -> np.ndarray:
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0  # highest-energy basis state of the qubit models
    return p


def check_duality_and_unitality() -> str:
    """1: adjoint and forward generators are trace-pairing duals; L[1] = 0."""
    rng = np.random.default_rng(101)
    worst_dual = 0.0
    worst_unital = 0.0
    for k in range(100):
        d = int(rng.integers(2, 5))
        h = _random_hermitian(rng, d)
        s = _random_hermitian(rng, d)
        temp = 0.0 if k % 4 == 0 else float(rng.uniform(0.1, 2.0))
        bath = BathSpec(
            temperature=temp,
            rate_profile=float(rng.uniform(0.0, 0.5)),
            gamma0=float(rng.uniform(0.0, 0.3)),
        )
        dec = assign_rates(exact_bohr_decomposition(h, s), bath)
        lind = adjoint_lindbladian(h, dec)
        fwd = forward_lindbladian(h, dec)
        b = _random_matrix(rng, d)
        rho = _random_density(rng, d)
        lhs = np.trace(unvec(lind.matrix @ vec(b)) @ rho)
        rhs = np.trace(b @ unvec(fwd.matrix @ vec(rho)))
        worst_dual = max(worst_dual, abs(lhs - rhs))
        worst_unital = max(worst_unital, float(np.linalg.norm(lind.matrix @ vec(identity(d)))))
    assert worst_dual <= 1e-12, f"duality residual {worst_dual:.3e} exceeds 1e-12"
    assert worst_unital <= 1e-12, f"||L[identity]|| = {worst_unital:.3e} exceeds 1e-12"
    return f"100 random models: duality residual {worst_dual:.2e}, ||L[1]|| {worst_unital:.2e}"


def check_decomposition_identities() -> str:
    """2: completeness, eigenoperator property, and the conjugated re-sum."""
    rng = np.random.default_rng(211)
    worst_complete = worst_eigop = worst_resum = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        h = _random_hermitian(rng, d)
        s = _random_hermitian(rng, d)
        dec = exact_bohr_decomposition(h, s)
        resummed = dec.c0 + sum((m.operator + dagger(m.operator) for m in dec.modes),
                                start=np.zeros((d, d), dtype=complex))
        worst_complete = max(worst_complete, float(np.linalg.norm(resummed - s)))
        for m in dec.modes:
            res = np.linalg.norm(h @ m.operator - m.operator @ h + m.frequency * m.operator)
            worst_eigop = max(worst_eigop, float(res))
        energies, u = hermitian_eig(h)
        t_scale = 10.0 / max(float(np.linalg.norm(h)), 1e-6)
        for t in rng.uniform(0.0, t_scale, size=10):
            phases = np.exp(1j * energies * t)
            conj = (u * phases) @ u.conj().T @ s @ (u * phases.conj()) @ u.conj().T
            series = dec.c0 + sum(
                (m.operator * np.exp(-1j * m.frequency * t)
                 + dagger(m.operator) * np.exp(1j * m.frequency * t) for m in dec.modes),
                start=np.zeros((d, d), dtype=complex),
            )
            worst_resum = max(worst_resum, float(np.linalg.norm(conj - series)))
    assert worst_complete <= 1e-9, f"completeness residual {worst_complete:.3e} exceeds 1e-9"
    assert worst_eigop <= 1e-9, f"eigenoperator residual {worst_eigop:.3e} exceeds 1e-9"
    assert worst_resum <= 1e-9, f"conjugation residual {worst_resum:.3e} exceeds 1e-9"
    return (f"50 random pairs: completeness {worst_complete:.2e}, eigenoperator "
            f"{worst_eigop:.2e}, conjugation {worst_resum:.2e}")


def _random_models(rng: np.random.Generator, count: int):
    for k in range(count):
        if k % 2 == 0:
            gamma = float(rng.uniform(0.05, 0.3))
            yield two_level_atom(float(rng.uniform(0.6, 1.6)), gamma,
                                 float(rng.uniform(0.0, 1.0))), gamma
        else:
            gamma = float(rng.uniform(0.05, 0.2))
            yield coupled_dimer(
                float(rng.uniform(0.8, 1.2)), float(rng.uniform(1.2, 1.6)),
                float(rng.uniform(0.1, 0.3)), gamma, float(rng.uniform(0.05, 0.2)),
                float(rng.uniform(0.0, 0.8)),
            ), gamma


def check_regression_reduction() -> str:
    """3: a two-slot trace with an identity second slot is the one-slot correlator."""
    rng = np.random.default_rng(307)
    worst = 0.0
    for model, gamma in _random_models(rng, 20):
        d = model.dim
        decs = decompose_model(model)
        taus = np.linspace(0.0, 5.0 / gamma, 11)
        a1, a2, a3 = (_random_matrix(rng, d) for _ in range(3))
        b1 = _random_matrix(rng, d)
        rho = _random_density(rng, d)
        two = equal_time_group_correlator(
            model.hamiltonian, decs, [a1, a2, a3], [b1, identity(d)], rho, taus)
        one = qrt_correlator(model.hamiltonian, decs, a1, b1, a2 @ a3, rho, taus)
        worst = max(worst, float(np.max(np.abs(two.values - one.values))))
    assert worst <= 1e-10, f"reduction deviation {worst:.3e} exceeds 1e-10"
    return f"20 random instances: max pointwise deviation {worst:.2e}"


def check_grouping_consistency() -> str:
    """4: one slot carrying B1*B2 against two slots carrying (B1, B2)."""
    rng = np.random.default_rng(401)
    worst = 0.0
    for model in (two_level_atom(1.0, 0.12, 0.0),
                  coupled_dimer(1.0, 1.35, 0.25, 0.1, 0.08, 0.4)):
        d = model.dim
        decs = decompose_model(model)
        taus = np.linspace(0.0, 5.0 / 0.08, 11)
        eye = identity(d)
        for _ in range(20):
            b1, b2 = _random_matrix(rng, d), _random_matrix(rng, d)
            rho = _random_density(rng, d)
            grouped = equal_time_group_correlator(
                model.hamiltonian, decs, [eye, eye], [b1 @ b2], rho, taus)
            split = equal_time_group_correlator(
                model.hamiltonian, decs, [eye, eye, eye], [b1, b2], rho, taus)
            scale = max(float(np.max(np.abs(grouped.values))), 1e-300)
            worst = max(worst, float(np.max(np.abs(grouped.values - split.values))) / scale)
    assert worst <= 1e-8, f"grouping deviation {worst:.3e} exceeds 1e-8 (relative)"
    return f"two models x 20 operator pairs: max relative deviation {worst:.2e}"


def _brute_force_generator(h: np.ndarray, decomps, n_slots: int) -> np.ndarray:
    """Column-by-column n-slot generator from termwise matrix arithmetic: L on each
    slot, plus rate * [C^dag, .] on slot m1 times [., C] on slot m2 for each
    channel C and each slot pair m1 < m2."""
    d = h.shape[0]
    d2 = d * d
    channels = [(rate, c) for rate, c in dissipation_channels(decomps)]

    def lindblad(b: np.ndarray) -> np.ndarray:
        out = 1j * (h @ b - b @ h)
        for rate, c in channels:
            cd = c.conj().T
            out = out + rate * (cd @ b @ c - 0.5 * (cd @ c @ b) - 0.5 * (b @ cd @ c))
        return out

    basis = [unvec(np.eye(d2, dtype=complex)[:, k]) for k in range(d2)]
    cols = []
    for ops in itertools.product(basis, repeat=n_slots):
        terms = []
        for m in range(n_slots):
            term = list(ops)
            term[m] = lindblad(ops[m])
            terms.append(term)
        for m1, m2 in itertools.combinations(range(n_slots), 2):
            for rate, c in channels:
                p, q = c.conj().T, c
                term = list(ops)
                term[m1] = rate * (p @ ops[m1] - ops[m1] @ p)
                term[m2] = ops[m2] @ q - q @ ops[m2]
                terms.append(term)
        col = np.zeros(d2 ** n_slots, dtype=complex)
        for term in terms:
            col += reduce(np.kron, [vec(x) for x in term])
        cols.append(col)
    return np.column_stack(cols)


def check_two_slot_brute_force() -> str:
    """5: dense two-slot generator against the basis-loop builder; commutator-pair
    expansion into its four product placements."""
    worst_gen = 0.0
    for model in (two_level_atom(1.0, 0.1, 0.0), two_level_atom(1.0, 0.1, 0.7)):
        decs = decompose_model(model)
        built = multi_slot_generator(model.hamiltonian, decs, 2).matrix
        brute = _brute_force_generator(model.hamiltonian, decs, n_slots=2)
        worst_gen = max(worst_gen, float(np.max(np.abs(built - brute))))
    assert worst_gen <= 1e-12, f"two-slot generator deviation {worst_gen:.3e} exceeds 1e-12"

    rng = np.random.default_rng(509)
    worst_expand = 0.0
    for _ in range(20):
        p, q, b1, b2 = (_random_matrix(rng, 2) for _ in range(4))
        paired = np.kron(p @ b1 - b1 @ p, b2 @ q - q @ b2)
        placements = (
            np.kron(p @ b1, b2 @ q) - np.kron(p @ b1, q @ b2)
            - np.kron(b1 @ p, b2 @ q) + np.kron(b1 @ p, q @ b2)
        )
        worst_expand = max(worst_expand, float(np.max(np.abs(paired - placements))))
    assert worst_expand <= 1e-14, f"four-placement deviation {worst_expand:.3e} exceeds 1e-14"
    return f"generator entrywise {worst_gen:.2e}; four-placement expansion {worst_expand:.2e}"


def check_closed_system_limit() -> str:
    """6: with all rates zero the general driver is exact diagonalization."""
    rng = np.random.default_rng(601)
    silent = BathSpec(temperature=0.0, rate_profile=0.0, gamma0=0.0)
    worst = 0.0
    for k in range(12):
        d = 2 if k % 2 == 0 else 3
        h = _random_hermitian(rng, d)
        dec = assign_rates(exact_bohr_decomposition(h, _random_hermitian(rng, d)), silent)
        n_ins = 3 if k < 6 else 4
        if k % 3 == 0:
            pool = rng.uniform(0.0, 3.0, size=2)
            times = [float(pool[i % 2]) for i in range(n_ins)]  # interleaved (out-of-time-order)
        else:
            times = [float(t) for t in rng.uniform(0.0, 3.0, size=n_ins)]
        spec = CorrelatorSpec(
            tuple((_random_matrix(rng, d), t) for t in times),
            _random_density(rng, d),
        )
        got = general_correlator(h, dec, spec)
        ref = closed_correlator(h, spec)
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-8, f"closed-system deviation {worst:.3e} exceeds 1e-8"

    model = two_level_atom(1.0, 0.0, 0.0)
    decs = decompose_model(model)
    taus = np.linspace(0.0, 6.0, 20)
    f = otoc(model.hamiltonian, decs, sigma_x, sigma_z, identity(2) / 2, taus)
    worst_otoc = float(np.max(np.abs(f.values + 1.0)))
    assert worst_otoc <= 1e-10, f"closed OTOC deviates from -1 by {worst_otoc:.3e} > 1e-10"
    return f"12 random specs: deviation {worst:.2e}; OTOC flat at -1 within {worst_otoc:.2e}"


def check_damped_qubit_analytics() -> str:
    """7: coherence decay at half the population rate; thermal steady occupation."""
    omega0, gamma = 1.0, 0.1
    model = two_level_atom(omega0, gamma, 0.0)
    decs = decompose_model(model)
    taus = np.linspace(0.0, 40.0 / gamma, 81)
    trace = qrt_correlator(model.hamiltonian, decs, identity(2), sigma_plus, sigma_minus,
                           _excited_projector(), taus)
    worst = float(np.max(np.abs(np.abs(trace.values) - np.exp(-0.5 * gamma * taus))))
    assert worst <= 1e-6, f"coherence deviation {worst:.3e} exceeds 1e-6"

    warm = two_level_atom(omega0, gamma, omega0 / math.log(2.0))
    rho_ss = steady_state(warm)
    excited = float(rho_ss[0, 0].real)
    assert abs(excited - 1.0 / 3.0) <= 1e-10, (
        f"excited steady population {excited:.12f} differs from 1/3 by "
        f"{abs(excited - 1/3):.3e} > 1e-10"
    )
    return f"coherence envelope within {worst:.2e}; excited population {excited:.12f}"


def check_finite_bath_agreement() -> str:
    """8: system + 8 discrete modes, exactly diagonalized, against the dissipative
    pipeline.

    The coherence envelope must track the dissipative prediction within 10%.
    The OTOC bound is 20%: with eight modes spanning ten linewidths the exact
    dynamics carries an irreducible pre-Markov transient (tau below the bath
    correlation time ~ pi/bandwidth) and a finite-size recurrence tail, and the
    four-insertion correlator is roughly twice as exposed to both as the
    two-insertion coherence.  Mid-window agreement sits at the 1-4% level; the
    bound pins the measured boundary excursions (see README for the numbers).
    """
    omega0, gamma = 1.0, 0.05
    model = two_level_atom(omega0, gamma, 0.0)
    decs = decompose_model(model)
    bath = golden_rule_band(omega0, gamma, n_modes=8)
    taus = np.linspace(0.0, 2.0 / gamma, 21)
    rho_e = _excited_projector()

    lind = qrt_correlator(model.hamiltonian, decs, identity(2), sigma_plus, sigma_minus,
                          rho_e, taus)
    specs = [CorrelatorSpec(((sigma_plus, float(t)), (sigma_minus, 0.0)), rho_e) for t in taus]
    exact = np.array(finite_bath_correlators(model, bath, specs))
    rel_coh = float(np.max(np.abs(np.abs(exact) - np.abs(lind.values)) / np.abs(lind.values)))
    assert rel_coh <= 0.10, f"coherence magnitude deviation {rel_coh:.3f} exceeds 10%"

    mixed = identity(2) / 2
    lind_otoc = otoc(model.hamiltonian, decs, sigma_y, sigma_z, mixed, taus)
    otoc_specs = [
        CorrelatorSpec(((sigma_y, float(t)), (sigma_z, 0.0), (sigma_y, float(t)), (sigma_z, 0.0)),
                       mixed)
        for t in taus
    ]
    exact_otoc = np.array(finite_bath_correlators(model, bath, otoc_specs))
    scale = float(np.max(np.abs(lind_otoc.values)))
    rel_otoc = float(np.max(np.abs(exact_otoc - lind_otoc.values))) / scale
    assert rel_otoc <= 0.20, f"OTOC deviation {rel_otoc:.3f} exceeds 20%"
    return f"coherence within {100 * rel_coh:.1f}%, OTOC within {100 * rel_otoc:.1f}%"


def check_integrator_consistency() -> str:
    """9: the action kernel (``integrate_ode``, Al-Mohy & Higham's
    interval algorithm) against the dense exponential propagator; first-order
    convergence of the naive stepper."""
    from .models import truncated_oscillator

    rng = np.random.default_rng(907)
    worst = 0.0
    for model in (two_level_atom(1.0, 0.1, 0.0),
                  truncated_oscillator(1.0, 5, 0.08, 0.3),
                  coupled_dimer(1.0, 1.3, 0.2, 0.1, 0.07, 0.5)):
        decs = decompose_model(model)
        lind = adjoint_lindbladian(model.hamiltonian, decs)
        sparse = multi_slot_action(model.hamiltonian, decs, 1).to_csr()
        v0 = vec(_random_hermitian(rng, model.dim))
        grid = np.linspace(0.0, 3.0, 7)
        stepped = integrate_ode(sparse, v0, grid)
        for t, v in zip(grid, stepped):
            ref = expm(lind.matrix, float(t)) @ v0
            worst = max(worst, float(np.max(np.abs(v - ref))))
    assert worst <= 1e-9, f"action-kernel-vs-expm deviation {worst:.3e} exceeds 1e-9"

    model = two_level_atom(1.0, 0.25, 0.0)
    decs = decompose_model(model)
    eye = identity(2)
    plus = np.full((2, 2), 0.5, dtype=complex)  # coherent state: nonzero signal
    ref = equal_time_group_correlator(
        model.hamiltonian, decs, [eye, eye, eye], [sigma_x, sigma_z], plus, [1.0]).values[0]
    errs = [
        abs(naive_equation_integrator(model, decs, [sigma_x, sigma_z], [eye, eye, eye],
                                      plus, 1.0, h) - ref)
        for h in (0.02, 0.01)
    ]
    order = math.log2(errs[0] / errs[1])
    assert 0.9 <= order <= 1.1, f"Euler convergence order {order:.3f} outside [0.9, 1.1]"
    return f"action kernel deviation {worst:.2e}; Euler order {order:.3f}"


def check_cli_determinism() -> str:
    """10: repeated runs of one config produce byte-identical output."""
    from . import cli

    config = {
        "model": {"name": "two_level_atom",
                  "params": {"omega0": 1.0, "gamma": 0.1, "temperature": 0.0}},
        "task": "corr",
        "params": {
            "b": "s+",
            "a2": "s-",
            "initial_state": "excited",
            "taus": {"start": 0.0, "stop": 40.0, "points": 81},
        },
        "output": {"format": "csv", "abs": True},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        outputs = []
        for k in range(2):
            out_path = os.path.join(tmp, f"out_{k}.csv")
            code = cli.run(cfg_path, out=out_path)
            assert code == 0, f"corr task exited with {code}"
            with open(out_path, "rb") as fh:
                outputs.append(fh.read())
    assert outputs[0] == outputs[1], "repeated runs differ byte-for-byte"
    gamma = 0.1
    lines = outputs[0].decode().strip().splitlines()
    assert lines[0] == "tau,re,im,abs"
    worst = 0.0
    for row in lines[1:]:
        tau, _re, _im, mag = (float(x) for x in row.split(","))
        worst = max(worst, abs(mag - math.exp(-0.5 * gamma * tau)))
    assert worst <= 1e-6, f"CSV magnitude deviates from the analytic envelope by {worst:.3e}"
    return f"byte-identical CSV ({len(outputs[0])} bytes); envelope within {worst:.2e}"


@dataclass(frozen=True)
class CheckOutcome:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


ACCEPTANCE_CHECKS: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "generator duality and unitality", check_duality_and_unitality),
    (2, "decomposition identities", check_decomposition_identities),
    (3, "one-slot reduction of the two-slot equation", check_regression_reduction),
    (4, "grouping self-consistency", check_grouping_consistency),
    (5, "two-slot generator vs brute force", check_two_slot_brute_force),
    (6, "closed-system exactness", check_closed_system_limit),
    (7, "damped-qubit analytics", check_damped_qubit_analytics),
    (8, "finite-bath validation", check_finite_bath_agreement),
    (9, "integrator cross-checks", check_integrator_consistency),
    (10, "command-line determinism", check_cli_determinism),
)


def run_acceptance(numbers=None) -> list[CheckOutcome]:
    """Run the selected checks (all by default), never raising: failures are
    recorded as outcomes with the assertion text."""
    outcomes = []
    for number, name, fn in ACCEPTANCE_CHECKS:
        if numbers is not None and number not in numbers:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        outcomes.append(CheckOutcome(number, name, passed, detail,
                                     time.perf_counter() - start))
    return outcomes
