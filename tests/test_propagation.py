import bisect
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lindcorr import (
    BathSpec,
    CorrelatorSpec,
    CorrelatorTrace,
    DegenerateSteadyStateError,
    SlotBudgetError,
    annihilation,
    assign_rates,
    contraction_functional,
    coupled_dimer,
    dagger,
    decompose_model,
    dissipation_channels,
    elementary_tensor,
    equal_time_group_correlator,
    evolve_density,
    exact_bohr_decomposition,
    expm,
    forward_lindbladian,
    general_correlator,
    identity,
    integrate_ode,
    multi_slot_action,
    multi_slot_generator,
    otoc,
    qrt_correlator,
    sigma_plus,
    sigma_x,
    sigma_z,
    steady_state,
    truncated_oscillator,
    two_level_atom,
    unvec,
    vec,
)
from lindcorr import generators, propagation

from conftest import random_density, random_hermitian, random_matrix


EYE2 = identity(2)


def _qubit(gamma=0.1, temperature=0.0, omega0=1.0):
    model = two_level_atom(omega0, gamma, temperature)
    return model.hamiltonian, decompose_model(model)


def _silent(h, coupling):
    """Purely Hamiltonian dynamics packaged as a zero-rate decomposition."""
    bath = BathSpec(temperature=0.0, rate_profile=0.0)
    return assign_rates(exact_bohr_decomposition(h, coupling), bath)


def _plus_state():
    return np.full((2, 2), 0.5, dtype=complex)


# ---------------------------------------------------------------- contraction


def test_contraction_matches_product_trace(rng):
    # oracle: assemble the operator string and trace it directly
    for n in (1, 2, 3):
        d = 3
        a_ops = [random_matrix(rng, d) for _ in range(n + 1)]
        x_ops = [random_matrix(rng, d) for _ in range(n)]
        rho = random_density(rng, d)
        w = contraction_functional(a_ops, rho)
        tensor = vec(x_ops[0])
        for x in x_ops[1:]:
            tensor = np.kron(tensor, vec(x))
        prod = a_ops[0]
        for a, x in zip(a_ops[1:], x_ops):
            prod = prod @ x @ a
        expected = np.trace(prod @ rho)
        assert abs(w @ tensor - expected) < 1e-12


def test_contraction_needs_two_matrices(rng):
    with pytest.raises(ValueError, match="at least two"):
        contraction_functional([EYE2], random_density(rng, 2))


def test_contraction_rejects_dimension_mismatch(rng):
    with pytest.raises(ValueError, match="dimension"):
        contraction_functional([EYE2, identity(3)], random_density(rng, 2))


# ------------------------------------------------------------ state evolution


def test_evolve_density_time_zero_is_identity(rng):
    h, decs = _qubit(gamma=0.4, temperature=0.3)
    rho = random_density(rng, 2)
    assert np.max(np.abs(evolve_density(h, decs, rho, 0.0) - rho)) < 1e-14


def test_evolve_density_population_decay():
    gamma = 0.25
    h, decs = _qubit(gamma=gamma)
    excited = np.diag([1.0, 0.0]).astype(complex)
    for t in (0.5, 2.0, 7.0):
        rho = evolve_density(h, decs, excited, t)
        assert abs(rho[0, 0].real - np.exp(-gamma * t)) < 1e-8


def test_evolve_density_stays_physical(rng):
    h, decs = _qubit(gamma=0.3, temperature=0.9)
    rho = _plus_state()
    for t in (0.1, 1.0, 10.0, 50.0):
        out = evolve_density(h, decs, rho, t)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) == 0.0
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_evolve_density_validates_inputs(rng):
    h, decs = _qubit()
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match=">= 0"):
        evolve_density(h, decs, rho, -0.1)
    with pytest.raises(ValueError, match="unit trace"):
        evolve_density(h, decs, 2.0 * rho, 1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_density(h, decs, rho + 0.1 * sigma_plus, 1.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        evolve_density(h, decs, np.diag([1.5, -0.5]).astype(complex), 1.0)


def test_evolve_density_rejects_non_finite_time(rng):
    h, decs = _qubit()
    rho = random_density(rng, 2)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve_density(h, decs, rho, t)


def test_steady_state_zero_temperature_is_ground():
    model = two_level_atom(1.0, 0.2, 0.0)
    rho = steady_state(model)
    assert np.max(np.abs(rho - np.diag([0.0, 1.0]))) < 1e-10


def test_steady_state_obeys_detailed_balance():
    omega0, temp = 1.0, 0.6
    model = two_level_atom(omega0, 0.15, temp)
    rho = steady_state(model)
    ratio = rho[0, 0].real / rho[1, 1].real
    assert abs(ratio - np.exp(-omega0 / temp)) < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_steady_state_degenerate_without_dissipation():
    model = two_level_atom(1.0, 0.0, 0.0)
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(model)
    assert excinfo.value.multiplicity == 2


@pytest.mark.parametrize("null_tol", [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf])
def test_steady_state_rejects_null_tol_outside_unit_interval(null_tol):
    with pytest.raises(ValueError, match="null_tol"):
        steady_state(two_level_atom(1.0, 0.2, 0.3), null_tol=null_tol)


def _oscillator(dim, gamma=0.1, temperature=0.5):
    return truncated_oscillator(omega0=1.0, dim=dim, gamma=gamma, temperature=temperature)


def _forward_matrix(model):
    return forward_lindbladian(model.hamiltonian, decompose_model(model)).matrix


def _svd_nullity(model, null_tol=1e-9):
    """Null-space dimension of the forward generator by the SVD criterion."""
    s = np.linalg.svd(_forward_matrix(model), compute_uv=False)
    return int(np.sum(s <= null_tol * s[0]))


def _svd_steady_state(model):
    """The steady state as the SVD null vector of the forward generator."""
    _u, _s, vh = np.linalg.svd(_forward_matrix(model))
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [20, 30])
def test_steady_state_sparse_level_matches_svd(dim):
    model = _oscillator(dim)
    expected = _svd_steady_state(model)
    rho = steady_state(model)
    assert not propagation._held[1].dense(1)
    assert np.max(np.abs(rho - expected)) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0


def test_steady_state_sparse_rate_free_reports_multiplicity():
    # H = n on 17 levels: every diagonal matrix is stationary
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(_oscillator(17, gamma=0.0))
    assert excinfo.value.multiplicity == 17


NEAR_DEGENERATE = {
    "qubit": lambda r: two_level_atom(1.0, r, 0.5),
    "dimer": lambda r: coupled_dimer(omega1=1.0, omega2=1.25, g=0.3, gamma1=r, gamma2=0.6 * r,
                                     temperature=0.6),
    "oscillator-8": lambda r: _oscillator(8, gamma=r),
    "oscillator-20": lambda r: _oscillator(20, gamma=r),
}


@pytest.mark.parametrize("family", NEAR_DEGENERATE)
def test_steady_state_near_degenerate_family_matches_svd_decision(family, monkeypatch):
    # rates going to 0 cross the SVD threshold; the bordered LU (every level
    # made sparse below) and the dense SVD of G_1 must decide as the SVD of F
    differing = []
    for rate in np.geomspace(1e-3, 1e-12, 28):
        model = NEAR_DEGENERATE[family](rate)
        multiplicity = _svd_nullity(model)
        dense = model.dim ** 2 <= generators.DEFAULT_SLOT_BUDGET
        for budget in (generators.DEFAULT_SLOT_BUDGET, 1) if dense else (1,):
            monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", budget)
            try:
                rho = steady_state(model)
            except DegenerateSteadyStateError as exc:
                if exc.multiplicity != multiplicity:
                    differing.append((rate, budget, exc.multiplicity, multiplicity))
                continue
            if multiplicity != 1:
                differing.append((rate, budget, 1, multiplicity))
                continue
            g = multi_slot_action(model.hamiltonian, decompose_model(model), 1).to_csr()
            _w, kappa = propagation._bordered_null_vector(g)
            if kappa <= 1e4:
                assert np.max(np.abs(rho - _svd_steady_state(model))) < 1e-10
            else:
                residual = g.T @ vec(rho.T)
                assert np.max(np.abs(residual)) < 1e-12 * abs(g).sum(axis=0).max()
    assert differing == []


def test_steady_state_leaves_sparse_unloaded_on_dense_level():
    code = ("import sys, lindcorr as lc; "
            "lc.steady_state(lc.coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)); "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_steady_state_shares_the_one_slot_generator(monkeypatch):
    model = _oscillator(30)
    decs = decompose_model(model)
    assembled = []
    action = propagation.multi_slot_action
    monkeypatch.setattr(propagation, "multi_slot_action",
                        lambda h, d, n: assembled.append(n) or action(h, d, n))
    rho = steady_state(model, decs)
    a = annihilation(30)
    qrt_correlator(model.hamiltonian, decs, identity(30), dagger(a), a, rho,
                   np.linspace(0.0, 1.0, 3))
    assert assembled == [1]


def test_evolve_density_sparse_level_matches_forward_expm(rng):
    model = _oscillator(17)
    decs = decompose_model(model)
    rho0 = random_density(rng, 17)
    f = forward_lindbladian(model.hamiltonian, decs).matrix
    for t in (0.5, 3.0):
        expected = unvec(expm(f, t) @ vec(rho0))
        rho = evolve_density(model.hamiltonian, decs, rho0, t)
        assert np.max(np.abs(rho - expected)) < 1e-12
    assert not propagation._held[1].dense(1)


def test_general_correlator_enters_the_engine_once(rng, monkeypatch):
    h, decs = _qubit(gamma=0.3, temperature=0.4)
    entries = []
    held = propagation._model_evolver

    def counted(*args):
        entries.append(args)
        return held(*args)

    monkeypatch.setattr(propagation, "_model_evolver", counted)
    spec = _swept_spec(rng, 2, [None, 1.0, 0.5], np.array([1.5]))
    general_correlator(h, decs, spec, taus=np.linspace(1.0, 2.0, 4))
    assert len(entries) == 1


# ------------------------------------------------------------ qrt correlators


def test_qrt_identity_running_operator_is_constant(rng):
    h, decs = _qubit(gamma=0.2, temperature=0.5)
    rho = random_density(rng, 2)
    a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
    trace = qrt_correlator(h, decs, a1, EYE2, a2, rho, np.linspace(0.0, 5.0, 11))
    expected = np.trace(a1 @ a2 @ rho)
    assert np.max(np.abs(trace.values - expected)) < 1e-12


def test_qrt_value_at_zero_offset(rng):
    h, decs = _qubit(gamma=0.2, temperature=0.5)
    rho = random_density(rng, 2)
    a1, b, a2 = (random_matrix(rng, 2) for _ in range(3))
    trace = qrt_correlator(h, decs, a1, b, a2, rho, [0.0])
    assert abs(trace.values[0] - np.trace(a1 @ b @ a2 @ rho)) < 1e-13


def test_qrt_damped_coherence_envelope():
    omega0, gamma = 1.0, 0.1
    h, decs = _qubit(gamma=gamma, omega0=omega0)
    taus = np.linspace(0.0, 30.0, 61)
    trace = qrt_correlator(h, decs, EYE2, sigma_plus, EYE2, _plus_state(), taus)
    expected = 0.5 * np.exp((1j * omega0 - gamma / 2) * taus)
    assert np.max(np.abs(trace.values - expected)) < 1e-9


def test_qrt_zero_rates_match_unitary_evolution(rng):
    h = random_hermitian(rng, 3)
    dec = _silent(h, random_hermitian(rng, 3))
    rho = random_density(rng, 3)
    a1, b, a2 = (random_matrix(rng, 3) for _ in range(3))
    taus = np.linspace(0.0, 4.0, 9)
    trace = qrt_correlator(h, dec, a1, b, a2, rho, taus)
    for tau, got in zip(taus, trace.values):
        u = expm(1j * h, tau)
        expected = np.trace(a1 @ (u @ b @ u.conj().T) @ a2 @ rho)
        assert abs(got - expected) < 1e-9


# ----------------------------------------------------- equal-time group sweep


def test_equal_time_single_slot_reduces_to_qrt(rng):
    h, decs = _qubit(gamma=0.3, temperature=0.4)
    rho = random_density(rng, 2)
    a1, b, a2 = (random_matrix(rng, 2) for _ in range(3))
    taus = np.linspace(0.0, 6.0, 13)
    grouped = equal_time_group_correlator(h, decs, [a1, a2], [b], rho, taus)
    plain = qrt_correlator(h, decs, a1, b, a2, rho, taus)
    assert np.max(np.abs(grouped.values - plain.values)) < 1e-12


def test_equal_time_identity_slot_reduces_the_group(rng):
    # appending an identity slot must not change the correlator
    h, decs = _qubit(gamma=0.3, temperature=0.4)
    rho = random_density(rng, 2)
    b1, b2 = random_matrix(rng, 2), random_matrix(rng, 2)
    taus = np.linspace(0.0, 5.0, 11)
    two = equal_time_group_correlator(h, decs, [EYE2, EYE2, EYE2], [b1, b2], rho, taus)
    three = equal_time_group_correlator(h, decs, [EYE2, EYE2, EYE2, EYE2],
                                        [b1, b2, EYE2], rho, taus)
    assert np.max(np.abs(two.values - three.values)) < 1e-10


def test_equal_time_hermitian_observable_is_real(rng):
    h, decs = _qubit(gamma=0.2, temperature=0.6)
    rho = random_density(rng, 2)
    b = random_hermitian(rng, 2)
    taus = np.linspace(0.0, 8.0, 17)
    trace = equal_time_group_correlator(h, decs, [EYE2, EYE2], [b], rho, taus)
    assert np.max(np.abs(trace.values.imag)) < 1e-10


def test_equal_time_semigroup_reanchoring(rng):
    # sweeping straight to t+tau equals anchoring the state at t, then tau
    h, decs = _qubit(gamma=0.23, temperature=0.3)
    rho0 = random_density(rng, 2)
    b1, b2 = random_matrix(rng, 2), random_matrix(rng, 2)
    t, tau = 1.7, 2.4
    direct = equal_time_group_correlator(h, decs, [EYE2] * 3, [b1, b2], rho0, [t + tau])
    rho_t = evolve_density(h, decs, rho0, t)
    anchored = equal_time_group_correlator(h, decs, [EYE2] * 3, [b1, b2], rho_t, [tau])
    assert abs(direct.values[0] - anchored.values[0]) < 1e-9


def test_equal_time_validates_counts(rng):
    h, decs = _qubit()
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match="insertion matrices"):
        equal_time_group_correlator(h, decs, [EYE2, EYE2], [sigma_x, sigma_z], rho, [0.0])
    with pytest.raises(ValueError, match="at least one"):
        equal_time_group_correlator(h, decs, [EYE2], [], rho, [0.0])


def test_equal_time_matrix_free_matches_dense(rng, monkeypatch):
    h, decs = _qubit(gamma=0.17, temperature=0.25)
    rho = random_density(rng, 2)
    b1, b2 = random_matrix(rng, 2), random_matrix(rng, 2)
    taus = np.linspace(0.0, 3.0, 7)
    dense = equal_time_group_correlator(h, decs, [EYE2] * 3, [b1, b2], rho, taus)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 4)
    free = equal_time_group_correlator(h, decs, [EYE2] * 3, [b1, b2], rho, taus)
    assert np.max(np.abs(dense.values - free.values)) < 1e-12


# ----------------------------------------------------------------------- otoc


def test_otoc_value_at_zero(rng):
    h, decs = _qubit(gamma=0.2, temperature=0.4)
    rho = random_density(rng, 2)
    w_op, v_op = random_matrix(rng, 2), random_matrix(rng, 2)
    trace = otoc(h, decs, w_op, v_op, rho, [0.0])
    expected = np.trace(w_op.conj().T @ v_op.conj().T @ w_op @ v_op @ rho)
    assert abs(trace.values[0] - expected) < 1e-13


def test_otoc_closed_qubit_is_frozen():
    # anticommuting unitaries keep the closed-system value pinned at -1
    h, _ = _qubit()
    dec = _silent(h, sigma_x)
    rho = 0.5 * EYE2
    taus = np.linspace(0.0, 10.0, 21)
    trace = otoc(h, dec, sigma_x, sigma_z, rho, taus)
    assert np.max(np.abs(trace.values + 1.0)) < 1e-10


def test_otoc_matches_exact_heisenberg_product(rng):
    h = random_hermitian(rng, 2)
    dec = _silent(h, random_hermitian(rng, 2))
    rho = random_density(rng, 2)
    w_op, v_op = random_matrix(rng, 2), random_matrix(rng, 2)
    taus = np.linspace(0.0, 3.0, 7)
    trace = otoc(h, dec, w_op, v_op, rho, taus)
    for tau, got in zip(taus, trace.values):
        u = expm(1j * h, tau)
        w_t = u @ w_op @ u.conj().T
        expected = np.trace(w_t.conj().T @ v_op.conj().T @ w_t @ v_op @ rho)
        assert abs(got - expected) < 1e-9


# --------------------------------------------------------- general correlator


def _forward_cascade_two_time(h, decs, spec):
    """Oracle for two insertions at distinct times, by forward propagation.

    Both operator orders reduce to sandwiching the early insertion around the
    propagated state, evolving the result across the gap, and closing the
    trace with the late insertion.
    """
    (op_a, t_a), (op_b, t_b) = spec.insertions
    fwd = forward_lindbladian(h, decs).matrix
    if t_a >= t_b:
        late_op, t_late, early_op, t_early, early_side = op_a, t_a, op_b, t_b, "right"
    else:
        late_op, t_late, early_op, t_early, early_side = op_b, t_b, op_a, t_a, "left"
    rho_early = unvec(expm(fwd, t_early) @ vec(spec.initial_state))
    seeded = early_op @ rho_early if early_side == "right" else rho_early @ early_op
    carried = unvec(expm(fwd, t_late - t_early) @ vec(seeded))
    return np.trace(late_op @ carried)


def test_general_single_insertion_is_expectation(rng):
    h, decs = _qubit(gamma=0.3, temperature=0.5)
    rho = random_density(rng, 2)
    b = random_matrix(rng, 2)
    t = 1.9
    spec = CorrelatorSpec(((b, t),), rho)
    got = general_correlator(h, decs, spec)
    expected = np.trace(b @ evolve_density(h, decs, rho, t))
    assert abs(got - expected) < 1e-12


def test_general_two_time_both_orders(rng):
    h, decs = _qubit(gamma=0.21, temperature=0.35)
    rho = random_density(rng, 2)
    x, y = random_matrix(rng, 2), random_matrix(rng, 2)
    for t_pair in ((2.5, 1.0), (1.0, 2.5), (3.0, 0.0)):
        spec = CorrelatorSpec(((x, t_pair[0]), (y, t_pair[1])), rho)
        got = general_correlator(h, decs, spec)
        assert abs(got - _forward_cascade_two_time(h, decs, spec)) < 1e-9


def test_general_equal_time_group_agrees(rng):
    h, decs = _qubit(gamma=0.18, temperature=0.4)
    rho = random_density(rng, 2)
    b1, b2 = random_matrix(rng, 2), random_matrix(rng, 2)
    t = 2.2
    spec = CorrelatorSpec(((b1, t), (b2, t)), rho)
    got = general_correlator(h, decs, spec)
    grouped = equal_time_group_correlator(h, decs, [EYE2] * 3, [b1, b2], rho, [t])
    assert abs(got - grouped.values[0]) < 1e-12


def test_general_three_insertions_against_unitary(rng):
    h = random_hermitian(rng, 2)
    dec = _silent(h, random_hermitian(rng, 2))
    rho = random_density(rng, 2)
    ops = [random_matrix(rng, 2) for _ in range(3)]
    times = (2.0, 0.7, 1.4)
    spec = CorrelatorSpec(tuple(zip(ops, times)), rho)
    got = general_correlator(h, dec, spec)
    heis = []
    for op, t in zip(ops, times):
        u = expm(1j * h, t)
        heis.append(u @ op @ u.conj().T)
    expected = np.trace(heis[0] @ heis[1] @ heis[2] @ rho)
    assert abs(got - expected) < 1e-9


def test_general_sweep_matches_pointwise(rng):
    h, decs = _qubit(gamma=0.27, temperature=0.2)
    rho = random_density(rng, 2)
    x, y = random_matrix(rng, 2), random_matrix(rng, 2)
    taus = np.array([1.0, 1.8, 2.6, 3.4])
    spec = CorrelatorSpec(((x, 3.0), (y, 1.0)), rho)
    trace = general_correlator(h, decs, spec, taus=taus)
    assert isinstance(trace, CorrelatorTrace)
    for tau, got in zip(taus, trace.values):
        single = CorrelatorSpec(((x, float(tau)), (y, 1.0)), rho)
        assert abs(got - general_correlator(h, decs, single)) < 1e-12


def test_general_sweep_validates_floor(rng):
    h, decs = _qubit()
    rho = random_density(rng, 2)
    spec = CorrelatorSpec(((sigma_x, 2.0), (sigma_z, 1.0)), rho)
    with pytest.raises(ValueError, match="precede"):
        general_correlator(h, decs, spec, taus=[0.5, 1.5])


def test_general_budget_fail_fast(rng, monkeypatch):
    h, decs = _qubit()
    rho = random_density(rng, 2)
    spec = CorrelatorSpec(
        ((sigma_x, 3.0), (sigma_z, 2.0), (sigma_x, 1.0)), rho
    )
    # the first level evolved has two slots (16 coordinates), sparse at budget 7;
    # its byte bound is over the lowered cap, and nothing is evolved before the refusal
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 7)
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 1000)
    calls = _count_expm(monkeypatch)
    with pytest.raises(SlotBudgetError) as excinfo:
        general_correlator(h, decs, spec)
    assert excinfo.value.required == generators.multi_slot_action(h, decs, 2).csr_bytes()
    assert "bytes" in str(excinfo.value)
    assert calls == []


def test_general_matrix_free_recursion(rng, monkeypatch):
    # slot budget forces the sparse engine at depth two while values stay put
    h, decs = _qubit(gamma=0.3, temperature=0.15)
    rho = random_density(rng, 2)
    x, y, z = (random_matrix(rng, 2) for _ in range(3))
    spec = CorrelatorSpec(((x, 2.0), (y, 1.4), (z, 0.8)), rho)
    dense = general_correlator(h, decs, spec)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
    free = general_correlator(h, decs, spec)
    assert abs(dense - free) < 1e-12


def _sparse_orders(monkeypatch):
    """Orders of the generators stepped by integrate_ode, one entry per call."""
    orders = []
    integrate = propagation.integrate_ode

    def counted(gen, v0, grid):
        orders.append(gen.shape[0])
        return integrate(gen, v0, grid)

    monkeypatch.setattr(propagation, "integrate_ode", counted)
    return orders


def _forward_recursion(h, decs, spec):
    """Oracle: one correlator value by the descending-time recursion.

    The insertions holding the latest time start as one slot tensor.  It
    evolves under the dense n-slot generator down to each earlier insertion
    time, where the insertions held there splice in as new slots at their
    positions in the operator string; at the earliest time it contracts
    against the forward-evolved state.
    """
    ops = [op for op, _t in spec.insertions]
    times = [t for _op, t in spec.insertions]
    levels = sorted(set(times), reverse=True)
    d2 = spec.dim ** 2
    slots = [i for i, t in enumerate(times) if t == levels[0]]
    tensor = elementary_tensor([ops[i] for i in slots])
    for hi, lo in zip(levels, levels[1:]):
        tensor = expm(multi_slot_generator(h, decs, len(slots)).matrix, hi - lo) @ tensor
        for i in [i for i, t in enumerate(times) if t == lo]:
            pos = bisect.bisect_left(slots, i)
            grown = np.tensordot(tensor.reshape((d2,) * len(slots)), vec(ops[i]), axes=0)
            tensor = np.moveaxis(grown, -1, pos).reshape(-1)
            slots.insert(pos, i)
    fwd = forward_lindbladian(h, decs).matrix
    rho = unvec(expm(fwd, levels[-1]) @ vec(spec.initial_state))
    w = contraction_functional([identity(spec.dim)] * (len(slots) + 1), rho)
    return complex(w @ tensor)


def _dimer():
    model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    return model.hamiltonian, decompose_model(model)


def _swept_spec(rng, dim, pattern, taus):
    """Random insertions at `pattern`'s times, None marking the swept ones (at taus[-1])."""
    ops = [random_matrix(rng, dim) for _ in pattern]
    times = [taus[-1] if t is None else t for t in pattern]
    return CorrelatorSpec(tuple(zip(ops, times)), random_density(rng, dim))


def _moved(spec, tau):
    t_max = max(t for _op, t in spec.insertions)
    return CorrelatorSpec(tuple((op, tau if t == t_max else t) for op, t in spec.insertions),
                          spec.initial_state)


# (system, insertion times with None marking the swept ones, sweep grid); the
# three-fixed-times pattern runs on the qubit only, since the oracle would need
# a 4096-order expm for the dimer's 3-slot level
SWEEP_CASES = {
    f"{name}-{system.__name__.strip('_')}": (system, pattern, taus)
    for name, pattern, taus, systems in [
        ("interleaved", [None, 1.0, None, 1.0], np.linspace(1.3, 4.0, 5), (_qubit, _dimer)),
        ("two-fixed", [None, 1.4, 0.6], np.linspace(1.5, 4.5, 5), (_qubit, _dimer)),
        ("three-fixed", [None, 1.5, 1.0, 0.5], np.linspace(1.5, 4.0, 6), (_qubit,)),
        ("tau-at-floor", [1.0, None, 0.4], np.linspace(1.0, 3.0, 5), (_qubit, _dimer)),
        ("all-swept", [None, None, None], np.linspace(0.0, 3.0, 5), (_qubit, _dimer)),
    ]
    for system in systems
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_general_sweep_matches_forward_recursion(rng, case):
    system, pattern, taus = SWEEP_CASES[case]
    h, decs = system()
    spec = _swept_spec(rng, h.shape[0], pattern, taus)
    trace = general_correlator(h, decs, spec, taus=taus)
    expected = np.array([_forward_recursion(h, decs, _moved(spec, tau)) for tau in taus])
    assert np.max(np.abs(trace.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_general_matrix_free_pull_back(rng, monkeypatch):
    # at budget 16 the 3-slot level (64 coordinates) alone is matrix-free; the
    # pulled-back contraction is zero on some of its blocks, so the blocks it
    # touches, more than 16 coordinates, are stepped by expm_multiply
    h, decs = _qubit(gamma=0.3, temperature=0.15)
    taus = np.linspace(1.5, 3.5, 5)
    spec = _swept_spec(rng, 2, [None, 1.5, 1.0, 0.5], taus)
    expected = np.array([_forward_recursion(h, decs, _moved(spec, tau)) for tau in taus])
    orders = _sparse_orders(monkeypatch)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 16)
    trace = general_correlator(h, decs, spec, taus=taus)
    assert orders and all(16 < order <= 4 ** 3 for order in orders)
    assert np.max(np.abs(trace.values - expected)) < 1e-12


def test_general_sweep_expm_count(rng, monkeypatch):
    # one pull-back per sweep: an expm per distinct grid step, per fixed gap and for the state
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    t1, t2 = 0.6, 1.4
    taus = np.linspace(t2, t2 + 20.0, 200)
    spec = _swept_spec(rng, 2, [None, None, t2, t1], taus)
    calls = []
    expm_ = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda m, t: calls.append(t) or expm_(m, t))
    general_correlator(h, decs, spec, taus=taus)
    steps = np.diff(taus - t2, prepend=0.0)
    distinct_steps = len(set(steps[steps != 0.0]))
    fixed_levels = 2
    assert len(calls) <= distinct_steps + fixed_levels + 1


def test_uniform_sweep_makes_one_step_expm(rng, monkeypatch):
    # the steps of a linspace grid differ in their last bits; they share one
    # propagator on the dense engine and one expm_multiply call on the sparse one
    import scipy.sparse.linalg

    h, decs = _qubit(gamma=0.1, temperature=0.5)
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 20.0, 200))
    steps = np.diff(args[-1])
    assert len(set(steps)) > 1
    calls = _count_expm(monkeypatch)
    dense = otoc(h, decs, *args)
    assert len(calls) == 1
    multiply = []
    expm_multiply = scipy.sparse.linalg.expm_multiply
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply",
                        lambda *a, **k: multiply.append(k["num"]) or expm_multiply(*a, **k))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 4)
    sparse = otoc(h, decs, *args)
    assert multiply == [200]
    assert np.max(np.abs(dense.values - sparse.values)) < 1e-12


def test_sparse_engine_leaves_global_rng_alone(rng):
    # at gap 5 the dim-30 generator's 1-norm is estimated, which draws random numbers
    model = truncated_oscillator(1.0, 30, 0.1, 0.5)
    decs = decompose_model(model)
    a = annihilation(30)
    rho = random_density(rng, 30)
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        trace = qrt_correlator(model.hamiltonian, decs, identity(30), dagger(a), a, rho, [0.0, 5.0])
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
        runs.append(trace.values)
    assert not propagation._held[1].dense(1)
    assert np.array_equal(runs[0], runs[1])


def test_held_engine_bytes_bounded(rng):
    # one 3-slot dimer call holds a CSR generator, not a 4096-order dense one
    h, decs = _dimer()
    taus = np.linspace(0.5, 2.5, 5)
    general_correlator(h, decs, _swept_spec(rng, 4, [None, None, None, 0.5], taus), taus=taus)
    ev = propagation._held[1]
    assert (3, False) in ev._generators
    held = 0
    for m in [*ev._generators.values(), *ev._propagators.values()]:
        parts = (m.data, m.indices, m.indptr) if hasattr(m, "indptr") else (m,)
        held += sum(p.nbytes for p in parts)
    assert held < 16 * 2 ** 20


def test_csr_byte_cap_refuses_before_assembly(rng, monkeypatch):
    h, decs = _dimer()
    bound = generators.multi_slot_action(h, decs, 3).csr_bytes()
    assembled = []
    assemble = generators.SlotKroneckerAction._assemble
    monkeypatch.setattr(generators.SlotKroneckerAction, "_assemble",
                        lambda action, *a: assembled.append(action.slots) or assemble(action, *a))
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound - 1)
    b_ops = [random_matrix(rng, 4) for _ in range(3)]
    with pytest.raises(SlotBudgetError) as excinfo:
        equal_time_group_correlator(h, decs, [identity(4)] * 4, b_ops, random_density(rng, 4), [0.0, 1.0])
    assert excinfo.value.required == bound and excinfo.value.budget == bound - 1
    assert assembled == []
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound)
    equal_time_group_correlator(h, decs, [identity(4)] * 4, b_ops, random_density(rng, 4), [0.0, 1.0])
    assert assembled == [3]


def test_slot_factor_bytes_refused_before_any_factor(monkeypatch):
    # the CSR slot factors of a 30-level oscillator are bounded from its d x d
    # operators' nonzeros, nnz(kron(A, B)) = nnz(A) nnz(B); under a cap one byte
    # below that bound the steady state is refused before a factor is built
    model = _oscillator(30)
    decs = decompose_model(model)
    d, nnz = 30, np.count_nonzero
    lind = 2 * d * nnz(model.hamiltonian) + sum(
        nnz(c) ** 2 + 2 * d * nnz(c.conj().T @ c) for _rate, c in dissipation_channels(decs))
    bound = 20 * lind + 4 * (d * d + 1)
    built = []
    slot_factors = generators._slot_factors
    monkeypatch.setattr(generators, "_slot_factors",
                        lambda *args, **kw: built.append(args) or slot_factors(*args, **kw))
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound - 1)
    with pytest.raises(SlotBudgetError) as excinfo:
        steady_state(model, decs)
    assert excinfo.value.required == bound
    assert "slot factor bytes" in str(excinfo.value)
    assert built == []
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound)
    assert abs(np.trace(steady_state(model, decs)) - 1.0) < 1e-12
    assert len(built) == 1


def test_steady_state_beyond_dense_factor_size():
    # one dense d^2 x d^2 factor of a 91-level oscillator would take 16 * 91**4
    # bytes, over the 1 GiB cap; its CSR factors take well under 1 MB
    rho = steady_state(_oscillator(91))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_cold_sparse_steady_state_stays_below_one_dense_factor():
    # a cold 40-level steady state builds only CSR factors: its traced peak stays
    # below the 16 * 40**4 bytes of one dense d^2 x d^2 factor
    model = _oscillator(40)
    decs = decompose_model(model)
    tracemalloc.start()
    try:
        steady_state(model, decs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 40 ** 4


def test_slot_budget_has_one_binding(rng, monkeypatch):
    # the engine choice and the dense generator's guard read the same budget:
    # below the dimer's 256 coordinates the OTOC runs matrix-free
    h, decs = _dimer()
    rho = random_density(rng, 4)
    w_op, v_op = random_matrix(rng, 4), random_matrix(rng, 4)
    taus = np.linspace(0.0, 2.0, 5)
    dense = otoc(h, decs, w_op, v_op, rho, taus)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    free = otoc(h, decs, w_op, v_op, rho, taus)
    assert not hasattr(propagation, "DEFAULT_SLOT_BUDGET")
    assert np.max(np.abs(dense.values - free.values)) < 1e-12


# ------------------------------------------------------ engine reuse across calls


def _count_expm(monkeypatch):
    calls = []
    expm_ = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda m, t: calls.append(t) or expm_(m, t))
    return calls


def _otoc_inputs(rng, dim):
    return random_matrix(rng, dim), random_matrix(rng, dim), random_density(rng, dim)


def test_engine_reused_on_equal_model(rng, monkeypatch):
    # the dimer and its decomposition are rebuilt as new objects for each call
    w_op, v_op, rho = _otoc_inputs(rng, 4)
    taus = np.linspace(0.0, 2.0, 5)
    first = otoc(*_dimer(), w_op, v_op, rho, taus)
    calls = _count_expm(monkeypatch)
    again = otoc(*_dimer(), w_op, v_op, rho, taus)
    other = otoc(*_dimer(), *_otoc_inputs(rng, 4), taus)
    assert calls == []
    assert np.array_equal(again.values, first.values)
    assert not np.array_equal(other.values, first.values)


def test_engine_misses_on_changed_rates(rng, monkeypatch):
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    h2, decs2 = _qubit(gamma=0.2, temperature=0.5)
    assert np.array_equal(h, h2)
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    otoc(h, decs, *args)
    calls = _count_expm(monkeypatch)
    changed = otoc(h2, decs2, *args)
    assert calls
    propagation._held = None
    assert np.array_equal(changed.values, otoc(h2, decs2, *args).values)


def test_engine_misses_on_hamiltonian_mutated_in_place(rng, monkeypatch):
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    h = h.copy()
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    otoc(h, decs, *args)
    assert not np.shares_memory(propagation._held[1].h, h)
    h[0, 0] += 0.5
    calls = _count_expm(monkeypatch)
    mutated = otoc(h, decs, *args)
    assert calls
    propagation._held = None
    assert np.array_equal(mutated.values, otoc(h, decs, *args).values)


def test_model_sequence_matches_fresh_evaluations(rng):
    # A, B, A: each model's values are those of a fresh evaluation, bit for bit
    taus = np.linspace(1.0, 3.0, 5)
    runs = {}
    for name, system, dim, pattern in (("A", _dimer, 4, [None, 1.0, None, 1.0]),
                                       ("B", _qubit, 2, [None, 1.0, None, 0.5])):
        spec = _swept_spec(rng, dim, pattern, taus)
        runs[name] = (system(), _otoc_inputs(rng, dim), spec)

    def evaluate(name):
        (h, decs), ops, spec = runs[name]
        return (otoc(h, decs, *ops, taus).values,
                general_correlator(h, decs, spec, taus=taus).values)

    fresh = {}
    for name in runs:
        propagation._held = None
        fresh[name] = evaluate(name)
    propagation._held = None
    for name in ("A", "B", "A"):
        for got, expected in zip(evaluate(name), fresh[name]):
            assert np.array_equal(got, expected)


def test_lowered_budget_switches_held_engine(rng, monkeypatch):
    h, decs = _dimer()
    args = (*_otoc_inputs(rng, 4), np.linspace(0.0, 2.0, 5))
    dense = otoc(h, decs, *args)
    orders = _sparse_orders(monkeypatch)
    calls = _count_expm(monkeypatch)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    free = otoc(h, decs, *args)
    assert calls == [] and set(orders) == {16 ** 2}
    assert list(propagation._held[1]._generators) == [(2, False)]
    assert np.max(np.abs(dense.values - free.values)) < 1e-12


def test_held_propagators_are_the_last_calls(rng):
    h, decs = _dimer()
    floor = 1.0
    first, second = np.linspace(1.3, 4.0, 5), np.linspace(1.0, 3.0, 7)
    spec = _swept_spec(rng, 4, [None, floor, None, floor], first)

    def held():
        return set(propagation._held[1]._propagators)

    def used(taus):
        # the 2-slot sweep steps, and the 1-slot evolution of the state to the floor
        sweep = set(np.diff(taus - floor, prepend=0.0)) - {0.0}
        return {(2, True, step) for step in sweep} | {(1, True, floor)}

    general_correlator(h, decs, spec, taus=first)
    assert held() and held() <= used(first)
    general_correlator(h, decs, spec, taus=second)
    assert held() and held() <= used(second)
    assert not held() & (used(first) - used(second))


# ------------------------------------------------------------- ode integrator


def test_integrate_ode_zero_generator_is_constant(rng):
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = integrate_ode(np.zeros((4, 4)), v0, [0.0, 1.0, 2.0])
    for v in out:
        assert np.max(np.abs(v - v0)) < 1e-12


def test_integrate_ode_scalar_decay(rng):
    lam = -0.3
    v0 = np.ones(3, dtype=complex)
    grid = np.linspace(0.0, 5.0, 6)
    out = integrate_ode(lam * np.eye(3), v0, grid)
    for t, v in zip(grid, out):
        assert np.max(np.abs(v - np.exp(lam * t))) < 1e-10


def test_integrate_ode_matches_expm(rng):
    g = random_matrix(rng, 4) - 1.5 * np.eye(4)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    grid = np.linspace(0.0, 2.0, 5)
    out = integrate_ode(g, v0, grid)
    for t, v in zip(grid, out):
        assert np.max(np.abs(v - expm(g, t) @ v0)) < 1e-9


def test_import_leaves_ode_solver_unloaded():
    # only the sparse engine needs scipy.sparse, and nothing needs scipy.integrate
    code = ("import sys, lindcorr, lindcorr.cli; "
            "print('scipy.integrate' in sys.modules, 'scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_integrate_ode_validations(rng):
    v0 = np.ones(2, dtype=complex)
    with pytest.raises(ValueError, match="ascending"):
        integrate_ode(np.eye(2), v0, [1.0, 0.5])
    with pytest.raises(ValueError, match="nonempty"):
        integrate_ode(np.eye(2), v0, [])
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_ode(np.eye(2), v0, [-1.0, 0.5])
    single = integrate_ode(np.eye(2), v0, [0.7])
    assert len(single) == 1 and np.array_equal(single[0], v0)


# ------------------------------------------------------------ spec and trace


def test_correlator_spec_validations(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match="at least one insertion"):
        CorrelatorSpec((), rho)
    with pytest.raises(ValueError, match="dimension"):
        CorrelatorSpec(((identity(3), 0.0),), rho)
    with pytest.raises(ValueError, match=">= 0"):
        CorrelatorSpec(((sigma_x, -1.0),), rho)
    with pytest.raises(ValueError, match="unit trace"):
        CorrelatorSpec(((sigma_x, 0.0),), 3.0 * rho)
    spec = CorrelatorSpec(((sigma_x, 1.0),), rho)
    assert spec.dim == 2
    with pytest.raises(ValueError):
        spec.insertions[0][0][0, 0] = 9.0  # frozen operators


def test_correlator_trace_validations():
    with pytest.raises(ValueError, match="ascending"):
        CorrelatorTrace(np.array([0.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match="nonnegative"):
        CorrelatorTrace(np.array([-1.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        CorrelatorTrace(np.array([0.0, 1.0]), np.zeros(3))
    trace = CorrelatorTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert len(trace) == 2
    with pytest.raises(ValueError):
        trace.values[0] = 0.0
