import bisect
import json
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lindcorr import (
    BathSpec,
    CorrelatorSpec,
    CorrelatorTrace,
    DegenerateSteadyStateError,
    NumericsError,
    SlotBudgetError,
    annihilation,
    assign_rates,
    closed_correlator,
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
    local_decomposition,
    multi_slot_action,
    multi_slot_generator,
    otoc,
    qrt_correlator,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    steady_state,
    truncated_oscillator,
    two_level_atom,
    unvec,
    vec,
)
from lindcorr import _held, cli, generators, propagation

from conftest import (
    held,
    held_bytes,
    pull_back,
    random_density,
    random_hermitian,
    random_matrix,
    slice_blocks,
    slice_key,
    step_propagators,
)


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
    for t in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
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


def test_one_level_model_through_every_driver(tmp_path, capsys):
    # a one-level model's G_1 is the zero 1 x 1 matrix: its one singular value is
    # zero and its null space one-dimensional, so the state [[1]] is unique, and
    # every correlator is the constant product of its scalar insertions
    config = {"model": {"hamiltonian": [[0.4]], "couplings": [{"operator": [[1.0]]}]},
              "bath": {"temperature": 0.5, "rate_profile": 0.2, "gamma0": 0.3}, "task": "steady"}
    model = cli._parse_model(config)
    h, decs = model.hamiltonian, decompose_model(model)
    assert np.array_equal(steady_state(model), [[1.0]])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.run(str(path)) == 0
    assert json.loads(capsys.readouterr().out) == {"density_matrix": [[[1.0, 0.0]]]}
    one, taus = np.eye(1), np.linspace(0.0, 2.0, 5)
    a, b, c = np.array([[2.0]]), np.array([[3j]]), np.array([[-0.5]])
    assert np.array_equal(evolve_density(h, decs, one, 0.7), one)
    assert np.array_equal(qrt_correlator(h, decs, a, b, c, one, taus).values, [-3j] * 5)
    assert np.array_equal(otoc(h, decs, b, a, one, taus).values, [36.0] * 5)
    spec = CorrelatorSpec(((a, 2.0), (b, 0.3), (c, 0.0)), one)
    assert general_correlator(h, decs, spec) == -3j
    assert np.array_equal(general_correlator(h, decs, spec, taus=taus[2:]).values, [-3j] * 3)


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
    assert not generators._within_budget(model.dim ** 2)
    assert np.max(np.abs(rho - expected)) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0


def test_steady_state_sparse_rate_free_reports_multiplicity():
    # H = n on 17 levels: every diagonal matrix is stationary
    with pytest.raises(DegenerateSteadyStateError) as excinfo:
        steady_state(_oscillator(17, gamma=0.0))
    assert excinfo.value.multiplicity == 17


@pytest.mark.parametrize("config, within", [
    # the 17-level oscillator's bordered LU is exactly singular without rates
    ({"name": "truncated_oscillator", "params": dict(omega0=1.0, dim=17, gamma=0.0, temperature=0.5)},
     False),
    ({"name": "coupled_dimer", "params": dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05,
                                              temperature=0.6)}, True),
], ids=["oscillator-17-rate-free", "dimer"])
def test_steady_state_svd_bytes_refused_before_the_dense_copy(config, within, tmp_path, capsys,
                                                              monkeypatch):
    # the SVD's dense copy of G_1, u and vh, 3 * 16 * (d**2)**2 bytes, are checked
    # against the byte cap before the copy is made: at exactly those bytes the SVD
    # runs, one byte below them it is refused, and the CLI exits with code 1
    import scipy.sparse

    config = {"model": config, "task": "steady"}
    model = cli._parse_model(config)
    bound = 3 * 16 * model.dim ** 4
    assert generators._within_budget(model.dim ** 2) == within
    densified = []
    toarray = scipy.sparse.csr_array.toarray
    monkeypatch.setattr(scipy.sparse.csr_array, "toarray",
                        lambda m, *a, **kw: densified.append(m.shape[0]) or toarray(m, *a, **kw))
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound)
    if within:
        assert abs(np.trace(steady_state(model)) - 1.0) < 1e-12
    else:
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(model)
    assert densified == [model.dim ** 2]
    _held.drop_all()
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", bound - 1)
    refusal = f"a steady-state SVD needs {bound} bytes, over the cap of {bound - 1}"
    with pytest.raises(MemoryError, match=f"^{refusal}$"):
        steady_state(model)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.run(str(path)) == 1
    assert capsys.readouterr().err == f"error: out of memory: {refusal}\n"
    assert densified == [model.dim ** 2]


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
    # made sparse below) and the dense SVD of G_1 must decide as the SVD of F;
    # every call at budget 1 solves by the bordered LU, also after one at the
    # default budget on the same engine
    differing, sparse_calls, solved = [], 0, []
    bordered = propagation._bordered_null_vector
    monkeypatch.setattr(propagation, "_bordered_null_vector",
                        lambda g: solved.append(1) or bordered(g))
    for rate in np.geomspace(1e-3, 1e-12, 28):
        model = NEAR_DEGENERATE[family](rate)
        multiplicity = _svd_nullity(model)
        dense = model.dim ** 2 <= generators.DEFAULT_SLOT_BUDGET
        for budget in (generators.DEFAULT_SLOT_BUDGET, 1) if dense else (1,):
            monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", budget)
            sparse_calls += budget == 1
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
            _w, kappa = bordered(g)
            if kappa <= 1e4:
                assert np.max(np.abs(rho - _svd_steady_state(model))) < 1e-10
            else:
                residual = g.T @ vec(rho.T)
                assert np.max(np.abs(residual)) < 1e-12 * abs(g).sum(axis=0).max()
    assert differing == [] and len(solved) == sparse_calls


@pytest.mark.parametrize("family", NEAR_DEGENERATE)
def test_steady_state_is_exactly_zero_outside_its_block(family, monkeypatch):
    # the SVD null vector carries roundoff in the blocks where the state is zero;
    # it is set to zero there, on a dense level and in the sparse SVD fallback
    rate = 1e-3
    model = NEAR_DEGENERATE[family](rate)
    expected = _svd_steady_state(model)
    solved, sides = [], set()
    svd = propagation._svd_null_vector
    monkeypatch.setattr(propagation, "_svd_null_vector", lambda *a: solved.append(1) or svd(*a))
    for budget in (generators.DEFAULT_SLOT_BUDGET, 1):
        monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", budget)
        monkeypatch.setattr(propagation, "_LU_MARGIN", 0.0)  # the sparse level falls back to SVD
        rho = steady_state(model)
        sides.add(model.dim ** 2 <= budget)
        assert len(solved) == len(sides)  # each solver runs, neither reads the other's state
        labels = held("labels")[1]
        w = vec(rho.T)
        outside = labels != labels[np.argmax(np.abs(w))]
        assert np.any(outside) and not np.any(w[outside])
        assert np.max(np.abs(rho - expected)) < 1e-10


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
    assert not generators._within_budget(model.dim ** 2)


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
    """Orders of the generators stepped by actions, one entry per action run, of
    vectors or of a sweep's values alike: every action is one _interval call."""
    orders = []
    interval = propagation._interval

    def counted(plan, b, run, w=None):
        orders.append(plan.shifted.shape[0])
        return interval(plan, b, run, w)

    monkeypatch.setattr(propagation, "_interval", counted)
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


def _swept_spec(rng, dim, pattern, taus, zeroed=()):
    """Random insertions at `pattern`'s times, None marking the swept ones (at taus[-1]);
    those at the positions `zeroed` are zero matrices."""
    ops = [np.zeros((dim, dim)) if k in zeroed else random_matrix(rng, dim)
           for k in range(len(pattern))]
    times = [taus[-1] if t is None else t for t in pattern]
    return CorrelatorSpec(tuple(zip(ops, times)), random_density(rng, dim))


def _moved(spec, tau):
    t_max = max(t for _op, t in spec.insertions)
    return CorrelatorSpec(tuple((op, tau if t == t_max else t) for op, t in spec.insertions),
                          spec.initial_state)


# (system, insertion times with None marking the swept ones, sweep grid, positions
# of zero insertions); the three-fixed-times pattern runs on the qubit only, since
# the oracle would need a 4096-order expm for the dimer's 3-slot level.  A zero
# insertion at the earliest fixed time makes a zero dual vector, pulled back
# across the gap on an empty slice, and a zero swept one leaves nothing to sweep
SWEEP_CASES = {
    f"{name}-{system.__name__.strip('_')}": (system, pattern, taus, zeroed)
    for name, pattern, taus, systems, zeroed in [
        ("interleaved", [None, 1.0, None, 1.0], np.linspace(1.3, 4.0, 5), (_qubit, _dimer), ()),
        ("two-fixed", [None, 1.4, 0.6], np.linspace(1.5, 4.5, 5), (_qubit, _dimer), ()),
        ("three-fixed", [None, 1.5, 1.0, 0.5], np.linspace(1.5, 4.0, 6), (_qubit,), ()),
        ("tau-at-floor", [1.0, None, 0.4], np.linspace(1.0, 3.0, 5), (_qubit, _dimer), ()),
        ("all-swept", [None, None, None], np.linspace(0.0, 3.0, 5), (_qubit, _dimer), ()),
        ("zero-fixed", [None, 1.4, 0.6], np.linspace(1.5, 4.5, 5), (_dimer,), (2,)),
        ("zero-swept", [None, 1.4, 0.6], np.linspace(1.5, 4.5, 5), (_dimer,), (0,)),
    ]
    for system in systems
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_general_sweep_matches_forward_recursion(rng, case):
    system, pattern, taus, zeroed = SWEEP_CASES[case]
    h, decs = system()
    spec = _swept_spec(rng, h.shape[0], pattern, taus, zeroed)
    trace = general_correlator(h, decs, spec, taus=taus)
    expected = np.array([_forward_recursion(h, decs, _moved(spec, tau)) for tau in taus])
    assert np.max(np.abs(trace.values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(trace.values, np.zeros(len(taus))) == bool(zeroed)


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


def test_single_use_pull_back_acts_on_every_call(rng, monkeypatch):
    # an order-256 gap used once is the action of the dimer's 2-slot generator,
    # without an expm, on every call and with the same bytes; the slice
    # propagator of the gap cached by a uniform run leaves the choice as it is
    h, decs = _dimer()

    def call(act):
        with propagation._model_evolver(h, decs) as ev:  # one correlator call
            return act(ev)
    gen = call(lambda ev: ev.generator(2))
    blocks = call(lambda ev: int(ev.labels(2).max()) + 1)
    assert call(lambda ev: generators._within_budget(ev.dim ** 4))
    assert gen.shape[0] > propagation._SINGLE_USE_ORDER and blocks > 1
    w = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    expected = w @ expm(gen.toarray(), 0.8)
    calls = _count_expm(monkeypatch)
    orders = _sparse_orders(monkeypatch)
    pulled = [call(lambda ev: pull_back(ev, w, 2, 0.8)) for _call in range(3)]
    assert calls == [] and orders == [256] * 3
    assert all(np.array_equal(p, pulled[0]) for p in pulled)
    assert np.max(np.abs(pulled[0] - expected)) <= 1e-12 * np.max(np.abs(expected))
    call(lambda ev: list(ev.trajectory(w, 2, np.array([0.8, 1.6]), adjoint=True)))  # one run of two steps
    assert calls == [0.8] * blocks
    assert len(step_propagators(2, 0.8)) == blocks
    assert np.array_equal(call(lambda ev: pull_back(ev, w, 2, 0.8)), pulled[0])
    assert calls == [0.8] * blocks and orders == [256] * 4


def test_single_use_gap_on_small_blocks_takes_their_propagators(rng, monkeypatch):
    # the single-use rule reads the largest touched block: the rate-free dimer's
    # fixed gap 0.8 touches blocks of at most 16 coordinates of its 2-slot level,
    # so it is pulled back by their propagators, cold and warm, and no action;
    # forced to be an action, it gives the same value within the engine tolerance
    free = coupled_dimer(1.0, 1.25, 0.3, 0.0, 0.0, 0.6)
    h, decs = free.hamiltonian, decompose_model(free)
    spec = CorrelatorSpec(tuple(zip((random_matrix(rng, 4) for _ in range(3)), (2.0, 1.2, 0.4))),
                          random_density(rng, 4))
    orders, calls = _sparse_orders(monkeypatch), _count_expm(monkeypatch)
    got = [general_correlator(h, decs, spec) for _call in range(2)]
    sizes = np.bincount(held("labels")[2])
    assert orders == [] and 0.8 in calls and got[0] == got[1]
    assert sizes.max() <= propagation._SINGLE_USE_ORDER < sizes.sum()
    monkeypatch.setattr(propagation, "_SINGLE_USE_ORDER", 0)
    acted = general_correlator(h, decs, spec)
    assert orders  # every single-use step is now an action
    exact = closed_correlator(h, spec)
    assert abs(got[0] - exact) <= 1e-12 and abs(acted - exact) <= 1e-12


def _dimer_pull_back(rng):
    h, decs = _dimer()
    w = rng.standard_normal(256) + 1j * rng.standard_normal(256)

    def call():
        with propagation._model_evolver(h, decs) as ev:  # one correlator call
            return pull_back(ev, w, 2, 0.8)
    return call


def _oscillator_evolution(rng):
    model = _oscillator(12)
    decs, rho0 = decompose_model(model), random_density(rng, 12)
    return lambda: evolve_density(model.hamiltonian, decs, rho0, 0.7)


def _order_256_gap(rng):
    # the gap 1.2 - 0.4 pulls the contraction back on the dimer's 2-slot level
    h, decs = _dimer()
    spec = CorrelatorSpec(tuple(zip((random_matrix(rng, 4) for _ in range(3)), (2.0, 1.2, 0.4))),
                          random_density(rng, 4))
    return lambda: general_correlator(h, decs, spec)


@pytest.mark.parametrize("build", [_dimer_pull_back, _oscillator_evolution, _order_256_gap])
def test_repeated_calls_return_the_same_bytes(rng, build):
    # each step of these calls is single-use above _SINGLE_USE_ORDER; the engine
    # picks its path from the run alone, not from what an earlier call held
    call = build(rng)
    first = call()
    for _call in range(2):
        assert np.array_equal(call(), first)


def test_repeated_geomspace_otoc_forms_no_level_propagator(monkeypatch):
    # every step of a geometric grid is new, so each is one action of the touched
    # blocks; a second call forms no order-256 expm and holds no 2-slot propagator
    h, decs = _dimer()
    rho = steady_state(coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6))
    w_op, v_op = np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z)
    taus = np.geomspace(1e-3, 20.0, 400)
    first = otoc(h, decs, w_op, v_op, rho, taus)
    orders = []
    expm_ = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda m, t: orders.append(len(m)) or expm_(m, t))
    second = otoc(h, decs, w_op, v_op, rho, taus)
    assert 256 not in orders
    assert not [key for key in held("propagator") if key[0] == 2]
    assert np.array_equal(second.values, first.values)


@st.composite
def _closed_patterns(draw):
    """(seed, dim, times): times a < b < c over three or four insertions in any
    order, b and c held once each, so the gap b - a is pulled back on the 2-slot level."""
    a = draw(st.floats(0.0, 2.0))
    b = a + draw(st.floats(0.05, 2.0))
    c = b + draw(st.floats(0.05, 2.0))
    times = draw(st.permutations([c, b, a] + [a] * draw(st.integers(0, 1))))
    return draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([3, 4])), times


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_closed_patterns())
def test_general_correlator_matches_closed_system_on_acted_gaps(pattern):
    # at zero rates the adjoint engine is the Heisenberg picture; the fixed gap,
    # used once on a level of order d**4 > _SINGLE_USE_ORDER, is one action
    seed, d, times = pattern
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    dec = _silent(h, random_hermitian(rng, d))
    spec = CorrelatorSpec(tuple((random_matrix(rng, d), t) for t in times), random_density(rng, d))
    with mock.patch.object(propagation, "_interval", wraps=propagation._interval) as acted:
        got = general_correlator(h, dec, spec)
    assert [call.args[0].shifted.shape[0] for call in acted.call_args_list] == [d ** 4]
    assert abs(got - closed_correlator(h, spec)) <= 1e-12


def _local_dimer(model):
    """The couplings of the coupled dimer `model` (site frequencies 1.0 and 1.25)
    under the local decomposition: sigma- on each site."""
    sites = [np.kron(sigma_minus, EYE2), np.kron(EYE2, sigma_minus)]
    return tuple(assign_rates(local_decomposition(np.zeros((4, 4)), [(op, w)]), c.bath)
                 for op, w, c in zip(sites, (1.0, 1.25), model.couplings))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from(["exact", "local"]), st.integers(2, 3), st.data())
def test_grouped_slots_equal_split_slots(approach, n, data):
    # the paper's self-consistency under both approaches, which acceptance check 4
    # runs under the exact decomposition only: two adjacent slots with the identity
    # between them, carried as their product on one slot, give the split values
    model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    decs = decompose_model(model) if approach == "exact" else _local_dimer(model)
    k = data.draw(st.integers(0, n - 2))  # slots k and k + 1 are grouped
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    b_ops = [random_matrix(rng, 4) for _ in range(n)]
    a_ops = [random_matrix(rng, 4) for _ in range(n + 1)]
    a_ops[k + 1] = identity(4)
    rho, taus = random_density(rng, 4), np.linspace(0.0, 10.0, 6)
    split = equal_time_group_correlator(model.hamiltonian, decs, a_ops, b_ops, rho, taus)
    grouped = equal_time_group_correlator(
        model.hamiltonian, decs, a_ops[:k + 1] + a_ops[k + 2:],
        b_ops[:k] + [b_ops[k] @ b_ops[k + 1]] + b_ops[k + 2:], rho, taus)
    scale = np.max(np.abs(grouped.values))
    assert np.max(np.abs(grouped.values - split.values)) <= 1e-12 * scale


def test_general_sweep_expm_count(rng, monkeypatch):
    # one pull-back per sweep: an expm per distinct grid step, per fixed gap and for the state
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    t1, t2 = 0.6, 1.4
    taus = np.linspace(t2, t2 + 20.0, 200)
    spec = _swept_spec(rng, 2, [None, None, t2, t1], taus)
    calls, stepped = [], {}
    expm_ = propagation.expm
    monkeypatch.setattr(propagation, "expm", lambda m, t: calls.append(t) or expm_(m, t))
    level = propagation._SlotEvolver._slice
    monkeypatch.setattr(propagation._SlotEvolver, "_slice",
                        lambda ev, n, *vs: stepped.update({n: vs}) or level(ev, n, *vs))
    general_correlator(h, decs, spec, taus=taus)
    steps = np.diff(taus - t2, prepend=0.0)
    distinct_steps = len(set(steps[steps != 0.0]))
    fixed_levels = 2
    assert len(set(calls)) <= distinct_steps + fixed_levels + 1
    # each expm is one block's propagator, formed once, one per block where every
    # vector stepped is nonzero, at each gap: the state's t1 on one slot, the
    # pull-back's t2 - t1 on three and the sweep's one step on two
    labels = held("labels")
    touched = {n: len(set.intersection(*(set(labels[n][v != 0]) for v in vectors)))
               for n, vectors in stepped.items()}
    gaps = set(propagation._grid_steps(taus, t2)) - {0.0}
    assert sorted(stepped) == [1, 2, 3] and len(gaps) == 1
    assert len(calls) == touched[1] + touched[3] + touched[2] * len(gaps)
    assert len(calls) == sum(1 if key is None else len(slice_blocks(key))
                             for _n, _gap, key in held("propagator"))


def test_uniform_sweep_makes_one_step_expm(rng, monkeypatch):
    # the steps of a linspace grid differ in their last bits; they share one gap
    # on the dense engine, each touched block's propagator formed once, and one
    # interval of the action kernel, over all 200 points, on the sparse one
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 20.0, 200))
    steps = np.diff(args[-1])
    assert len(set(steps)) > 1
    calls = _count_expm(monkeypatch)
    dense = otoc(h, decs, *args)
    assert len(set(calls)) == 1
    assert len(calls) == len(step_propagators(2, calls[0]))
    multiply = []
    interval = propagation._interval
    monkeypatch.setattr(propagation, "_interval",
                        lambda plan, b, run, w=None: multiply.append(run[1] + 1) or interval(plan, b, run, w))
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
    assert not generators._within_budget(model.dim ** 2)
    assert np.array_equal(runs[0], runs[1])


def test_held_engine_bytes_bounded(rng):
    # one 3-slot dimer call holds a CSR generator, not a 4096-order dense one
    h, decs = _dimer()
    taus = np.linspace(0.5, 2.5, 5)
    general_correlator(h, decs, _swept_spec(rng, 4, [None, None, None, 0.5], taus), taus=taus)
    assert 3 in held("generator")
    assert held_bytes() == _held.counts["bytes"] < 16 * 2 ** 20


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
    # the slot factors of a 30-level oscillator are bounded from its d x d
    # operators' nonzeros, nnz(kron(A, B)) = nnz(A) nnz(B); under a cap one byte
    # below that bound the steady state is refused before a factor is built
    model = _oscillator(30)
    decs = decompose_model(model)
    d, nnz = 30, np.count_nonzero
    lind = 2 * d * nnz(model.hamiltonian) + sum(
        nnz(c) ** 2 + 2 * d * nnz(c.conj().T @ c) for _rate, c in dissipation_channels(decs))
    bound = 20 * lind + 4 * d * d + 4
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


def _count_assembly(monkeypatch):
    """Levels assembled, one entry (n_slots) per generator built."""
    built = []
    action = propagation.multi_slot_action
    monkeypatch.setattr(propagation, "multi_slot_action",
                        lambda h, d, n: built.append(n) or action(h, d, n))
    return built


def _held_models():
    """Keys of the models with held engine entries, least recently used first (by the
    last use of any of their entries); held decompositions are not engine entries."""
    return list(reversed(dict.fromkeys(model for model, kind, _key in reversed(held())
                                       if kind != "decomposition")))


def _stored_minus_counted():
    """The sizes recorded in the store, summed, less the bytes counted; read under its lock."""
    entries, counts = _held.snapshot()
    return sum(size for *_entry, size in entries) - counts["bytes"]


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
    assert calls and len(_held_models()) == 2  # missed while the first engine is held
    _held.drop_all()
    assert np.array_equal(changed.values, otoc(h2, decs2, *args).values)


def test_engine_misses_on_hamiltonian_mutated_in_place(rng, monkeypatch):
    h, decs = _qubit(gamma=0.1, temperature=0.5)
    h = h.copy()
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    otoc(h, decs, *args)
    assert _held_models() == [propagation._SlotEvolver(h, decs).key]  # a digest of h's content
    h[0, 0] += 0.5
    calls = _count_expm(monkeypatch)
    mutated = otoc(h, decs, *args)
    assert calls and len(_held_models()) == 2  # missed while the first engine is held
    _held.drop_all()
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
        _held.drop_all()
        fresh[name] = evaluate(name)
    _held.drop_all()
    for name in ("A", "B", "A"):
        for got, expected in zip(evaluate(name), fresh[name]):
            assert np.array_equal(got, expected)


def test_returning_model_finds_its_engine_warm(rng, monkeypatch):
    # A, B, A: the return to A assembles nothing and forms no propagator
    a_args = (*_otoc_inputs(rng, 4), np.linspace(0.0, 2.0, 5))
    b_args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    first = otoc(*_dimer(), *a_args)
    (dimer,) = _held_models()
    otoc(*_qubit(), *b_args)
    calls, built = _count_expm(monkeypatch), _count_assembly(monkeypatch)
    back = otoc(*_dimer(), *a_args)
    assert calls == [] and built == []
    assert len(_held_models()) == 2
    assert _held_models()[-1] == dimer  # the qubit's entries are now the least recent
    _held.drop_all()
    fresh = otoc(*_dimer(), *a_args)
    assert calls and built
    assert np.array_equal(back.values, fresh.values) and np.array_equal(back.values, first.values)


def test_idle_engines_evicted_least_recently_used_first(rng, monkeypatch):
    # five qubit models, each holding its 2-slot labels, slice, generator and one
    # step's slice propagator, under a cap of 2.75 models' bytes: idle entries go
    # one at a time, least recently used first, whatever model they belong to
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    models = [_qubit(gamma=gamma, temperature=0.5) for gamma in (0.1, 0.2, 0.3, 0.4, 0.5)]
    keys = [propagation._SlotEvolver(*model).key for model in models]
    _held.drop_all()  # drop the models' held decompositions: engine entries alone

    def call(k):
        otoc(*models[k], *args)
        assert held_bytes() == _held.counts["bytes"]
        assert held_bytes() - held_bytes(keys[k]) <= _held.IDLE_BYTE_CAP
        return [(keys.index(model), kind) for model, kind, _key in held()]

    def cold(*ks):  # the generator is last used by the slice propagator formed from it
        return [(k, kind) for k in ks for kind in ("labels", "slice", "generator", "propagator")]

    first = call(0)
    ((_n, key),) = held("slice")
    assert len(slice_blocks(key)) > 1 and first == cold(0)
    size = held_bytes()
    assert held("propagator")[2, 0.5, key].nbytes > size / 2  # the largest entry
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", int(2.75 * size))
    assert call(1) == cold(0, 1)
    assert call(2) == cold(0, 1, 2)
    assert {held_bytes(key) for key in keys[:3]} == {size}
    # three idle models are over the cap: 0's three oldest entries go, its propagator stays
    assert call(3) == [(0, "propagator"), *cold(1, 2, 3)]
    # a warm call uses 1's labels, slice and propagator, which move last; at its
    # end the generator it left unused is idle too, and 0's last entry goes
    warm = [(1, kind) for kind in ("labels", "slice", "propagator")]
    assert call(1) == [(1, "generator"), *cold(2, 3), *warm]
    # before 4 builds anything, 1's generator and then 2's labels and slice go
    assert call(4) == [(2, "generator"), (2, "propagator"), *cold(3), *warm, *cold(4)]
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 0)
    assert call(1) == warm  # every idle entry goes


def test_engine_over_cap_is_released_before_next_build(rng, monkeypatch):
    # another model's entries beyond the cap are dropped, least recently used first,
    # before a call builds anything: one byte over the cap takes the dimer's oldest
    # entry, cap 0 all of them
    dimer_args = (*_otoc_inputs(rng, 4), np.linspace(0.0, 2.0, 5))
    qubit_args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    action = propagation.multi_slot_action
    dimer_model, qubit_model = _dimer(), _qubit()
    for over in (1, None):
        _held.drop_all()  # also the models' held decompositions
        otoc(*dimer_model, *dimer_args)
        dimer = list(held())
        cap = 0 if over is None else held_bytes() - over
        monkeypatch.setattr(_held, "IDLE_BYTE_CAP", cap)
        seen = []
        monkeypatch.setattr(propagation, "multi_slot_action",
                            lambda h, d, n: seen.append(list(held())) or action(h, d, n))
        otoc(*qubit_model, *qubit_args)
        monkeypatch.setattr(propagation, "multi_slot_action", action)
        assert len(dimer) > 1 and seen and seen[0] == (dimer[1:] if over else [])
    assert len(_held_models()) == 1


def test_engine_map_under_concurrent_calls(rng, monkeypatch):
    # four threads interleave five models while a tiny cap evicts on nearly every call
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    models = [_qubit(gamma=gamma, temperature=0.5) for gamma in (0.1, 0.2, 0.3, 0.4, 0.5)]
    expected = [otoc(*model, *args).values for model in models]
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 1)
    order = [k % len(models) for k in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda k: (otoc(*models[k], *args).values, _stored_minus_counted()),
                                order, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, (values, drift) in zip(order, got):
        assert np.array_equal(values, expected[k]) and drift == 0
    otoc(*models[0], *args)
    assert len(_held_models()) == 1 and held_bytes() == _held.counts["bytes"]


def test_call_exit_recounts_only_its_own_entries(rng, monkeypatch):
    # with five other models' entries held, a warm call's exit measures no entry,
    # since each was counted once when it was stored and never changes, and (under
    # the cap, so nothing is dropped) does not walk the store
    args = (*_otoc_inputs(rng, 2), np.linspace(0.0, 2.0, 5))
    models = [_qubit(gamma=gamma, temperature=0.5) for gamma in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    for model in models:
        otoc(*model, *args)
    assert len(_held_models()) == len(models)
    measured, scans = [], []

    class Watched(dict):
        def items(self):
            scans.append(len(self))
            return super().items()

    nbytes = _held.nbytes
    monkeypatch.setattr(_held, "nbytes", lambda m: measured.append(m) or nbytes(m))
    monkeypatch.setattr(_held, "_store", Watched(_held._store))
    otoc(*models[0], *args)
    assert scans == [] and measured == []
    assert _stored_minus_counted() == 0 and held_bytes() == _held.counts["bytes"]


def test_no_engine_survives_a_call(rng, monkeypatch):
    # an engine keeps only its model: what it builds is held under the model's key,
    # so after a 6-model temperature scan every model's entries are held and no
    # engine is alive
    engines = []
    init = propagation._SlotEvolver.__init__
    monkeypatch.setattr(propagation._SlotEvolver, "__init__",
                        lambda ev, *args: engines.append(weakref.ref(ev)) or init(ev, *args))
    w_op, v_op, rho = _otoc_inputs(rng, 4)
    taus = np.linspace(0.0, 2.0, 5)
    for temperature in np.linspace(0.2, 2.0, 6):
        model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, temperature)
        decs = decompose_model(model)
        otoc(model.hamiltonian, decs, w_op, v_op, steady_state(model, decs), taus)
        spec = _swept_spec(rng, 4, [None, 1.0, 0.5], taus)
        general_correlator(model.hamiltonian, decs, spec, taus=taus + 1.0)
    assert len(engines) == 18 and len(_held_models()) == 6
    assert [engine for engine in engines if engine() is not None] == []


def test_action_plan_bytes_count_its_degrees():
    # every step of a 400-point geomspace grid is a run of one step on the dimer's
    # held plan, held as an entry of its own with its (m*, s) and counted once, when
    # stored: at least what a map from each (t, scale) to (m*, s), with its key and
    # value tuples, would count for the same degrees
    h, decs = _dimer()
    rho = steady_state(coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6))
    taus = np.geomspace(1e-3, 20.0, 400)
    otoc(h, decs, np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z), rho, taus)
    entries, counts = _held.snapshot()
    runs = {key: (value, size) for _owner, kind, key, value, size in entries if kind == "run"}
    assert len(runs) == len(taus) and {key[4] for key in runs} == {1}
    assert all(size == _held.nbytes(value) > 0 for value, size in runs.values())
    degrees = {(t, 1.0 / q): (m, s) for (t, q, m, s, _stepwise), _size in runs.values()}
    as_map = sys.getsizeof(degrees) + sum(
        sys.getsizeof(key) + sys.getsizeof(value) for key, value in degrees.items())
    assert sum(size for _value, size in runs.values()) >= as_map
    assert held_bytes() == counts["bytes"]


def test_held_bytes_counts_generators_and_labels(monkeypatch):
    ev = propagation._SlotEvolver(*_dimer())
    _held.drop_all()  # drop the dimer's held decomposition
    assert held_bytes() == 0
    gen = ev.generator(2)
    assert held_bytes() == _held.nbytes(gen) == 20 * gen.nnz + 4 * (256 + 1)
    labels = ev.labels(2)
    assert list(held("slice")) == [] and held_bytes() == _held.nbytes(gen) + labels.nbytes
    ev._slice(2, (labels == 0).astype(complex))  # groups block 0's coordinates
    coords, spans = held("slice")[2, slice_key(0)]
    assert np.array_equal(coords, np.flatnonzero(labels == 0)) and spans == ((0, len(coords)),)
    sliced = coords.nbytes + _held.nbytes(spans)
    assert held_bytes() == _held.nbytes(gen) + labels.nbytes + sliced
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    assert ev.generator(2) is gen  # one form serves every budget
    assert not generators._within_budget(ev.dim ** 4)
    assert held_bytes() == _held.nbytes(gen) + labels.nbytes + sliced


def test_lowered_budget_switches_held_engine(rng, monkeypatch):
    h, decs = _dimer()
    args = (*_otoc_inputs(rng, 4), np.linspace(0.0, 2.0, 5))
    dense = otoc(h, decs, *args)
    orders = _sparse_orders(monkeypatch)
    calls, built = _count_expm(monkeypatch), _count_assembly(monkeypatch)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    free = otoc(h, decs, *args)
    assert calls == [] and set(orders) == {16 ** 2}
    assert built == [] and list(held("generator")) == [2]
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 0)  # now only the last call's entries stay
    again = otoc(h, decs, *args)
    assert calls == [] and set(orders) == {16 ** 2}
    # the warm action reads its held plan alone, so the generator is idle and dropped
    assert built == [] and list(held("generator")) == []
    assert list(held("plan")) == [(2, None, False)]
    assert np.array_equal(again.values, free.values)
    assert np.max(np.abs(dense.values - free.values)) < 1e-12


def test_held_levels_within_budget_are_csr_of_the_dense_generator():
    # one level form: a level within the budget is held as CSR, with the dense
    # assembly's entries bit for bit and none of its zeros stored
    import scipy.sparse

    qubit = _qubit(gamma=0.1, temperature=0.5)
    for (h, decs), levels in ((_dimer(), (1, 2)), (qubit, (1, 2, 3, 4))):
        for n in levels:
            with propagation._model_evolver(h, decs) as ev:
                ev.generator(n)
            assert generators._within_budget(ev.dim ** (2 * n))
            gen = held("generator", ev.key)[n]
            matrix = multi_slot_generator(h, decs, n).matrix
            assert scipy.sparse.issparse(gen) and gen.format == "csr"
            assert gen.toarray().tobytes() == matrix.tobytes()
            assert gen.nnz == np.count_nonzero(matrix)
        assert all(scipy.sparse.issparse(m) for m in held("generator", ev.key).values())


def _dense_kron_reference(action):
    """The level as a reference: each of the action's own terms a dense np.kron
    product of its factors, with the identity on the slots it leaves alone, the
    terms summed in term order and stored without zeros."""
    import scipy.sparse

    d2, total = action.dim ** 2, 0
    for term in action._terms:
        by_slot, blocks = dict(term), []
        for slot in range(1, action.slots + 1):
            block = np.eye(d2, dtype=complex)
            if slot in by_slot:
                block = scipy.sparse.csr_array(by_slot[slot], shape=(d2, d2)).toarray()
            blocks.append(block)
        total = total + reduce(np.kron, blocks)
    return scipy.sparse.csr_array(total)


def test_held_levels_equal_the_dense_kron_reference(rng):
    # one assembly: the engine's held level has the reference's entries, column
    # indices and row pointer, with the same index dtype, on levels of order 4 to 1296
    dimer = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    models = [((dimer.hamiltonian, decompose_model(dimer)), (1, 2)),
              ((dimer.hamiltonian, _local_dimer(dimer)), (1, 2)),
              (_qubit(gamma=0.1, temperature=0.5), (1, 2, 3, 4)),
              ((_oscillator(6).hamiltonian, decompose_model(_oscillator(6))), (1, 2))]
    for d in (3, 4):
        h = random_hermitian(rng, d)
        bath = BathSpec(temperature=0.5, rate_profile=0.1, gamma0=0.05)
        models.append(((h, assign_rates(exact_bohr_decomposition(h, random_hermitian(rng, d)), bath)),
                       (1, 2)))
    for (h, decs), levels in models:
        for n in levels:
            with propagation._model_evolver(h, decs) as ev:
                ev.generator(n)
            gen = held("generator", ev.key)[n]
            ref = _dense_kron_reference(multi_slot_action(h, decs, n))
            for got, want in ((gen.data, ref.data), (gen.indices, ref.indices),
                              (gen.indptr, ref.indptr)):
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_lowered_budget_reuses_held_level(rng, monkeypatch):
    # the budget picks how each run is stepped, not what a level holds: after a
    # call at the default budget, the dimer's steady state (bordered LU instead of
    # SVD), OTOC and general correlator at budget 8 assemble and label nothing
    model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    h, decs = model.hamiltonian, decompose_model(model)
    w_op, v_op, rho = _otoc_inputs(rng, 4)
    taus = np.linspace(1.0, 3.0, 5)
    spec = _swept_spec(rng, 4, [None, 1.0, None, 0.5], taus)
    calls = [lambda: steady_state(model, decs), lambda: otoc(h, decs, w_op, v_op, rho, taus).values,
             lambda: general_correlator(h, decs, spec, taus=taus).values]
    before = [call() for call in calls]
    levels = {n: (held("generator")[n], held("labels")[n]) for n in (1, 2)}
    slices = held("slice")
    assert {1, 2} <= {n for n, _key in slices}
    built, labelled = _count_assembly(monkeypatch), []
    labels = propagation._block_labels
    monkeypatch.setattr(propagation, "_block_labels", lambda g: labelled.append(g) or labels(g))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
    after = [call() for call in calls]
    assert built == [] and labelled == [] and len(_held_models()) == 1
    assert all(held("generator")[n] is gen and held("labels")[n] is labels
               for n, (gen, labels) in levels.items())
    assert all(held("slice")[key] is value for key, value in slices.items())
    for old, new in zip(before, after):
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


def test_warm_sweep_makes_two_lookups(monkeypatch):
    # a warm OTOC on the dimer's order-256 level reads its labels and slice once
    # each and its one step's slice propagator: no miss, and the generator is not
    # looked up
    h, decs = _dimer()
    rho = steady_state(coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6))
    args = (np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z), rho, np.linspace(0.0, 4.0, 41))
    first = otoc(h, decs, *args)
    touched = len(held("propagator"))
    kinds, find = [], _held.find
    monkeypatch.setattr(_held, "find", lambda owner, kind, *rest, **kw: kinds.append(kind) or find(
        owner, kind, *rest, **kw))
    hits, misses = _held.counts["hits"], _held.counts["misses"]
    again = otoc(h, decs, *args)
    assert _held.counts["misses"] == misses and "generator" not in kinds
    assert _held.counts["hits"] - hits == len(kinds) <= 2 + touched
    assert kinds == ["labels", "slice", "propagator"]
    assert np.array_equal(again.values, first.values)


def test_warm_calls_look_up_their_slice_once(rng, monkeypatch):
    # a warm sweep or pull-back on the dimer's order-256 level looks up the level's
    # labels and its slice once each, then per run of equal steps one propagator of
    # the slice, or the slice's action plan once and one action run per run: no
    # block's own entry, no block order and no second plan lookup
    h, decs = _dimer()
    rho = steady_state(coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6))
    ops = (np.kron(sigma_z, sigma_y), np.kron(sigma_x, EYE2), rho)  # blocks of 28, 28 and 70
    w = rng.standard_normal(256) + 1j * rng.standard_normal(256)  # every block

    def pulled(taus):
        with propagation._model_evolver(h, decs) as ev:  # one correlator call
            return np.array(list(ev.trajectory(w, 2, taus, adjoint=True)))
    two_runs = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.25, 2.5, 6)])
    cases = [(lambda: otoc(h, decs, *ops, np.linspace(0.0, 4.0, 41)).values, ["propagator"]),
             (lambda: otoc(h, decs, *ops, two_runs).values, ["propagator"] * 2),
             (lambda: otoc(h, decs, *ops, np.geomspace(1e-2, 4.0, 6)).values, ["plan", *["run"] * 6]),
             (lambda: pulled(np.array([0.8])), ["plan", "run"]),
             (lambda: pulled(np.array([0.8, 1.6])), ["propagator"])]
    kinds, find = [], _held.find
    monkeypatch.setattr(_held, "find", lambda owner, kind, *rest, **kw: kinds.append(kind) or find(
        owner, kind, *rest, **kw))
    for call, stepped in cases:
        first = call()
        kinds.clear()
        hits, misses = _held.counts["hits"], _held.counts["misses"]
        again = call()
        assert _held.counts["misses"] == misses
        assert _held.counts["hits"] - hits == len(kinds) == 2 + len(stepped)
        assert kinds == ["labels", "slice", *stepped]
        assert np.array_equal(again, first)
    assert sorted(len(slice_blocks(key)) for _n, key in held("slice")) == [3, 9]


def test_held_propagators_are_the_last_calls(rng, monkeypatch):
    h, decs = _dimer()
    floor = 1.0
    first, second = np.linspace(1.3, 4.0, 5), np.linspace(1.0, 3.0, 7)
    spec = _swept_spec(rng, 4, [None, floor, None, floor], first)

    def steps():
        return {key[:2] for key in held("propagator")}

    def used(taus):
        # the 2-slot sweep steps, and the 1-slot evolution of the state to the floor
        sweep = set(np.diff(taus - floor, prepend=0.0)) - {0.0}
        return {(2, step) for step in sweep} | {(1, floor)}

    general_correlator(h, decs, spec, taus=first)
    kept = steps()
    assert kept and kept <= used(first) and kept - used(second)
    general_correlator(h, decs, spec, taus=second)  # the default cap holds the first call's too
    assert kept <= steps() <= used(first) | used(second)
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 0)  # now only the last call's entries stay
    general_correlator(h, decs, spec, taus=second)
    assert steps() and steps() <= used(second)
    assert not steps() & (used(first) - used(second))


def test_steady_state_keeps_the_otoc_level_held(monkeypatch):
    # the wide-slots sequence on the 6-level oscillator: the steady state uses only
    # G_1, and the OTOC after it still finds its G_2, labels and propagators held
    model = _oscillator(6)
    decs = decompose_model(model)
    a = annihilation(6)
    x, n = a + dagger(a), dagger(a) @ a
    taus = np.linspace(0.0, 10.0, 41)
    rho = steady_state(model, decs)
    first = otoc(model.hamiltonian, decs, x, n, rho, taus)
    assert not generators._within_budget(model.dim ** 4)
    built, calls = _count_assembly(monkeypatch), _count_expm(monkeypatch)
    assert np.array_equal(steady_state(model, decs), rho)
    misses = _held.counts["misses"]
    again = otoc(model.hamiltonian, decs, x, n, rho, taus)
    assert built == [] and calls == []
    assert _held.counts["misses"] == misses
    assert np.array_equal(again.values, first.values)


def test_held_bytes_bounded_by_cap_plus_last_call(rng, monkeypatch):
    # 3 models x 2 levels x 3 grids under a cap of 1.5 times the largest working
    # set: after every call the entries beyond that call's own working set fit in the cap
    models = {"dimer": _dimer(), "qubit": _qubit(gamma=0.1, temperature=0.5),
              "oscillator": (_oscillator(4).hamiltonian, decompose_model(_oscillator(4)))}
    inputs = {name: _otoc_inputs(rng, len(h)) for name, (h, _decs) in models.items()}
    grids = [np.linspace(0.0, 2.0, 5), np.linspace(0.0, 3.0, 7), np.linspace(0.0, 1.0, 9)]

    def call(name, level, taus):
        (h, decs), (w_op, v_op, rho) = models[name], inputs[name]
        if level == 1:
            return qrt_correlator(h, decs, identity(len(h)), w_op, v_op, rho, taus).values
        return otoc(h, decs, w_op, v_op, rho, taus).values

    sequence = [(name, level, k) for k in range(3) for name in models for level in (1, 2)]
    working = {}
    for name, level, k in sequence:  # each call's working set, from no held entry
        _held.drop_all()
        call(name, level, grids[k])
        working[name, level, k] = _held.counts["bytes"]
    _held.drop_all()
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 3 * max(working.values()) // 2)
    idle, evictions = [], _held.counts["evictions"]
    for name, level, k in sequence:
        call(name, level, grids[k])
        total = held_bytes()
        assert total == _held.counts["bytes"]
        idle.append(total - working[name, level, k])
        assert idle[-1] <= _held.IDLE_BYTE_CAP
    assert _held.counts["evictions"] > evictions and max(idle) > 0  # the cap binds and holds


def test_grown_propagator_map_counted_again():
    # two calls step the dimer's G_2 by the same gap on different blocks: the second
    # adds the slice of another block and its propagator at the step, each counted
    # when it is stored, and leaves every entry the first stored as it was
    h, decs = _dimer()
    taus = np.linspace(0.0, 2.0, 5)
    with propagation._model_evolver(h, decs) as ev:
        labels = ev.labels(2)
    sizes = []
    for block in (0, 1):
        v = (labels == block).astype(complex)
        with propagation._model_evolver(h, decs) as ev:
            list(ev.trajectory(v, 2, taus))
        assert sorted(step_propagators(2, 0.5)) == list(range(block + 1))
        sizes.append(_held.counts["bytes"])
        assert sizes[-1] == held_bytes()
    added = _held.nbytes(held("slice")[2, slice_key(1)])
    assert sizes[1] - sizes[0] == step_propagators(2, 0.5)[1].nbytes + added > added > 0


def _digest(value) -> bytes:
    """SHA-256 of what a held value holds: the bytes of its arrays, through sparse
    matrices, tuples, lists, maps and objects' attributes, and any other part's repr."""
    import hashlib
    import scipy.sparse

    sha = hashlib.sha256()

    def walk(part):
        if isinstance(part, np.ndarray):
            sha.update(part.tobytes())
        elif scipy.sparse.issparse(part):
            walk((part.data, part.indices, part.indptr))
        elif isinstance(part, dict):
            walk(list(part.items()))
        elif isinstance(part, (tuple, list)):
            sha.update(b"(%d" % len(part))
            for item in part:
                walk(item)
        elif hasattr(part, "__dict__"):
            walk(sorted(vars(part).items()))
        else:
            sha.update(repr(part).encode())
    walk(value)
    return sha.digest()


def test_no_held_value_changes_after_it_is_stored(rng, monkeypatch):
    # later calls on the dimer step another block by a step already used, add new
    # step lengths to a held action plan, and make the first grouping of a level
    # that was stepped whole: each adds entries of its own, and every entry stored
    # before keeps its bytes and its arrays
    model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    h, decs = model.hamiltonian, decompose_model(model)
    rho = steady_state(model, decs)
    ops = (np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z), rho)
    labels = propagation._block_labels(multi_slot_action(h, decs, 2).to_csr())
    states = [random_density(rng, 4), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)]

    def calls(k):
        v = (labels == k).astype(complex)  # block k alone
        with propagation._model_evolver(h, decs) as ev:
            list(ev.trajectory(v, 2, np.linspace(0.0, 2.0, 5)))
        otoc(h, decs, *ops, np.geomspace(1e-2 * (k + 1), 4.0 + k, 6))
        with monkeypatch.context() as patch:  # the 1-slot level above the budget
            patch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
            evolve_density(h, decs, states[k], 1.0)  # every block, then one

    def snapshot():
        entries, counts = _held.snapshot()
        return {(owner, kind, key): (size, _digest(value))
                for owner, kind, key, value, size in entries}, counts

    calls(0)
    stored, _counts = snapshot()
    calls(1)
    now, counts = snapshot()
    assert [entry for entry in stored if entry in now and now[entry] != stored[entry]] == []
    assert held_bytes() == counts["bytes"]
    # what the second calls added, each as an entry of its own: another block's
    # propagator at the step the first used, runs on the plan the first made, a
    # slice of the level the first stepped whole
    before, added = ({(kind, key) for _owner, kind, key in entries} for entries in (
        stored, now.keys() - stored.keys()))
    assert ("propagator", (2, 0.5, slice_key(0))) in before
    assert ("propagator", (2, 0.5, slice_key(1))) in added
    (plan,) = (key for kind, key in before if kind == "plan" and key[0] == 2)  # the OTOC's
    assert any(kind == "run" and key[:3] == plan for kind, key in added)
    level_1 = [{key[0] for kind, key in keys if kind == "slice"} for keys in (before, added)]
    assert ("labels", 1) in before and 1 not in level_1[0] and 1 in level_1[1]


def test_one_model_under_concurrent_mixed_calls(rng, monkeypatch):
    # four threads mix the steady state (also with its decomposition looked up in
    # the thread), an OTOC and a general correlator on one model and the
    # decomposition of a second, while cap 1 drops every entry a call leaves
    # unused: the engine's calls and the decomposition lookups share one store
    model, other = two_level_atom(1.0, 0.1, 0.5), coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    h, decs = model.hamiltonian, decompose_model(model)
    taus = np.linspace(1.0, 3.0, 5)
    ops, spec = _otoc_inputs(rng, 2), _swept_spec(rng, 2, [None, 1.0, None, 0.5], taus)

    def flat(decomps):  # every operator, frequency and rate of `decomps`, as one array
        return np.concatenate([np.append(op, numbers) for d in decomps for op, numbers in (
            (d.c0, [d.gamma0]), *((m.operator, [m.frequency, m.gamma_down, m.gamma_up])
                                  for m in d.modes))])

    kinds = [lambda: steady_state(model, decs), lambda: otoc(h, decs, *ops, taus).values,
             lambda: general_correlator(h, decs, spec, taus=taus).values,
             lambda: steady_state(model), lambda: flat(decompose_model(other))]
    expected = [kind() for kind in kinds]
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 1)
    order = [k % len(kinds) for k in range(30)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda k: (kinds[k](), _stored_minus_counted()), order,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, (values, drift) in zip(order, got):
        assert np.array_equal(values, expected[k]) and drift == 0
    assert len(_held_models()) <= 1
    assert held_bytes() == _held.counts["bytes"]


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["zero", "stepwise", "divides", "rest"]), st.booleans(),
       st.integers(2, 12), st.sampled_from([0.1, 1.0, 8.0]), st.floats(0.2, 3.0),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example("rest", False, 8, 8.0, 2.0, 2, 0)  # s = 5, q = 11
@example("rest", True, 8, 8.0, 2.0, 2, 1)  # s = 6, q = 14
@example("divides", False, 8, 8.0, 2.0, 1, 2)  # s = 7, q = 14
@example("stepwise", True, 8, 8.0, 2.0, 3, 0)  # s = 5, q = 3
@example("zero", False, 3, 1.0, 1.0, 1, 0)
def test_action_kernel_equals_expm_multiply(branch, sparse, n, scale, t, k, seed):
    # the kernel is scipy's interval algorithm with its arithmetic: equal under
    # np.array_equal on dense and CSR matrices, for q <= s, s | q and s !| q,
    # and for a matrix whose shifted 1-norm is zero
    import scipy.sparse
    import scipy.sparse.linalg

    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a[rng.random((n, n)) < 0.4] = 0.0
    if branch == "zero":
        a = (1.5 - 0.5j) * np.eye(n)
    a = scipy.sparse.csr_array(a) if sparse else a
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    plan = propagation._ActionPlan(a)
    _m, s = (0, 1) if branch == "zero" else plan.degrees(t, 1, lambda: plan.roots(t))
    q = {"zero": k, "stepwise": min(k, s), "divides": s * (k + 1),
         "rest": s * k + 1 + seed % max(s - 1, 1)}[branch]
    assume(branch != "rest" or s > 1)
    got = propagation._interval(plan, v, plan.run(t, q))
    with propagation._seeded_global_rng():
        want = scipy.sparse.linalg.expm_multiply(a, v, start=0.0, stop=t, num=q + 1, endpoint=True)
    ran = "stepwise" if q <= s else "rest" if q % s else "divides"
    assert (plan.norm == 0) == (branch == "zero") and branch in ("zero", ran)
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["stepwise", "divides", "rest"]), st.booleans(), st.integers(2, 12),
       st.sampled_from([0.1, 1.0, 8.0]), st.floats(0.2, 3.0), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
@example("rest", True, 8, 8.0, 2.0, 2, 1)  # s = 6, q = 14
@example("divides", False, 8, 8.0, 2.0, 1, 2)  # s = 7, q = 14
def test_action_values_match_expm_multiply(branch, sparse, n, scale, t, k, seed):
    # given a dual vector w the kernel returns values: at the interval ends (every
    # point when q <= s) w @ scipy's rows under np.array_equal, with its last row,
    # and inside them the contraction of w with the Taylor terms, within
    # 1e-14 ||w||_1 max_k ||x_k||_inf
    import scipy.sparse
    import scipy.sparse.linalg

    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a[rng.random((n, n)) < 0.4] = 0.0
    a = scipy.sparse.csr_array(a) if sparse else a
    v, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    plan = propagation._ActionPlan(a)
    _m, s = plan.degrees(t, 1, lambda: plan.roots(t))
    q = {"stepwise": min(k, s), "divides": s * (k + 1),
         "rest": s * k + 1 + seed % max(s - 1, 1)}[branch]
    assume(branch != "rest" or s > 1)
    values, last = propagation._interval(plan, v, plan.run(t, q), w)
    with propagation._seeded_global_rng():
        rows = scipy.sparse.linalg.expm_multiply(a, v, start=0.0, stop=t, num=q + 1, endpoint=True)
    want = np.array([w @ row for row in rows])
    ends = sorted({*range(0, q + 1, max(q // s, 1)), q})
    assert ("stepwise" if q <= s else "rest" if q % s else "divides") == branch
    assert np.array_equal(values[ends], want[ends]) and np.array_equal(last, rows[-1])
    assert np.max(np.abs(values - want)) <= 1e-14 * np.abs(w).sum() * np.abs(rows).max()


def test_action_value_that_vanishes_is_summed_as_a_row(monkeypatch):
    # a rotation's cosine vanishes at an interior point, where the stopping test
    # cannot be shown from the value: that point is summed as a row, so its value
    # is w @ scipy's row, bit for bit, and the other interior points are not
    import scipy.sparse.linalg

    omega, t, q = np.pi / 2, 2.0, 10  # cos(omega tau) = 0 at tau = 1.0, point 5
    a = omega * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    v, w = np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0], dtype=complex)
    plan = propagation._ActionPlan(a)
    _m, s = plan.degrees(t, 1, lambda: plan.roots(t))
    summed = []
    point = propagation._point
    monkeypatch.setattr(propagation, "_point",
                        lambda a, terms, norms, k, m, h: summed.append(k) or point(a, terms, norms, k, m, h))
    values, _last = propagation._interval(plan, v, plan.run(t, q), w)
    with propagation._seeded_global_rng():
        rows = scipy.sparse.linalg.expm_multiply(a, v, start=0.0, stop=t, num=q + 1, endpoint=True)
    want = np.array([w @ row for row in rows])
    d = q // s
    inner = 5 % d  # point 5 within its interval, not an end
    assert q > s and inner and abs(want[5]) < 1e-15
    assert summed.count(inner) == 1 and sorted(set(summed)) == sorted({d, q - d * (q // d), inner} - {0})
    assert values[5] == want[5]
    assert np.max(np.abs(values - want)) <= 1e-15


def test_norm_estimate_copy_is_capped(monkeypatch):
    # the scaled copy t A that the 1-norm estimates act on is checked against the
    # byte cap before it is made: at exactly its bytes the estimates are made, and
    # unchanged, one byte below it they are refused
    import scipy.sparse

    rng = np.random.default_rng(5)
    for sparse in (False, True):
        a = 8.0 * rng.standard_normal((12, 12))
        plan = propagation._ActionPlan(scipy.sparse.csr_array(a) if sparse else a)
        roots = plan.roots(3.0)
        copy = _held.nbytes(plan.shifted)
        monkeypatch.setattr(generators, "_CSR_BYTE_CAP", copy)
        assert plan.roots(3.0) == roots
        monkeypatch.setattr(generators, "_CSR_BYTE_CAP", copy - 1)
        with pytest.raises(MemoryError, match="1-norm estimate"):
            plan.roots(3.0)
        monkeypatch.undo()


def test_warm_action_estimates_no_norm(rng, monkeypatch):
    # every step of a geomspace grid is distinct, so each is an action on the
    # dimer's touched block of 70; its plans are held, and a warm call makes no
    # 1-norm estimate and returns the same bytes
    import scipy.sparse.linalg

    estimates = []
    onenormest = scipy.sparse.linalg.onenormest
    monkeypatch.setattr(scipy.sparse.linalg, "onenormest",
                        lambda *a, **k: estimates.append(1) or onenormest(*a, **k))
    h, decs = _dimer()
    args = (np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z), random_density(rng, 4),
            np.geomspace(1e-2, 400.0, 30))
    counted = []
    for _call in range(2):
        before = dict(_held.counts)
        values = otoc(h, decs, *args).values
        counted.append({key: _held.counts[key] - before[key]
                        for key in ("matvecs", "norm_estimates")})
        counted[-1]["onenormest"] = len(estimates)
        estimates.clear()
        counted[-1]["bytes"] = values.tobytes()
    cold, warm = counted
    assert cold["onenormest"] == cold["norm_estimates"] > 0
    assert warm["onenormest"] == warm["norm_estimates"] == 0
    assert warm["matvecs"] == cold["matvecs"] > 0
    assert warm["bytes"] == cold["bytes"]
    assert len(held("plan")) == 1 and held_bytes() == _held.counts["bytes"]


def test_action_plans_under_concurrent_calls(rng, monkeypatch):
    # four threads share the dimer's action plans while a cap of 1 drops them
    # between calls, so plans and their 1-norm estimates are made concurrently
    h, decs = _dimer()
    args = (np.kron(sigma_x, EYE2), np.kron(sigma_z, sigma_z), random_density(rng, 4))
    grids = [np.geomspace(1e-2, 400.0, 12), np.geomspace(2e-2, 300.0, 8)]
    expected = [otoc(h, decs, *args, grid).values for grid in grids]
    assert _held.counts["norm_estimates"] > 0
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 1)
    order = [k % len(grids) for k in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda k: (otoc(h, decs, *args, grids[k]).values,
                                           _stored_minus_counted()), order, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for k, (values, drift) in zip(order, got):
        assert np.array_equal(values, expected[k]) and drift == 0


def test_steady_state_is_a_held_entry(monkeypatch):
    # the state is held once per null_tol and solver, counted in bytes, and handed
    # out as a copy; a budget that changes the solver solves again
    model = coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6)
    decs = decompose_model(model)
    first = steady_state(model, decs)
    (state,) = held("steady").values()
    assert list(held("steady")) == [(1e-9, True)]
    assert held_bytes() == _held.counts["bytes"] >= state.nbytes > 0
    solved = []
    svd = propagation._svd_null_vector
    monkeypatch.setattr(propagation, "_svd_null_vector", lambda *a: solved.append(1) or svd(*a))
    first[0, 0] = 7.0
    again = steady_state(model, decs)
    assert solved == [] and again is not state
    assert np.array_equal(again, state) and again[0, 0] != 7.0
    steady_state(model, decs, null_tol=1e-8)
    assert solved == [1] and sorted(held("steady")) == [(1e-9, True), (1e-8, True)]
    bordered, lu = [], propagation._bordered_null_vector
    monkeypatch.setattr(propagation, "_bordered_null_vector", lambda g: bordered.append(1) or lu(g))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 1)
    sparse = steady_state(model, decs)
    assert bordered == [1] and solved == [1] and (1e-9, False) in held("steady")
    assert np.max(np.abs(sparse - state)) < 1e-10


def test_action_refuses_workspace_over_cap(monkeypatch):
    # the rows and Taylor terms of an action are checked against the byte cap
    # before they are made; a step taken point by point (q <= s) makes no terms
    v0 = np.ones(4, dtype=complex)
    grid = np.linspace(0.0, 1.0, 51)
    assert len(integrate_ode(-np.eye(4), v0, grid)) == 51
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 51 * 4 * 16)
    with pytest.raises(MemoryError, match="workspace"):
        integrate_ode(-np.eye(4), v0, grid)
    shift = np.diag([-3.0, -1.0, 1.0, 3.0]).astype(complex)  # one step, so q = 1 <= s
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 2 * 4 * 16)
    assert len(integrate_ode(shift, v0, [0.0, 1.0])) == 2
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 2 * 4 * 16 - 1)
    with pytest.raises(MemoryError, match="workspace"):
        integrate_ode(shift, v0, [0.0, 1.0])
    # given a dual vector: the carried row, the one term of the zero shifted
    # matrix, and four arrays of 50 interior points by one term
    plan = propagation._ActionPlan(-np.eye(4))
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 2 * 4 * 16 + 4 * 50 * 16)
    values, _last = propagation._interval(plan, v0, plan.run(1.0, 50), v0)
    assert np.max(np.abs(values - 4 * np.exp(-grid))) <= 1e-15
    monkeypatch.setattr(generators, "_CSR_BYTE_CAP", 2 * 4 * 16 + 4 * 50 * 16 - 1)
    with pytest.raises(MemoryError, match="workspace"):
        propagation._interval(plan, v0, plan.run(1.0, 50), v0)


def test_non_finite_action_raises():
    # an overflowing step, with a zero shifted matrix or through the Taylor terms
    import scipy.sparse

    v0 = np.ones(2, dtype=complex)
    swap = scipy.sparse.csr_array(np.array([[0.0, 400.0], [400.0, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="non-finite"):
            integrate_ode(800.0 * np.eye(2), v0, [0.0, 1.0])
        with pytest.raises(NumericsError, match="non-finite"):
            integrate_ode(swap, v0, [0.0, 1.0, 2.0])


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
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            integrate_ode(np.eye(2), v0, [bad, 0.5])
    single = integrate_ode(np.eye(2), v0, [0.7])
    assert len(single) == 1 and np.array_equal(single[0], v0)


# ------------------------------------------------------------ spec and trace


def test_correlator_spec_validations(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match="at least one insertion"):
        CorrelatorSpec((), rho)
    with pytest.raises(ValueError, match="dimension"):
        CorrelatorSpec(((identity(3), 0.0),), rho)
    for bad in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and >= 0"):
            CorrelatorSpec(((sigma_x, bad),), rho)
    with pytest.raises(ValueError, match="unit trace"):
        CorrelatorSpec(((sigma_x, 0.0),), 3.0 * rho)
    spec = CorrelatorSpec(((sigma_x, 1.0),), rho)
    assert spec.dim == 2
    with pytest.raises(ValueError):
        spec.insertions[0][0][0, 0] = 9.0  # frozen operators


def test_correlator_trace_validations():
    with pytest.raises(ValueError, match="ascending"):
        CorrelatorTrace(np.array([0.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match=">= 0"):
        CorrelatorTrace(np.array([-1.0, 0.0]), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        CorrelatorTrace(np.array([0.0, 1.0]), np.zeros(3))
    trace = CorrelatorTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert len(trace) == 2
    with pytest.raises(ValueError):
        trace.values[0] = 0.0
