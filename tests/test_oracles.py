import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindcorr import (
    CorrelatorSpec,
    FiniteBath,
    closed_correlator,
    contraction_functional,
    coupled_dimer,
    decompose_model,
    elementary_tensor,
    equal_time_group_correlator,
    expm,
    finite_bath_correlator,
    finite_bath_correlators,
    golden_rule_band,
    identity,
    multi_slot_generator,
    naive_equation_integrator,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_z,
    two_level_atom,
)

from conftest import random_density, random_hermitian, random_matrix


EYE2 = identity(2)


def _plus_state():
    return np.full((2, 2), 0.5, dtype=complex)


# ------------------------------------------------------------- closed systems


def test_closed_correlator_matches_expm_products(rng):
    h = random_hermitian(rng, 3)
    rho = random_density(rng, 3)
    ops = [random_matrix(rng, 3) for _ in range(3)]
    times = (1.5, 0.2, 0.9)
    spec = CorrelatorSpec(tuple(zip(ops, times)), rho)
    got = closed_correlator(h, spec)
    prod = identity(3)
    for op, t in zip(ops, times):
        u = expm(1j * h, t)
        prod = prod @ u @ op @ u.conj().T
    assert abs(got - np.trace(prod @ rho)) < 1e-12


def test_closed_qubit_scrambling_string_is_constant():
    # sigma_z conjugation flips sigma_x(t) for any t, so the four-operator
    # string evaluates to -1 on the maximally mixed state at every offset
    h = 0.5 * sigma_z
    rho = 0.5 * EYE2
    for tau in (0.0, 0.7, 2.3):
        spec = CorrelatorSpec(
            ((sigma_x, tau), (sigma_z, 0.0), (sigma_x, tau), (sigma_z, 0.0)), rho
        )
        assert abs(closed_correlator(h, spec) + 1.0) < 1e-12


def test_closed_correlator_dimension_mismatch(rng):
    spec = CorrelatorSpec(((sigma_x, 0.0),), random_density(rng, 2))
    with pytest.raises(ValueError, match="dimension"):
        closed_correlator(random_hermitian(rng, 3), spec)


# --------------------------------------------------------------- finite baths


def test_finite_bath_decoupled_equals_closed(rng):
    model = two_level_atom(1.0, 0.1, 0.0)
    bath = FiniteBath(mode_frequencies=(1.0,), mode_couplings=(0.0,))
    rho = _plus_state()
    spec = CorrelatorSpec(((sigma_plus, 1.1), (sigma_minus, 0.3)), rho)
    got = finite_bath_correlator(model, bath, spec)
    assert abs(got - closed_correlator(model.hamiltonian, spec)) < 1e-12


def test_finite_bath_two_modes_vs_hand_built(rng):
    # independent check: assemble the joint Hamiltonian with explicit kron
    # products and evolve with dense matrix exponentials
    model = two_level_atom(1.0, 0.1, 0.0)
    bath = FiniteBath(mode_frequencies=(0.9, 1.1), mode_couplings=(0.05, 0.08))
    rho_s = _plus_state()
    spec = CorrelatorSpec(((sigma_plus, 1.3), (sigma_minus, 0.4)), rho_s)
    got = finite_bath_correlator(model, bath, spec)

    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    number = lower.conj().T @ lower
    quad = lower + lower.conj().T
    eye4 = identity(4)
    h_full = (
        np.kron(model.hamiltonian, eye4)
        + 0.9 * np.kron(EYE2, np.kron(number, EYE2))
        + 1.1 * np.kron(EYE2, np.kron(EYE2, number))
        + np.kron(sigma_x, 0.05 * np.kron(quad, EYE2) + 0.08 * np.kron(EYE2, quad))
    )
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    rho_full = np.kron(rho_s, vac)
    prod = identity(8)
    for op, t in spec.insertions:
        u = expm(1j * h_full, t)
        prod = prod @ u @ np.kron(op, eye4) @ u.conj().T
    assert abs(got - np.trace(prod @ rho_full)) < 1e-12


def test_finite_bath_thermal_oscillator_mode_vs_hand_built():
    model = two_level_atom(1.0, 0.1, 0.0)
    omega_b, g, temp = 1.2, 0.3, 0.5
    bath = FiniteBath(mode_frequencies=(omega_b,), mode_couplings=(g,),
                      levels=3, temperature=temp)
    rho_s = np.diag([1.0, 0.0]).astype(complex)
    spec = CorrelatorSpec(((sigma_z, 2.0), (sigma_z, 0.5)), rho_s)
    got = finite_bath_correlator(model, bath, spec)

    lower = np.diag(np.sqrt([1.0, 2.0]), k=1).astype(complex)
    number = lower.conj().T @ lower
    quad = lower + lower.conj().T
    eye3 = identity(3)
    h_full = (
        np.kron(model.hamiltonian, eye3)
        + omega_b * np.kron(EYE2, number)
        + g * np.kron(sigma_x, quad)
    )
    p = np.exp(-omega_b * np.arange(3) / temp)
    rho_full = np.kron(rho_s, np.diag(p / p.sum()).astype(complex))
    prod = identity(6)
    for op, t in spec.insertions:
        u = expm(1j * h_full, t)
        prod = prod @ u @ np.kron(op, eye3) @ u.conj().T
    assert abs(got - np.trace(prod @ rho_full)) < 1e-12


def test_finite_bath_shares_diagonalization_across_specs(rng):
    model = two_level_atom(1.0, 0.1, 0.0)
    bath = FiniteBath(mode_frequencies=(0.9, 1.1), mode_couplings=(0.05, 0.08))
    rho = _plus_state()
    specs = [
        CorrelatorSpec(((sigma_plus, t),), rho) for t in (0.5, 1.0, 1.5)
    ]
    batch = finite_bath_correlators(model, bath, specs)
    singles = [finite_bath_correlator(model, bath, s) for s in specs]
    assert np.max(np.abs(np.array(batch) - np.array(singles))) == 0.0


def test_finite_bath_validations(rng):
    with pytest.raises(ValueError, match="at least one mode"):
        FiniteBath(mode_frequencies=(), mode_couplings=())
    with pytest.raises(ValueError, match="couplings"):
        FiniteBath(mode_frequencies=(1.0, 2.0), mode_couplings=(0.1,))
    with pytest.raises(ValueError, match="positive"):
        FiniteBath(mode_frequencies=(0.0,), mode_couplings=(0.1,))
    with pytest.raises(ValueError, match="levels"):
        FiniteBath(mode_frequencies=(1.0,), mode_couplings=(0.1,), levels=1)
    with pytest.raises(ValueError, match="temperature"):
        FiniteBath(mode_frequencies=(1.0,), mode_couplings=(0.1,), temperature=-1.0)
    bath = FiniteBath(mode_frequencies=(1.0, 2.0), mode_couplings=(0.1, 0.2))
    assert bath.mode_count == 2


def test_finite_bath_dimension_cap(rng):
    model = two_level_atom(1.0, 0.1, 0.0)
    bath = FiniteBath(mode_frequencies=(0.9, 1.0, 1.1, 1.2),
                      mode_couplings=(0.1,) * 4)
    spec = CorrelatorSpec(((sigma_z, 1.0),), _plus_state())
    with pytest.raises(ValueError, match="exceeds cap"):
        finite_bath_correlator(model, bath, spec, dim_cap=16)


def test_finite_bath_requires_one_bath_per_coupling(rng):
    model = coupled_dimer(1.0, 1.1, 0.05, 0.1, 0.1, 0.0)
    bath = FiniteBath(mode_frequencies=(1.0,), mode_couplings=(0.1,))
    spec = CorrelatorSpec(((identity(4), 0.0),), np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError, match="per coupling"):
        finite_bath_correlators(model, [bath], [spec])


def test_golden_rule_band_construction():
    band = golden_rule_band(1.0, 0.1)
    assert band.mode_count == 8
    assert band.mode_frequencies[0] == pytest.approx(0.5)
    assert band.mode_frequencies[-1] == pytest.approx(1.5)
    spacing = band.mode_frequencies[1] - band.mode_frequencies[0]
    # flat couplings carrying the golden-rule weight gamma = 2*pi*g^2/spacing
    expected_g = np.sqrt(0.1 * spacing / (2.0 * np.pi))
    assert all(g == pytest.approx(expected_g) for g in band.mode_couplings)
    with pytest.raises(ValueError, match="at least 2"):
        golden_rule_band(1.0, 0.1, n_modes=1)
    with pytest.raises(ValueError, match="> 0"):
        golden_rule_band(1.0, 0.0)
    with pytest.raises(ValueError, match="half-width"):
        golden_rule_band(1.0, 0.1, half_width=1.5)


def test_golden_rule_band_reproduces_decay_rate():
    # fitted population decay of the discrete model should sit near the
    # target rate well before the recurrence time 2*pi/spacing
    gamma = 0.1
    model = two_level_atom(1.0, gamma, 0.0)
    band = golden_rule_band(1.0, gamma)
    excited = np.diag([1.0, 0.0]).astype(complex)
    proj = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(5.0, 25.0, 11)
    specs = [CorrelatorSpec(((proj, float(t)),), excited) for t in times]
    pops = np.array([v.real for v in finite_bath_correlators(model, band, specs)])
    slope = np.polyfit(times, np.log(pops), 1)[0]
    assert abs(-slope / gamma - 1.0) < 0.15


# ------------------------------------------------------------ naive stepping


def _qubit_ctx(gamma=0.1, temperature=0.0):
    model = two_level_atom(1.0, gamma, temperature)
    return model, decompose_model(model)


def test_naive_identity_string_is_constant(rng):
    model, decs = _qubit_ctx(gamma=0.3, temperature=0.4)
    rho = random_density(rng, 2)
    got = naive_equation_integrator(model, decs, [EYE2], [EYE2, EYE2], rho, 1.0, 0.05)
    assert abs(got - 1.0) < 1e-12


def test_naive_converges_at_first_order():
    model, decs = _qubit_ctx()
    rho = _plus_state()
    ref = equal_time_group_correlator(
        model.hamiltonian, decs, [EYE2, EYE2, EYE2], [sigma_x, sigma_z], rho, [1.0]
    ).values[0]
    errs = []
    for h in (0.02, 0.01):
        v = naive_equation_integrator(model, decs, [sigma_x, sigma_z],
                                      [EYE2, EYE2, EYE2], rho, 1.0, h)
        errs.append(abs(v - ref))
    order = np.log2(errs[0] / errs[1])
    assert 0.9 < order < 1.1


def test_naive_richardson_extrapolation_hits_fast_path():
    model, decs = _qubit_ctx()
    rho = _plus_state()
    tau = 0.8
    ref = equal_time_group_correlator(
        model.hamiltonian, decs, [EYE2, EYE2, EYE2], [sigma_x, sigma_z], rho, [tau]
    ).values[0]
    h = 1e-3
    coarse = naive_equation_integrator(model, decs, [sigma_x, sigma_z],
                                       [EYE2, EYE2, EYE2], rho, tau, h)
    fine = naive_equation_integrator(model, decs, [sigma_x, sigma_z],
                                     [EYE2, EYE2, EYE2], rho, tau, h / 2)
    assert abs((2.0 * fine - coarse) - ref) < 1e-6


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(0.0, 2.0), st.floats(0.01, 0.5), st.floats(0.2, 1.0), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_naive_richardson_extrapolation_is_second_order(temperature, gamma, tau, n, seed):
    # Euler's value after tau / h steps of h is w . (I + h G)^(tau/h) x, G the n-slot
    # generator, x the slot tensor and w the contraction; it expands as
    # w . exp(tau G) (I - h tau G^2 / 2 + h^2 F + O(h^3)) x with
    # F = tau G^3 / 3 + tau^2 G^4 / 8, so 2 v(h/2) - v(h) misses the value by
    # h^2 w . exp(tau G) F x / 2 + O(h^3): it is held to twice the Cauchy-Schwarz
    # bound of that term (measured at most a third of the bound)
    rng = np.random.default_rng(seed)
    model, decs = _qubit_ctx(gamma=gamma, temperature=temperature)
    b_ops = [random_matrix(rng, 2) for _ in range(n)]
    a_ops = [random_matrix(rng, 2) for _ in range(n + 1)]
    rho = random_density(rng, 2)
    ref = equal_time_group_correlator(model.hamiltonian, decs, a_ops, b_ops, rho, [tau]).values[0]
    h = tau / 32
    coarse = naive_equation_integrator(model, decs, b_ops, a_ops, rho, tau, h)
    fine = naive_equation_integrator(model, decs, b_ops, a_ops, rho, tau, h / 2)
    g = multi_slot_generator(model.hamiltonian, decs, n).matrix
    cube = g @ g @ g
    fx = expm(g, tau) @ (tau / 3 * cube + tau ** 2 / 8 * cube @ g) @ elementary_tensor(b_ops)
    bound = h ** 2 * np.linalg.norm(contraction_functional(a_ops, rho)) * np.linalg.norm(fx)
    assert abs((2.0 * fine - coarse) - ref) <= bound


def test_naive_single_slot_expectation(rng):
    # one slot, warm bath: the stepped value approaches the fast-path value
    model, decs = _qubit_ctx(gamma=0.2, temperature=0.6)
    rho = random_density(rng, 2)
    ref = equal_time_group_correlator(
        model.hamiltonian, decs, [EYE2, EYE2], [sigma_z], rho, [0.5]
    ).values[0]
    got = naive_equation_integrator(model, decs, [sigma_z], [EYE2, EYE2],
                                    rho, 0.5, 2e-4)
    assert abs(got - ref) < 1e-3


def test_naive_validations(rng):
    model, decs = _qubit_ctx()
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match="> 0"):
        naive_equation_integrator(model, decs, [sigma_z], [EYE2, EYE2], rho, 1.0, 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        naive_equation_integrator(model, decs, [sigma_z], [EYE2, EYE2], rho, -1.0, 0.1)
    with pytest.raises(ValueError, match="insertion matrices"):
        naive_equation_integrator(model, decs, [sigma_z], [EYE2], rho, 1.0, 0.1)
