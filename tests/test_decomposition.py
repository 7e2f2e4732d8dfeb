import numpy as np
import pytest

from lindcorr import (
    BathSpec,
    JumpDecomposition,
    JumpMode,
    assign_rates,
    bose_occupation,
    commutator,
    dagger,
    decompose_model,
    exact_bohr_decomposition,
    hermitian_eig,
    local_decomposition,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_z,
    two_level_atom,
)

from conftest import random_hermitian


def test_qubit_exact_decomposition():
    # hand oracle: project the coupling between the explicit energy eigenspaces
    h = 0.5 * sigma_z
    dec = exact_bohr_decomposition(h, sigma_x)
    assert np.max(np.abs(dec.c0)) < 1e-15
    assert len(dec.modes) == 1
    mode = dec.modes[0]
    assert abs(mode.frequency - 1.0) < 1e-15
    p_excited = np.diag([1.0, 0.0])
    p_ground = np.diag([0.0, 1.0])
    assert np.max(np.abs(mode.operator - p_ground @ sigma_x @ p_excited)) < 1e-15
    assert np.max(np.abs(mode.operator - sigma_minus)) < 1e-15


def test_commuting_coupling_is_static():
    dec = exact_bohr_decomposition(0.5 * sigma_z, sigma_z)
    assert len(dec.modes) == 0
    assert np.array_equal(dec.c0, sigma_z)


def test_eigenoperator_property(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        s = random_hermitian(rng, d)
        dec = exact_bohr_decomposition(h, s)
        resummed = dec.c0.copy()
        for mode in dec.modes:
            assert mode.frequency > 0
            resid = commutator(h, mode.operator) + mode.frequency * mode.operator
            assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(mode.operator))
            resummed += mode.operator + dagger(mode.operator)
        assert np.linalg.norm(resummed - s) < 1e-10 * max(1.0, np.linalg.norm(s))
        assert np.max(np.abs(commutator(h, dec.c0))) < 1e-9


def test_conjugation_resum(rng):
    # e^{iHt} S e^{-iHt} must equal the frequency series of the decomposition
    for _ in range(10):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        s = random_hermitian(rng, d)
        dec = exact_bohr_decomposition(h, s)
        energies, u = hermitian_eig(h)
        for t in rng.uniform(0.0, 10.0, size=10):
            phases = np.exp(1j * energies * t)
            conj = (u * phases) @ u.conj().T @ s @ (u * phases.conj()) @ u.conj().T
            series = dec.c0.astype(complex).copy()
            for m in dec.modes:
                series += (m.operator * np.exp(-1j * m.frequency * t)
                           + dagger(m.operator) * np.exp(1j * m.frequency * t))
            assert np.linalg.norm(conj - series) < 1e-9


def test_zero_weight_modes_are_dropped():
    # the coupling only bridges the outer levels, so only that one Bohr
    # frequency may appear even though the spectrum offers three gaps
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    s = np.zeros((3, 3), dtype=complex)
    s[0, 2] = s[2, 0] = 1.0
    dec = exact_bohr_decomposition(h, s)
    assert len(dec.modes) == 1
    assert abs(dec.modes[0].frequency - 3.0) < 1e-12


def test_near_degenerate_gaps_cluster():
    h = np.diag([0.0, 1.0, 2.0 + 1e-12]).astype(complex)
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = s[1, 0] = 1.0
    s[1, 2] = s[2, 1] = 1.0
    dec = exact_bohr_decomposition(h, s, freq_tol=1e-9)
    assert len(dec.modes) == 1  # both unit gaps merge into one mode
    resummed = dec.c0 + dec.modes[0].operator + dagger(dec.modes[0].operator)
    assert np.linalg.norm(resummed - s) < 1e-10


def test_exact_bohr_validation():
    with pytest.raises(ValueError):
        exact_bohr_decomposition(sigma_plus, sigma_x)
    with pytest.raises(ValueError):
        exact_bohr_decomposition(sigma_z, sigma_plus)
    with pytest.raises(ValueError):
        exact_bohr_decomposition(sigma_z, sigma_x, freq_tol=-1.0)


def test_local_decomposition():
    dec = local_decomposition(sigma_z, [JumpMode(sigma_minus, 1.0)])
    assert dec.provenance == "approximate"
    assert not dec.rates_assigned
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        local_decomposition(sigma_plus, [JumpMode(sigma_minus, 1.0)])
    with pytest.raises(ValueError, match="distinct"):
        local_decomposition(np.zeros((2, 2)),
                            [JumpMode(sigma_minus, 1.0), JumpMode(sigma_plus, 1.0)])
    with pytest.raises(ValueError):
        JumpMode(sigma_minus, -1.0)
    with pytest.raises(ValueError):
        JumpMode(sigma_minus, 0.0)


def test_assign_rates_zero_temperature():
    dec = exact_bohr_decomposition(0.5 * sigma_z, sigma_x)
    assigned = assign_rates(dec, BathSpec(temperature=0.0, rate_profile=0.3))
    assert assigned.rates_assigned
    assert assigned.modes[0].gamma_down == 0.3
    assert assigned.modes[0].gamma_up == 0.0
    assert assigned.gamma0 == 0.0


def test_assign_rates_thermal_values():
    # at T = omega/ln 2 the occupation is exactly 1, so the rate pair is (2g, g)
    omega = 1.0
    dec = exact_bohr_decomposition(0.5 * omega * sigma_z, sigma_x)
    bath = BathSpec(temperature=omega / np.log(2.0), rate_profile=0.3, gamma0=0.05)
    assigned = assign_rates(dec, bath)
    assert abs(assigned.modes[0].gamma_down - 0.6) < 1e-12
    assert abs(assigned.modes[0].gamma_up - 0.3) < 1e-12
    assert assigned.gamma0 == 0.05


def test_assign_rates_detailed_balance(rng):
    for _ in range(20):
        omega = float(rng.uniform(0.2, 3.0))
        temp = float(rng.uniform(0.1, 5.0))
        dec = exact_bohr_decomposition(0.5 * omega * sigma_z, sigma_x)
        assigned = assign_rates(dec, BathSpec(temperature=temp, rate_profile=1.0))
        ratio = assigned.modes[0].gamma_up / assigned.modes[0].gamma_down
        assert abs(ratio - np.exp(-omega / temp)) < 1e-12


def test_assign_rates_idempotent():
    dec = exact_bohr_decomposition(0.5 * sigma_z, sigma_x)
    bath = BathSpec(temperature=0.4, rate_profile=0.2)
    once = assign_rates(dec, bath)
    twice = assign_rates(once, bath)
    assert once.modes[0].gamma_down == twice.modes[0].gamma_down
    assert once.modes[0].gamma_up == twice.modes[0].gamma_up
    other = assign_rates(once, BathSpec(temperature=0.0, rate_profile=0.9))
    assert other.modes[0].gamma_down == 0.9


def test_assign_rates_tabulated_lookup():
    dec = exact_bohr_decomposition(0.5 * sigma_z, sigma_x)
    bath = BathSpec(temperature=0.0, rate_profile=((0.5, 0.2), (1.0, 0.7)))
    assert assign_rates(dec, bath).modes[0].gamma_down == 0.7
    sparse = BathSpec(temperature=0.0, rate_profile=((0.5, 0.2),))
    with pytest.raises(ValueError, match="1"):
        assign_rates(dec, sparse)


def test_bose_occupation():
    assert bose_occupation(1.0, 0.0) == 0.0
    assert abs(bose_occupation(1.0, 1.0 / np.log(2.0)) - 1.0) < 1e-14
    # classical limit: nbar -> T/omega - 1/2
    assert abs(bose_occupation(1.0, 1e6) - (1e6 - 0.5)) / 1e6 < 1e-5


def test_bose_occupation_deep_cold_is_zero():
    # omega / T = 1024 overflows exp; the occupation, about exp(-1024), is 0 in doubles
    assert bose_occupation(2.0, 2.0 ** -9) == 0.0
    assert bose_occupation(700.0, 1.0) == 1.0 / np.expm1(700.0)


def test_decompose_model_per_coupling():
    model = two_level_atom(1.0, 0.25, 0.0)
    decs = decompose_model(model)
    assert len(decs) == 1
    assert isinstance(decs[0], JumpDecomposition)
    assert decs[0].rates_assigned
    assert decs[0].modes[0].gamma_down == 0.25
