import numpy as np
import pytest

from lindcorr import (
    BathSpec,
    Coupling,
    SystemModel,
    annihilation,
    coupled_dimer,
    dagger,
    decompose_model,
    named_operator,
    sigma_x,
    sigma_z,
    steady_state,
    truncated_oscillator,
    two_level_atom,
)


def test_two_level_atom_matrices():
    model = two_level_atom(2.0, 0.1, 0.0)
    assert np.array_equal(model.hamiltonian, np.diag([1.0, -1.0]))
    assert len(model.couplings) == 1
    assert np.array_equal(model.couplings[0].operator, sigma_x)
    assert model.couplings[0].bath.rate_profile == 0.1
    assert model.dim == 2


def test_two_level_atom_validation():
    with pytest.raises(ValueError):
        two_level_atom(-1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        two_level_atom(1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        two_level_atom(1.0, 0.1, -0.5)


def test_truncated_oscillator_hamiltonian():
    model = truncated_oscillator(0.7, 4, 0.05, 0.0)
    assert np.allclose(model.hamiltonian, 0.7 * np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)
    a = annihilation(4)
    assert np.array_equal(model.couplings[0].operator, a + dagger(a))


def test_truncated_oscillator_single_jump_mode():
    # the ladder coupling only connects adjacent levels, so the exact
    # decomposition collapses to one mode at the level spacing
    model = truncated_oscillator(1.3, 5, 0.05, 0.0)
    dec = decompose_model(model)[0]
    assert len(dec.modes) == 1
    assert abs(dec.modes[0].frequency - 1.3) < 1e-12
    assert np.max(np.abs(dec.modes[0].operator - annihilation(5))) < 1e-12
    assert np.max(np.abs(dec.c0)) < 1e-12


def test_truncated_oscillator_validation():
    with pytest.raises(ValueError):
        truncated_oscillator(1.0, 1, 0.05, 0.0)


def test_oscillator_thermal_occupation():
    # steady occupation of a damped truncated ladder must hit the Bose value;
    # 14 levels push the truncation error far below the tolerance at nbar = 0.2
    omega0, nbar = 1.0, 0.2
    temperature = omega0 / np.log(1.0 / nbar + 1.0)
    model = truncated_oscillator(omega0, 14, 0.08, temperature)
    rho = steady_state(model)
    occupation = float(np.trace(np.diag(np.arange(14.0)) @ rho).real)
    assert abs(occupation - nbar) < 1e-8


def test_coupled_dimer_structure():
    model = coupled_dimer(1.0, 1.3, 0.2, 0.1, 0.07, 0.5)
    assert model.dim == 4
    assert np.max(np.abs(model.hamiltonian - model.hamiltonian.conj().T)) == 0.0
    assert len(model.couplings) == 2
    assert model.couplings[0].bath.rate_profile == 0.1
    assert model.couplings[1].bath.rate_profile == 0.07
    assert model.couplings[0].bath.temperature == 0.5


def test_coupled_dimer_resonant_splitting():
    # resonant qubits hybridize: each local coupling acquires exactly two
    # jump modes at the dressed frequencies omega -/+ g
    g = 0.2
    model = coupled_dimer(1.0, 1.0, g, 0.1, 0.1, 0.0)
    for dec in decompose_model(model):
        freqs = sorted(m.frequency for m in dec.modes)
        assert len(freqs) == 2
        assert abs(freqs[0] - (1.0 - g)) < 1e-10
        assert abs(freqs[1] - (1.0 + g)) < 1e-10


def test_bathspec_flat_and_tabulated():
    flat = BathSpec(temperature=0.0, rate_profile=0.25)
    assert flat.rate_at(3.7, 1e-9) == 0.25
    table = BathSpec(temperature=0.0, rate_profile=((1.0, 0.1), (2.0, 0.3)))
    assert table.rate_at(2.0, 1e-9) == 0.3
    assert table.rate_at(1.0 + 1e-9, 1e-6) == 0.1
    with pytest.raises(ValueError, match="1.5"):
        table.rate_at(1.5, 1e-6)


def test_bathspec_validation():
    with pytest.raises(ValueError):
        BathSpec(temperature=-1.0, rate_profile=0.1)
    with pytest.raises(ValueError):
        BathSpec(temperature=0.0, rate_profile=-0.1)
    with pytest.raises(ValueError):
        BathSpec(temperature=0.0, rate_profile=((1.0, 0.1), (2.0, -0.3)))
    with pytest.raises(ValueError):
        BathSpec(temperature=0.0, rate_profile=0.1, gamma0=-0.2)
    # table rows are stored sorted by frequency regardless of input order
    table = BathSpec(temperature=0.0, rate_profile=((2.0, 0.1), (1.0, 0.3)))
    assert table.rate_profile == ((1.0, 0.3), (2.0, 0.1))


def test_named_operator():
    assert np.array_equal(named_operator("sx", 2), sigma_x)
    assert np.array_equal(named_operator("sz", 2), sigma_z)
    assert np.array_equal(named_operator("a", 3), annihilation(3))
    assert np.max(np.abs(named_operator("n", 3) - np.diag([0.0, 1.0, 2.0]))) < 1e-15
    assert np.array_equal(named_operator("I", 3), np.eye(3))
    with pytest.raises(ValueError, match="s\\+"):
        named_operator("s+", 3)
    with pytest.raises(ValueError):
        named_operator("nonsense", 2)


def test_coupling_freezes_operator():
    op = sigma_x.copy()
    coupling = Coupling(op, BathSpec(temperature=0.0, rate_profile=0.1))
    op[0, 0] = 99.0
    assert coupling.operator[0, 0] == 0.0
    with pytest.raises(ValueError):
        coupling.operator[0, 0] = 1.0  # read-only view


def test_coupling_requires_hermitian():
    from lindcorr import sigma_plus

    with pytest.raises(ValueError):
        Coupling(sigma_plus, BathSpec(temperature=0.0, rate_profile=0.1))


def test_system_model_validation():
    bath = BathSpec(temperature=0.0, rate_profile=0.1)
    non_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        SystemModel(non_hermitian, (Coupling(sigma_x, bath),))
    with pytest.raises(ValueError):
        SystemModel(sigma_z, ())
    with pytest.raises(ValueError):
        SystemModel(sigma_z, (Coupling(np.eye(3, dtype=complex), bath),))


@pytest.mark.parametrize("params", [(1.0, 1.25, 0.3, 0.08, 0.05, 0.6), (0.7, 2.0, -0.15, 0.0, 0.3, 0.0)])
def test_coupled_dimer_keeps_the_bytes_of_its_kronecker_build(params):
    omega1, omega2, g, gamma1, gamma2, temperature = params
    eye2 = np.eye(2, dtype=complex)
    sp, sm = np.array([[0, 1], [0, 0]], dtype=complex), np.array([[0, 0], [1, 0]], dtype=complex)
    h = (0.5 * omega1 * np.kron(sigma_z, eye2) + 0.5 * omega2 * np.kron(eye2, sigma_z)
         + g * (np.kron(sp, sm) + np.kron(sm, sp)))
    model = coupled_dimer(*params)
    assert np.array_equal(model.hamiltonian, h)
    assert [np.array_equal(c.operator, op) for c, op in zip(
        model.couplings, (np.kron(sigma_x, eye2), np.kron(eye2, sigma_x)))] == [True, True]
    assert [c.bath for c in model.couplings] == [BathSpec(temperature, gamma1), BathSpec(temperature, gamma2)]
