import numpy as np
import pytest

from lindcorr import (
    BathSpec,
    SlotBudgetError,
    SuperOperator,
    adjoint_lindbladian,
    assign_rates,
    commutator,
    coupled_dimer,
    contraction_functional,
    decompose_model,
    elementary_tensor,
    exact_bohr_decomposition,
    forward_lindbladian,
    identity,
    multi_slot_action,
    multi_slot_generator,
    sigma_minus,
    sigma_plus,
    sigma_z,
    truncated_oscillator,
    two_level_atom,
    unvec,
    vec,
)
from lindcorr import generators
from lindcorr.acceptance import _brute_force_generator
from lindcorr.generators import DEFAULT_SLOT_BUDGET

from conftest import random_density, random_hermitian, random_matrix


def _qubit(gamma=0.1, temperature=0.0, omega0=1.0):
    model = two_level_atom(omega0, gamma, temperature)
    return model.hamiltonian, decompose_model(model)


def test_adjoint_lindbladian_damped_qubit():
    # frozen by hand: L[sigma+] = (i*omega0 - gamma/2) sigma+,
    # L[excited projector] = -gamma * excited projector
    omega0, gamma = 1.3, 0.4
    h, decs = _qubit(gamma=gamma, omega0=omega0)
    lind = adjoint_lindbladian(h, decs)
    got = unvec(lind.matrix @ vec(sigma_plus))
    assert np.max(np.abs(got - (1j * omega0 - gamma / 2) * sigma_plus)) < 1e-13
    p_e = np.diag([1.0, 0.0]).astype(complex)
    assert np.max(np.abs(unvec(lind.matrix @ vec(p_e)) + gamma * p_e)) < 1e-13


def test_zero_rates_reduce_to_commutator(rng):
    h = random_hermitian(rng, 3)
    s = random_hermitian(rng, 3)
    silent = BathSpec(temperature=0.0, rate_profile=0.0, gamma0=0.0)
    dec = assign_rates(exact_bohr_decomposition(h, s), silent)
    lind = adjoint_lindbladian(h, dec)
    for _ in range(10):
        b = random_matrix(rng, 3)
        got = unvec(lind.matrix @ vec(b))
        assert np.max(np.abs(got - 1j * commutator(h, b))) < 1e-12


def test_unassigned_rates_raise(rng):
    h = random_hermitian(rng, 2)
    dec = exact_bohr_decomposition(h, random_hermitian(rng, 2))
    with pytest.raises(ValueError, match="rate"):
        adjoint_lindbladian(h, dec)


def test_forward_preserves_trace_and_kills_ground():
    h, decs = _qubit(gamma=0.3, temperature=0.7)
    fwd = forward_lindbladian(h, decs)
    # trace preservation is the statement vec(I)^dag F = 0
    assert np.linalg.norm(vec(identity(2)).conj() @ fwd.matrix) < 1e-13
    h0, decs0 = _qubit(gamma=0.3, temperature=0.0)
    fwd0 = forward_lindbladian(h0, decs0)
    ground = np.diag([0.0, 1.0]).astype(complex)
    assert np.linalg.norm(fwd0.matrix @ vec(ground)) < 1e-13


def test_forward_adjoint_duality(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d)
        s = random_hermitian(rng, d)
        bath = BathSpec(temperature=float(rng.uniform(0.0, 2.0)),
                        rate_profile=float(rng.uniform(0.0, 0.5)),
                        gamma0=float(rng.uniform(0.0, 0.2)))
        dec = assign_rates(exact_bohr_decomposition(h, s), bath)
        lind = adjoint_lindbladian(h, dec)
        fwd = forward_lindbladian(h, dec)
        b, rho = random_matrix(rng, d), random_density(rng, d)
        lhs = np.trace(unvec(lind.matrix @ vec(b)) @ rho)
        rhs = np.trace(b @ unvec(fwd.matrix @ vec(rho)))
        assert abs(lhs - rhs) < 1e-12


def test_forward_fixes_thermal_state():
    # detailed-balance rates make the Gibbs state stationary for the exact
    # decomposition of the qubit
    omega0, temp = 1.0, 0.8
    h, decs = _qubit(gamma=0.2, temperature=temp, omega0=omega0)
    fwd = forward_lindbladian(h, decs)
    z = np.exp(-0.5 * omega0 / temp) + np.exp(0.5 * omega0 / temp)
    gibbs = np.diag([np.exp(-0.5 * omega0 / temp), np.exp(0.5 * omega0 / temp)]) / z
    assert np.linalg.norm(fwd.matrix @ vec(gibbs.astype(complex))) < 1e-13


def _cross_part(h, decs) -> np.ndarray:
    # X = G_2 - L (x) 1 - 1 (x) L: the two-slot generator's cross term
    lind = adjoint_lindbladian(h, decs).matrix
    eye = np.eye(4)
    return multi_slot_generator(h, decs, 2).matrix - np.kron(lind, eye) - np.kron(eye, lind)


def test_cross_vanishes_on_identity_slot(rng):
    h, decs = _qubit(gamma=0.5, temperature=0.4)
    cross = _cross_part(h, decs)
    b = random_matrix(rng, 2)
    assert np.linalg.norm(cross @ elementary_tensor([b, identity(2)])) < 1e-14
    assert np.linalg.norm(cross @ elementary_tensor([identity(2), b])) < 1e-14


def test_cross_damped_qubit_hand_values():
    # frozen by hand for the zero-temperature qubit channel (sigma-, rate g):
    # the pair term maps sigma- (x) sigma+ to g * sigmaz (x) sigmaz
    gamma = 0.37
    h, decs = _qubit(gamma=gamma)
    cross = _cross_part(h, decs)
    got = cross @ elementary_tensor([sigma_minus, sigma_plus])
    expected = gamma * np.kron(vec(sigma_z), vec(sigma_z))
    assert np.max(np.abs(got - expected)) < 1e-14
    assert np.linalg.norm(cross @ elementary_tensor([sigma_plus, sigma_minus])) < 1e-14


@pytest.mark.parametrize("model, n", [
    (two_level_atom(1.0, 0.15, 0.4), 3),
    (truncated_oscillator(omega0=1.0, dim=3, gamma=0.1, temperature=0.5), 2),
    (coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6), 2),
    (truncated_oscillator(omega0=1.0, dim=17, gamma=0.1, temperature=0.5), 1),
    (two_level_atom(1.0, 0.15, 0.4), 5),
], ids=["qubit-3", "oscillator3-2", "dimer-2", "oscillator17-1", "qubit-5"])
def test_generator_matches_brute_force(model, n, rng):
    # an independent reference: the generator built column by column from
    # plain matrix products, which also pins each term's slot placement; the
    # last two are sparse levels, assembled from CSR factors only
    decs = decompose_model(model)
    brute = _brute_force_generator(model.hamiltonian, decs, n)
    action = multi_slot_action(model.hamiltonian, decs, n)
    assert np.max(np.abs(action.to_csr().toarray() - brute)) < 1e-12
    y = (rng.standard_normal(len(brute)) + 1j * rng.standard_normal(len(brute))) / len(brute)
    assert np.max(np.abs(action.apply(y) - brute @ y)) < 1e-12
    if generators._within_budget(model.dim ** (2 * n)):
        dense = multi_slot_generator(model.hamiltonian, decs, n).matrix
        assert np.max(np.abs(dense - brute)) < 1e-12


def test_four_placement_expansion(rng):
    # the commutator pair expands into exactly four product placements
    for _ in range(20):
        p, q, b1, b2 = (random_matrix(rng, 2) for _ in range(4))
        paired = np.kron(p @ b1 - b1 @ p, b2 @ q - q @ b2)
        placements = (np.kron(p @ b1, b2 @ q) - np.kron(p @ b1, q @ b2)
                      - np.kron(b1 @ p, b2 @ q) + np.kron(b1 @ p, q @ b2))
        assert np.max(np.abs(paired - placements)) < 1e-14


def test_multi_slot_single_matches_adjoint():
    h, decs = _qubit(gamma=0.2, temperature=0.3)
    assert np.array_equal(multi_slot_generator(h, decs, 1).matrix,
                          adjoint_lindbladian(h, decs).matrix)


def test_multi_slot_annihilates_identity_tensor():
    h, decs = _qubit(gamma=0.2, temperature=0.3)
    for n in (2, 3):
        gen = multi_slot_generator(h, decs, n)
        assert np.linalg.norm(gen.matrix @ elementary_tensor([identity(2)] * n)) < 1e-12


def test_grouping_identity(rng):
    # tr(L[B1 B2] rho) must equal the two-slot generator contracted against
    # the product functional — this pins the cross-term rate and signs
    h, decs = _qubit(gamma=0.31, temperature=0.6)
    lind = adjoint_lindbladian(h, decs).matrix
    g2 = multi_slot_generator(h, decs, 2).matrix
    eye = identity(2)
    for _ in range(100):
        b1, b2 = random_matrix(rng, 2), random_matrix(rng, 2)
        rho = random_density(rng, 2)
        lhs = np.trace(unvec(lind @ vec(b1 @ b2)) @ rho)
        w = contraction_functional([eye, eye, eye], rho)
        rhs = w @ (g2 @ elementary_tensor([b1, b2]))
        assert abs(lhs - rhs) < 1e-10


def test_two_slot_reduction_on_identity(rng):
    # G2 applied to B (x) I must reproduce L[B] (x) I — the regression limit
    h, decs = _qubit(gamma=0.27, temperature=0.2)
    lind = adjoint_lindbladian(h, decs).matrix
    g2 = multi_slot_generator(h, decs, 2).matrix
    for _ in range(20):
        b = random_matrix(rng, 2)
        lhs = g2 @ elementary_tensor([b, identity(2)])
        rhs = np.kron(lind @ vec(b), vec(identity(2)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_generator_build_is_deterministic():
    h, decs = _qubit(gamma=0.2, temperature=0.5)
    a = multi_slot_generator(h, decs, 2).matrix
    b = multi_slot_generator(h, decs, 2).matrix
    assert np.array_equal(a, b)


def test_multi_slot_action_matches_dense(rng):
    model = two_level_atom(1.0, 0.15, 0.4)
    h = model.hamiltonian
    decs = decompose_model(model)
    for n in (2, 3):
        dense = multi_slot_generator(h, decs, n).matrix
        action = multi_slot_action(h, decs, n)
        y = rng.standard_normal(4 ** n) + 1j * rng.standard_normal(4 ** n)
        assert np.max(np.abs(action.apply(y) - dense @ y)) < 1e-12


def test_multi_slot_action_transpose_matches_dense(rng):
    model = two_level_atom(1.0, 0.15, 0.4)
    h = model.hamiltonian
    decs = decompose_model(model)
    for n in (1, 2, 3):
        dense = multi_slot_generator(h, decs, n).matrix
        transposed = multi_slot_action(h, decs, n).to_csr().T  # what a pull-back steps with
        y = rng.standard_normal(4 ** n) + 1j * rng.standard_normal(4 ** n)
        assert np.max(np.abs(transposed @ y - dense.T @ y)) < 1e-12


def test_multi_slot_action_csr_matches_dense():
    model = two_level_atom(1.0, 0.15, 0.4)
    h = model.hamiltonian
    decs = decompose_model(model)
    for n in (1, 2, 3):
        dense = multi_slot_generator(h, decs, n).matrix
        csr = multi_slot_action(h, decs, n).to_csr()
        assert csr.format == "csr"
        assert np.array_equal(csr.toarray(), dense)


def test_csr_bytes_bound_the_assembled_matrix():
    for model in (two_level_atom(1.0, 0.15, 0.4), coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6),
                  truncated_oscillator(omega0=1.0, dim=5, gamma=0.1, temperature=0.5)):
        decs = decompose_model(model)
        for n in (1, 2):
            action = multi_slot_action(model.hamiltonian, decs, n)
            csr = action.to_csr()
            held = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
            assert held <= action.csr_bytes()


def test_factor_bytes_bound_the_built_factors(rng):
    # the bound read from the d x d operators covers every array of the factors the
    # assembly builds; a random model's many dense channels sum past d**4 entries
    # for L, which holds at most that many
    h6 = random_hermitian(rng, 6)
    random6 = (h6, assign_rates(exact_bohr_decomposition(h6, random_hermitian(rng, 6)),
                                BathSpec(temperature=0.5, rate_profile=0.1, gamma0=0.05)))
    models = [(m.hamiltonian, decompose_model(m)) for m in (
        two_level_atom(1.0, 0.15, 0.4), coupled_dimer(1.0, 1.25, 0.3, 0.08, 0.05, 0.6),
        truncated_oscillator(omega0=1.0, dim=20, gamma=0.1, temperature=0.5))]
    for h, decs in [*models, random6]:
        for n in (1, 2):
            action = multi_slot_action(h, decs, n)
            factors = {id(f): f for term in action._terms for _slot, f in term}
            held = sum(part.nbytes for f in factors.values() for part in f)
            assert len(factors) == 1 + (n - 1) * 2 * len(action.channels)
            assert held <= action._factor_bytes()
    assert multi_slot_action(*random6, 1)._factor_bytes() == 20 * 6 ** 4 + 4 * 36 + 4


def test_slot_budget_enforcement(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(generators, "DEFAULT_SLOT_BUDGET", 16)
        h, decs = _qubit()
        multi_slot_generator(h, decs, 2)  # 16 == budget is allowed
    model = truncated_oscillator(omega0=1.0, dim=3, gamma=0.1, temperature=0.0)
    with pytest.raises(SlotBudgetError) as excinfo:
        multi_slot_generator(model.hamiltonian, decompose_model(model), 4)
    err = excinfo.value
    assert err.required == 3 ** 8
    assert err.budget == DEFAULT_SLOT_BUDGET
    assert "depth 4" in str(err)


def test_package_has_no_budget_copy():
    # the budget has one binding, in generators: a package-level copy would not steer the engine
    import lindcorr

    assert not hasattr(lindcorr, "DEFAULT_SLOT_BUDGET")
    assert "DEFAULT_SLOT_BUDGET" not in lindcorr.__all__


def test_superoperator_validation():
    with pytest.raises(ValueError):
        SuperOperator(dim=2, slots=1, matrix=np.zeros((3, 3), dtype=complex))


def test_mixed_dimension_decompositions_rejected(rng):
    h2, decs2 = _qubit()
    h3 = random_hermitian(rng, 3)
    dec3 = assign_rates(exact_bohr_decomposition(h3, random_hermitian(rng, 3)),
                        BathSpec(temperature=0.0, rate_profile=0.1))
    with pytest.raises(ValueError, match="mixed dimensions"):
        adjoint_lindbladian(h2, list(decs2) + [dec3])


def test_elementary_tensor_matches_kron(rng):
    ops = [random_matrix(rng, 2) for _ in range(3)]
    expected = np.kron(np.kron(vec(ops[0]), vec(ops[1])), vec(ops[2]))
    assert np.array_equal(elementary_tensor(ops), expected)
