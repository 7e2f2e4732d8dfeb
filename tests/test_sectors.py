"""The sector engine: a sparse level steps only the blocks its vectors touch.

Every reference here steps the whole CSR generator of the level with
``integrate_ode`` (or is the dense engine), so a wrong block labelling or a
wrong restriction shows as a deviation from it.
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindcorr import (
    BathSpec,
    annihilation,
    assign_rates,
    contraction_functional,
    coupled_dimer,
    dagger,
    decompose_model,
    elementary_tensor,
    equal_time_group_correlator,
    evolve_density,
    exact_bohr_decomposition,
    forward_lindbladian,
    general_correlator,
    identity,
    integrate_ode,
    multi_slot_action,
    otoc,
    qrt_correlator,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_z,
    steady_state,
    truncated_oscillator,
    unvec,
    vec,
)
from lindcorr import generators, propagation
from lindcorr.operators import hermitian_eig, kron

from conftest import random_density, random_hermitian, random_matrix

TAUS = np.linspace(0.0, 4.0, 9)
DIMER = dict(omega1=1.0, omega2=1.25, g=0.3, gamma1=0.08, gamma2=0.05, temperature=0.6)


@contextmanager
def _budget(order):
    """DEFAULT_SLOT_BUDGET set to `order` inside the block (usable inside a Hypothesis example)."""
    saved = generators.DEFAULT_SLOT_BUDGET
    generators.DEFAULT_SLOT_BUDGET = order
    try:
        yield
    finally:
        generators.DEFAULT_SLOT_BUDGET = saved


def _full_sweep(h, decs, tensor, w, taus):
    """Reference: w @ exp(tau G_n) T with the whole n-slot CSR generator stepped."""
    n = round(np.log(len(tensor)) / np.log(h.shape[0] ** 2))
    gen = multi_slot_action(h, decs, n).to_csr()
    return np.array([w @ v for v in integrate_ode(gen, tensor, taus)])


def _stepped(monkeypatch):
    """Orders of the generators stepped, one entry per expm or integrate_ode call."""
    orders = []
    integrate, expm = propagation.integrate_ode, propagation.expm
    monkeypatch.setattr(propagation, "integrate_ode",
                        lambda g, v, grid: orders.append(g.shape[0]) or integrate(g, v, grid))
    monkeypatch.setattr(propagation, "expm", lambda m, t: orders.append(m.shape[0]) or expm(m, t))
    return orders


def _oscillator(dim, gamma=0.1):
    model = truncated_oscillator(1.0, dim, gamma, 0.5)
    return model, decompose_model(model)


def _site(op, site):
    """`op` on one qubit of the dimer."""
    return kron(op, identity(2)) if site == 0 else kron(identity(2), op)


def _dimer_case(n):
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    b_ops = [_site(sigma_plus, 0), _site(sigma_minus, 1), _site(sigma_z, 0)][:n]
    a_ops = [identity(4), _site(sigma_x, 1), _site(sigma_z, 1), identity(4)][:n + 1]
    return model.hamiltonian, decs, a_ops, b_ops, steady_state(model, decs)


def _otoc_case(dim):
    model, decs = _oscillator(dim)
    a = annihilation(dim)
    x, n = a + dagger(a), dagger(a) @ a
    return model.hamiltonian, decs, [identity(dim), n, n], [x, x], steady_state(model, decs)


def _qrt_case():
    model, decs = _oscillator(30)
    a = annihilation(30)
    return model.hamiltonian, decs, [identity(30), a], [dagger(a)], steady_state(model, decs)


# (inputs, lowered budget or None)
CASES = {
    "dimer-2": (lambda: _dimer_case(2), 100),
    "dimer-3": (lambda: _dimer_case(3), None),
    "oscillator-6": (lambda: _otoc_case(6), None),
    "oscillator-9": (lambda: _otoc_case(9), None),
    "qrt-30": (_qrt_case, None),
}


@pytest.mark.parametrize("case", CASES)
def test_block_engine_matches_full_engine(case, monkeypatch):
    make, budget = CASES[case]
    h, decs, a_ops, b_ops, rho = make()
    if budget is not None:
        monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", budget)
    tensor, w = elementary_tensor(b_ops), contraction_functional(a_ops, rho)
    expected = _full_sweep(h, decs, tensor, w, TAUS)
    orders = _stepped(monkeypatch)
    values = equal_time_group_correlator(h, decs, a_ops, b_ops, rho, TAUS).values
    assert orders and max(orders) < len(tensor)  # only some blocks were stepped
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_rate_free_oscillator_steps_single_coordinates(rng, monkeypatch):
    # H = n and no channel: G_2 is diagonal, so every coordinate is its own block
    model, decs = _oscillator(9, gamma=0.0)
    a = annihilation(9)
    x = a + dagger(a)
    rho = random_density(rng, 9)
    a_ops = [identity(9), dagger(a), a]
    tensor, w = elementary_tensor([x, x]), contraction_functional(a_ops, rho)
    expected = _full_sweep(model.hamiltonian, decs, tensor, w, TAUS)
    orders = _stepped(monkeypatch)
    values = equal_time_group_correlator(model.hamiltonian, decs, a_ops, [x, x], rho, TAUS).values
    labels = propagation._held[1]._labels[(2, False)]
    assert len(np.unique(labels)) == 9 ** 4
    assert orders == [np.count_nonzero(tensor * w)]  # one dense step of the touched coordinates
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_general_correlator_pull_back_on_sparse_level(rng, monkeypatch):
    # the dense engine at the default budget is the reference; at budget 100 the
    # two-slot level (256 coordinates) is sparse and pulls back only touched blocks
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    taus = np.linspace(1.0, 3.0, 5)
    spec_ops = ((_site(sigma_plus, 0), 3.0), (_site(sigma_z, 1), 1.0), (_site(sigma_minus, 0), 0.5))
    spec = propagation.CorrelatorSpec(spec_ops, random_density(rng, 4))
    dense = general_correlator(model.hamiltonian, decs, spec, taus=taus).values
    propagation._held = None
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    pulled = []
    pull_back = propagation._SlotEvolver.pull_back
    monkeypatch.setattr(propagation._SlotEvolver, "pull_back",
                        lambda ev, w, n, gap: pulled.append(n) or pull_back(ev, w, n, gap))
    orders = _stepped(monkeypatch)
    sparse = general_correlator(model.hamiltonian, decs, spec, taus=taus).values
    assert pulled == [2] and not propagation._held[1].dense(2)
    assert 0 < max(orders) < 256
    assert np.max(np.abs(sparse - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_density_trajectory_steps_the_blocks_of_the_state(rng, monkeypatch):
    # a 17-level oscillator's one-slot level (289 coordinates) is sparse; a
    # diagonal state lives in the zero-frequency block of 17 coordinates
    model, decs = _oscillator(17)
    rho0 = np.diag(rng.uniform(0.1, 1.0, 17)).astype(complex)
    rho0 /= np.trace(rho0)
    f = forward_lindbladian(model.hamiltonian, decs).matrix
    orders = _stepped(monkeypatch)
    rho = evolve_density(model.hamiltonian, decs, rho0, 2.5)
    assert orders == [17]
    expected = unvec(scipy.linalg.expm(2.5 * f) @ vec(rho0))
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_one_block_model_is_byte_identical_to_full_engine(rng, monkeypatch):
    # a random H and a random coupling make one block in the computational basis,
    # so the held generator itself is stepped, exactly as without blocks
    h = random_hermitian(rng, 3)
    dec = assign_rates(exact_bohr_decomposition(h, random_hermitian(rng, 3)),
                       BathSpec(temperature=0.5, rate_profile=0.2, gamma0=0.05))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 50)
    a_ops = [random_matrix(rng, 3) for _ in range(3)]
    b_ops = [random_matrix(rng, 3) for _ in range(2)]
    rho = random_density(rng, 3)
    values = equal_time_group_correlator(h, dec, a_ops, b_ops, rho, TAUS).values
    assert np.all(propagation._held[1]._labels[(2, False)] == 0)
    expected = _full_sweep(h, dec, elementary_tensor(b_ops), contraction_functional(a_ops, rho), TAUS)
    assert np.array_equal(values, expected)


def test_blocks_come_from_the_pattern_not_the_values(rng, monkeypatch):
    # with a real H and no channel every entry of G = i[H, .] is purely imaginary;
    # a real-part labelling would see 81 isolated coordinates
    h = np.array([[0.0, 0.7, 0.0], [0.7, 0.0, 0.0], [0.0, 0.0, 1.3]], dtype=complex)
    dec = assign_rates(exact_bohr_decomposition(h, h), BathSpec(0.0, 0.0))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
    hop = np.zeros((3, 3), dtype=complex)
    hop[0, 2] = 1.0  # |0><2| moves within the block {|0><2|, |1><2|}
    a_ops = [identity(3), random_matrix(rng, 3), identity(3)]
    b_ops = [hop, random_matrix(rng, 3)]
    rho = random_density(rng, 3)
    values = equal_time_group_correlator(h, dec, a_ops, b_ops, rho, TAUS).values
    ev = propagation._held[1]
    gen = ev.generator(2)
    assert np.all(gen.data.real == 0) and np.all(gen.data != 0)
    assert len(np.unique(ev._labels[(2, False)])) == 4 ** 2  # 4 blocks per slot
    tensor, w = elementary_tensor(b_ops), contraction_functional(a_ops, rho)
    expected = _full_sweep(h, dec, tensor, w, TAUS)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.ptp(np.abs(values)) > 1e-3  # the hopping moves it


def test_disjoint_tensor_and_contraction_give_exact_zeros(monkeypatch):
    # trace(a(tau) a(tau) rho) in a diagonal state: T = a (x) a has total Bohr
    # frequency -2 and the contraction lives at 0, so no block is stepped
    model, decs = _oscillator(9)
    a = annihilation(9)
    rho = np.diag(np.exp(-np.arange(9.0))).astype(complex)
    rho /= np.trace(rho)
    multiply = []
    expm_multiply = scipy.sparse.linalg.expm_multiply
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply",
                        lambda *a, **k: multiply.append(k["num"]) or expm_multiply(*a, **k))
    orders = _stepped(monkeypatch)
    trace = equal_time_group_correlator(model.hamiltonian, decs, [identity(9)] * 3, [a, a], rho, TAUS)
    assert not propagation._held[1].dense(2)
    assert np.array_equal(trace.values, np.zeros(len(TAUS)))
    assert multiply == [] and orders == []


def test_held_engine_trims_its_block_labels(rng, monkeypatch):
    # at budget 8 both dimer levels are sparse; each call keeps only its level's labels
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
    rho = random_density(rng, 4)
    otoc(model.hamiltonian, decs, _site(sigma_plus, 0), _site(sigma_z, 1), rho, TAUS)
    ev = propagation._held[1]
    assert set(ev._labels) == {(2, False)}
    a = _site(sigma_minus, 1)
    qrt_correlator(model.hamiltonian, decs, identity(4), dagger(a), a, rho, TAUS)
    assert propagation._held[1] is ev
    assert set(ev._labels) == {(1, False)}
    assert (2, False) not in ev._generators
    assert all(key[0] == 1 for key in [*ev._generators, *ev._propagators])


# ------------------------------------------------------------ properties


def _hermitian(draw, d):
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    re, im = (np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
              for _ in range(2))
    m = re + 1j * im
    return m + m.conj().T


@st.composite
def _models(draw):
    """(H, S, bath): a random Hermitian H and coupling S on 2-4 levels and a thermal bath."""
    d = draw(st.integers(2, 4))
    bath = BathSpec(temperature=draw(st.floats(0.0, 2.0)), rate_profile=draw(st.floats(0.01, 0.5)),
                    gamma0=draw(st.floats(0.0, 0.2)))
    return _hermitian(draw, d), _hermitian(draw, d), bath


def _bohr_frequencies(energies):
    """Bohr frequency E_a - E_b of each vec coordinate |a><b| (index a + b d)."""
    return (energies[:, None] - energies[None, :]).reshape(-1, order="F")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_models())
def test_two_slot_generator_keeps_total_bohr_frequency(model):
    # in the energy eigenbasis no entry of G_2 joins two total-frequency sectors
    h, s, bath = model
    dec = assign_rates(exact_bohr_decomposition(h, s), bath)
    energies, u = hermitian_eig(h)
    one = np.kron(u.T, u.conj().T)  # vec(U^dag X U) = (U^T (x) U^dag) vec(X)
    change = np.kron(one, one)
    g = change @ multi_slot_action(h, dec, 2).to_csr().toarray() @ change.conj().T
    f = _bohr_frequencies(energies)
    total = (f[:, None] + f[None, :]).reshape(-1)
    rows, cols = np.nonzero(np.abs(g) > 1e-9 * np.max(np.abs(g)))
    assert np.all(np.abs(total[rows] - total[cols]) <= 10 * dec.freq_tol)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_models(), st.data())
def test_block_engine_sweep_matches_full_engine(model, data):
    # the model written in its energy eigenbasis, where the CSR pattern shows the
    # sectors; sparse insertions leave some of them untouched
    h, s, bath = model
    energies, u = hermitian_eig(h)
    d = len(energies)
    h = np.diag(energies).astype(complex)
    dec = assign_rates(exact_bohr_decomposition(h, u.conj().T @ s @ u), bath)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def sparse_op():
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d)))
        return random_matrix(rng, d) * mask.reshape(d, d)

    tensor = elementary_tensor([sparse_op(), sparse_op()])
    w = contraction_functional([identity(d), sparse_op(), identity(d)], random_density(rng, d))
    budget = data.draw(st.integers(1, d ** 4 - 1))
    expected = _full_sweep(h, dec, tensor, w, TAUS)
    with _budget(budget):
        values = propagation._SlotEvolver(h, dec).sweep(tensor, 2, TAUS, w)
    scale = np.linalg.norm(tensor) * np.linalg.norm(w)
    assert np.max(np.abs(values - expected)) <= 1e-12 * scale
