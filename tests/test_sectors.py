"""The sector engine: a level steps only the blocks its vectors touch.

Every reference here steps the whole generator of the level, by
``integrate_ode`` on the CSR generator or by the dense level's full
propagator, so a wrong block labelling or a wrong restriction shows as a
deviation from it.  The exceptions check the block propagators of a sparse
level against the exponential of the restricted generator G[S, S], and a held
slice propagator against its blocks' own exponentials, bit for bit.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
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
from lindcorr import _held, generators, propagation
from lindcorr.operators import hermitian_eig, kron

from conftest import (
    held,
    held_bytes,
    pull_back,
    random_density,
    random_hermitian,
    random_matrix,
    slice_blocks,
    step_propagators,
)

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
    """Orders of the generators stepped, one entry per expm call and per action run
    (an _interval call, of vectors or of a sweep's values)."""
    orders = []
    expm, interval = propagation.expm, propagation._interval
    monkeypatch.setattr(propagation, "_interval", lambda plan, b, run, w=None: orders.append(
        plan.shifted.shape[0]) or interval(plan, b, run, w))
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
    a_ops = [identity(4), _site(sigma_x, 1), _site(sigma_x, 0), identity(4)][:n + 1]
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
    assert all(isinstance(key, int) for key in held("generator"))  # no G[S, S] held
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
    labels = held("labels")[2]
    assert len(np.unique(labels)) == 9 ** 4
    assert orders == [1] * np.count_nonzero(tensor * w)  # one order-1 expm per touched coordinate
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
    _held.drop_all()
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 100)
    carried, trajectory = [], propagation._SlotEvolver.trajectory

    def traced(ev, v, n, taus, origin=0.0, adjoint=False, w=None):
        carried.append((n, adjoint, w is not None))
        return trajectory(ev, v, n, taus, origin, adjoint, w)
    monkeypatch.setattr(propagation._SlotEvolver, "trajectory", traced)
    orders = _stepped(monkeypatch)
    sparse = general_correlator(model.hamiltonian, decs, spec, taus=taus).values
    # the state to the earliest time, the one pull-back of the 2-slot level, the sweep
    assert carried == [(1, True, False), (2, True, False), (1, False, True)]
    assert not generators._within_budget(model.dim ** 4)
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
    # so the held generator itself is stepped, exactly as without blocks: one
    # action run of the whole CSR generator that returns the sweep's values, whose
    # interior points differ from w @ the rows by rounding only
    h = random_hermitian(rng, 3)
    dec = assign_rates(exact_bohr_decomposition(h, random_hermitian(rng, 3)),
                       BathSpec(temperature=0.5, rate_profile=0.2, gamma0=0.05))
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 50)
    a_ops = [random_matrix(rng, 3) for _ in range(3)]
    b_ops = [random_matrix(rng, 3) for _ in range(2)]
    rho = random_density(rng, 3)
    values = equal_time_group_correlator(h, dec, a_ops, b_ops, rho, TAUS).values
    assert np.all(held("labels")[2] == 0)
    tensor, w = elementary_tensor(b_ops), contraction_functional(a_ops, rho)
    plan = propagation._ActionPlan(multi_slot_action(h, dec, 2).to_csr())
    expected, _last = propagation._interval(plan, tensor, plan.run(float(TAUS[-1]), len(TAUS) - 1), w)
    assert np.array_equal(values, expected)
    rows = _full_sweep(h, dec, tensor, w, TAUS)
    assert np.max(np.abs(values - rows)) <= 1e-15 * np.max(np.abs(rows))


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
    gen, labels = held("generator")[2], held("labels")[2]
    assert np.all(gen.data.real == 0) and np.all(gen.data != 0)
    assert len(np.unique(labels)) == 4 ** 2  # 4 blocks per slot
    tensor, w = elementary_tensor(b_ops), contraction_functional(a_ops, rho)
    expected = _full_sweep(h, dec, tensor, w, TAUS)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.ptp(np.abs(values)) > 1e-3  # the hopping moves it


def test_level_stepped_whole_holds_no_block_order(rng):
    # a one-block level is stepped whole and groups no coordinates, so only its
    # labels are held; a call that groups the dimer's coordinates by block holds
    # its slice, the level's stable block order on the touched blocks, and the
    # bytes held count it
    h = random_hermitian(rng, 3)
    dec = assign_rates(exact_bohr_decomposition(h, random_hermitian(rng, 3)),
                       BathSpec(temperature=0.5, rate_profile=0.2, gamma0=0.05))
    otoc(h, dec, random_matrix(rng, 3), random_matrix(rng, 3), random_density(rng, 3), TAUS)
    (labels,) = held("labels").values()
    assert not labels.any() and held("slice") == {}
    assert _held.counts["bytes"] == held_bytes()
    _held.drop_all()
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    otoc(model.hamiltonian, decs, _site(sigma_x, 0), _site(sigma_z, 1), random_density(rng, 4), TAUS)
    labels, (((n, key), (coords, spans)),) = held("labels")[2], held("slice").items()
    order = np.argsort(labels, kind="stable")
    assert n == 2 and np.array_equal(coords, order[np.isin(labels[order], slice_blocks(key))])
    assert [labels[coords[start:stop]].tolist() for start, stop in spans] == [
        [block] * int(np.sum(labels == block)) for block in slice_blocks(key)]
    assert _held.counts["bytes"] == held_bytes()


def test_disjoint_tensor_and_contraction_give_exact_zeros(monkeypatch):
    # trace(a(tau) a(tau) rho) in a diagonal state: T = a (x) a has total Bohr
    # frequency -2 and the contraction lives at 0, so no block is stepped
    model, decs = _oscillator(9)
    a = annihilation(9)
    rho = np.diag(np.exp(-np.arange(9.0))).astype(complex)
    rho /= np.trace(rho)
    multiply = []
    interval = propagation._interval
    monkeypatch.setattr(propagation, "_interval",
                        lambda plan, b, run, w=None: multiply.append(run[1] + 1) or interval(plan, b, run, w))
    orders = _stepped(monkeypatch)
    trace = equal_time_group_correlator(model.hamiltonian, decs, [identity(9)] * 3, [a, a], rho, TAUS)
    assert not generators._within_budget(model.dim ** 4)
    assert np.array_equal(trace.values, np.zeros(len(TAUS)))
    assert multiply == [] and orders == []


def test_held_engine_trims_its_block_labels(rng, monkeypatch):
    # at budget 8 both dimer levels are sparse; the default cap holds both levels'
    # labels, under cap 0 a call keeps only its own level's
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    monkeypatch.setattr(generators, "DEFAULT_SLOT_BUDGET", 8)
    rho = random_density(rng, 4)
    otoc(model.hamiltonian, decs, _site(sigma_plus, 0), _site(sigma_z, 1), rho, TAUS)
    assert set(held("labels")) == {2}
    a = _site(sigma_minus, 1)
    qrt_correlator(model.hamiltonian, decs, identity(4), dagger(a), a, rho, TAUS)
    assert set(held("labels")) == {1, 2}
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", 0)
    qrt_correlator(model.hamiltonian, decs, identity(4), dagger(a), a, rho, TAUS)
    assert set(held("labels")) == {1} and {key[0] for key in held("slice")} <= {1}
    assert 2 not in held("generator")
    assert all(key == 1 for key in held("generator"))
    assert all(key[0] == 1 for kind in ("propagator", "plan", "run") for key in held(kind))


# ------------------------------------------------------------ dense levels


def _dense_level(name):
    """(evolver, n) of a dense level: the dimer's 2-slot one (order 256) or the
    qubit's 3-slot one (order 64)."""
    model = coupled_dimer(**DIMER) if name == "dimer-2" else two_level_atom(1.0, 0.1, 0.5)
    return propagation._SlotEvolver(model.hamiltonian, decompose_model(model)), (
        2 if name == "dimer-2" else 3)


@pytest.mark.parametrize("name", ["dimer-2", "qubit-3"])
def test_dense_labels_and_exact_zero_propagators(name):
    # the dense expm of the level is exactly zero between the components
    # connected_components finds, so slicing it is exact
    ev, n = _dense_level(name)
    gen = ev.generator(n).toarray()
    labels = ev.labels(n)
    assert generators._within_budget(ev.dim ** (2 * n)) and 1 < labels.max() + 1 < len(gen)
    apart = labels[:, None] != labels[None, :]
    assert not np.any(gen[apart])
    for gap in (0.3, 2.5):
        assert np.count_nonzero(propagation.expm(gen, gap)[apart]) == 0


@pytest.mark.parametrize("name", ["dimer-2", "qubit-3"])
def test_dense_block_sweep_and_pull_back_match_full_propagator(name, rng):
    # a tensor on some blocks against a w on others and on them: the restricted
    # sweep, a trajectory and a pull-back against the full propagator's products
    ev, n = _dense_level(name)
    gen = ev.generator(n).toarray()
    labels = ev.labels(n)
    tensor = (rng.standard_normal(len(gen)) + 1j) * (labels % 3 == 0)
    w = (rng.standard_normal(len(gen)) + 1j) * (labels % 2 == 0)
    _key, coords, _spans = ev._slice(n, tensor, w)
    assert 0 < len(coords) < len(gen)
    taus = np.linspace(0.5, 4.5, 9)
    expected = np.array([w @ scipy.linalg.expm(tau * gen) @ tensor for tau in taus])
    values = np.array(list(ev.trajectory(tensor, n, taus, w=w)))
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))
    for v, tau in zip(ev.trajectory(tensor, n, taus, origin=0.5), taus):
        full = scipy.linalg.expm((tau - 0.5) * gen) @ tensor
        assert np.max(np.abs(v - full)) <= 1e-12 * np.max(np.abs(full))
    pulled = pull_back(ev, w, n, 1.7)
    full = w @ scipy.linalg.expm(1.7 * gen)
    assert np.max(np.abs(pulled - full)) <= 1e-12 * np.max(np.abs(full))


def test_one_block_dense_level_is_byte_identical_to_full_propagator(rng):
    # a random H and coupling on 3 levels make one block of the dense 2-slot level
    # (81 coordinates); its sweep takes the level's own propagator, as before blocks
    h = random_hermitian(rng, 3)
    dec = assign_rates(exact_bohr_decomposition(h, random_hermitian(rng, 3)),
                       BathSpec(temperature=0.5, rate_profile=0.2, gamma0=0.05))
    a_ops = [random_matrix(rng, 3) for _ in range(3)]
    b_ops = [random_matrix(rng, 3) for _ in range(2)]
    rho = random_density(rng, 3)
    values = equal_time_group_correlator(h, dec, a_ops, b_ops, rho, TAUS).values
    assert generators._within_budget(len(h) ** 4) and np.all(held("labels")[2] == 0)
    gen = multi_slot_generator(h, dec, 2).matrix
    v, w = elementary_tensor(b_ops), contraction_functional(a_ops, rho)
    expected = []
    for step in propagation._grid_steps(TAUS):
        if step != 0.0:
            v = propagation.expm(gen, float(step)) @ v
        expected.append(w @ v)
    assert np.array_equal(values, np.array(expected))


def _pauli(label):
    paulis = {"I": identity(2), "X": sigma_x, "Y": sigma_y, "Z": sigma_z}
    return kron(paulis[label[0]], paulis[label[1]])


def test_dimer_otoc_forms_only_its_touched_blocks(monkeypatch):
    # W = XI, V = ZZ touches 70 of the 256 coordinates of the dimer's 2-slot
    # level: only the touched blocks' propagators are formed, each once, and
    # the held slice propagator holds those blocks' exactly, zero between them
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    rho = steady_state(model, decs)
    w_op, v_op = _pauli("XI"), _pauli("ZZ")
    orders = _stepped(monkeypatch)
    values = otoc(model.hamiltonian, decs, w_op, v_op, rho, TAUS).values
    ev = propagation._SlotEvolver(model.hamiltonian, decs)  # finds the call's held entries
    tensor = elementary_tensor([dagger(w_op), w_op])
    w = contraction_functional([identity(4), dagger(v_op), v_op], rho)
    labels, (key, coords, spans) = ev.labels(2), ev._slice(2, tensor, w)
    sizes = np.bincount(labels[coords])
    sizes = sizes[sizes > 0]
    assert generators._within_budget(ev.dim ** 4) and len(coords) == 70
    assert orders and max(orders) <= 70
    assert sorted(orders) == sorted(sizes.tolist())  # one uniform grid: each block once
    ((_n, gap, held_key), prop), = held("propagator").items()  # one step
    blocks = step_propagators(2, gap)
    assert held_key == key and prop.nbytes == 16 * 70 ** 2
    assert sum(m.nbytes for m in blocks.values()) == 16 * int(np.sum(sizes ** 2))
    inside = np.zeros(prop.shape, dtype=bool)
    for start, stop in spans:
        inside[start:stop, start:stop] = True
    assert not np.any(prop[~inside])
    expected = _full_sweep(model.hamiltonian, decs, tensor, w, TAUS)
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(expected))


def _held_slice_propagator(h, decs):
    """The model's one held slice propagator and, for comparison, the block-diagonal
    of expm(gap G_b) over the slice's blocks, each G_b cut from the whole level's
    generator at the coordinates labelled b; and the slice's spans."""
    ev = propagation._SlotEvolver(h, decs)  # finds the call's held entries
    (((n, gap, key), prop),) = held("propagator", ev.key).items()
    coords, spans = held("slice", ev.key)[n, key]
    gen, labels = ev.generator(n), ev.labels(n)
    expected = np.zeros((len(coords), len(coords)), dtype=complex)
    for block, (start, stop) in zip(slice_blocks(key), spans):
        inside = np.flatnonzero(labels == block)
        assert np.array_equal(coords[start:stop], inside)
        expected[start:stop, start:stop] = propagation.expm(gen[inside][:, inside].toarray(), gap)
    return prop, expected, spans


@pytest.mark.parametrize("ops, sizes", [(("XI", "ZZ"), [70]), (("ZY", "XI"), [28, 28, 70])],
                         ids=["one-block", "three-blocks"])
def test_held_slice_propagator_is_its_blocks_propagators(ops, sizes):
    # a uniform OTOC on the dimer's 2-slot level holds one propagator of its slice,
    # one block or several: bit for bit the block-diagonal of each block's expm
    model = coupled_dimer(**DIMER)
    decs = decompose_model(model)
    w_op, v_op = (_pauli(label) for label in ops)
    otoc(model.hamiltonian, decs, w_op, v_op, steady_state(model, decs), TAUS)
    prop, expected, spans = _held_slice_propagator(model.hamiltonian, decs)
    assert sorted(stop - start for start, stop in spans) == sizes
    assert np.array_equal(prop, expected)
    assert prop.size <= generators.DEFAULT_SLOT_BUDGET ** 2


def test_held_slice_propagator_of_single_coordinates(rng):
    # the rate-free 9-level oscillator's G_2 is diagonal: its slice propagator is
    # the diagonal of each touched coordinate's expm, bit for bit
    model, decs = _oscillator(9, gamma=0.0)
    a = annihilation(9)
    x = a + dagger(a)
    equal_time_group_correlator(model.hamiltonian, decs, [identity(9), dagger(a), a], [x, x],
                                random_density(rng, 9), TAUS)
    prop, expected, spans = _held_slice_propagator(model.hamiltonian, decs)
    assert len(spans) > 1 and {stop - start for start, stop in spans} == {1}
    assert np.array_equal(prop, expected)
    assert prop.size <= generators.DEFAULT_SLOT_BUDGET ** 2


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
        values = np.array(list(propagation._SlotEvolver(h, dec).trajectory(tensor, 2, TAUS, w=w)))
    scale = np.linalg.norm(tensor) * np.linalg.norm(w)
    assert np.max(np.abs(values - expected)) <= 1e-12 * scale


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_models(), st.sampled_from(["dense", "block", "csr"]), st.floats(0.05, 5.0),
       st.integers(0, 2 ** 32 - 1))
def test_action_matches_propagator_within_engine_tolerance(model, engine, gap, seed):
    # the engine tolerance of the propagation module: one step above
    # _SINGLE_USE_ORDER, taken as an action on a dense level, on a sparse
    # level's restricted dense block or on a CSR level, against the product with
    # the whole level's propagator, within 1e-12 of the result's largest entry.
    # The rule reads the largest touched block, and these eigenbasis blocks are
    # small, so the threshold is set to 0 to make every such step an action
    h, s, bath = model
    energies, u = hermitian_eig(h)
    h = np.diag(energies).astype(complex)
    dec = assign_rates(exact_bohr_decomposition(h, u.conj().T @ s @ u), bath)
    n = 3 if len(h) == 2 else 2  # orders 64, 81 and 256
    csr = multi_slot_action(h, dec, n).to_csr()
    order = csr.shape[0]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(order) + 1j * rng.standard_normal(order)
    budget, touched = {"dense": order, "block": order - 1, "csr": 1}[engine], order
    if engine == "block":  # a sparse level whose touched blocks fit the budget
        labels = propagation._block_labels(csr)
        w[labels == np.argmin(np.bincount(labels))] = 0.0
        touched = np.count_nonzero(w)
    expected = w @ propagation.expm(csr.toarray(), gap)
    acts = mock.patch.object(propagation, "_interval", wraps=propagation._interval)
    with _budget(budget), mock.patch.object(propagation, "_SINGLE_USE_ORDER", 0), acts as acted:
        got = pull_back(propagation._SlotEvolver(h, dec), w, n, gap)
        assert acted.call_count == (touched > propagation._SINGLE_USE_ORDER)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_models(), st.sampled_from(["dense", "sparse"]), st.sampled_from(["all", "single", "union"]),
       st.data())
def test_block_propagators_match_level_propagator(model, level, touch, data):
    # a uniform run steps the touched blocks by their own propagators, put
    # together block-diagonally: against the whole level's expm on a dense level
    # and against expm(G[S, S]) on a sparse one, for vectors on every block, on
    # the order-1 blocks only, or on a drawn union of blocks
    h, s, bath = model
    energies, u = hermitian_eig(h)
    h = np.diag(energies).astype(complex)
    dec = assign_rates(exact_bohr_decomposition(h, u.conj().T @ s @ u), bath)
    gen = multi_slot_action(h, dec, 2).to_csr()
    labels = propagation._block_labels(gen)
    sizes = np.bincount(labels)
    if touch == "all":
        picked = np.ones(len(sizes), dtype=bool)
    elif touch == "single":
        picked = sizes == 1
    else:
        picked = np.array(data.draw(st.lists(st.booleans(), min_size=len(sizes),
                                             max_size=len(sizes))))
    if level == "sparse":
        picked[np.argmax(sizes)] = False  # S must fit the budget of a sparse level
    assume(len(sizes) > 1 and picked.any())
    inside = picked[labels]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    v = (rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))) * inside
    taus = np.linspace(0.0, data.draw(st.floats(0.5, 8.0)), 5)
    order = len(labels) if level == "dense" else len(labels) - 1
    _held.drop_all()  # each example starts from no held entry
    with _budget(order), mock.patch.object(propagation, "_interval") as acted:
        ev = propagation._SlotEvolver(h, dec)
        got = list(ev.trajectory(v, 2, taus))
        assert not acted.called and generators._within_budget(ev.dim ** 4) == (level == "dense")
    ((_n, gap),) = {key[:2] for key in held("propagator", ev.key)}  # one step
    assert sorted(step_propagators(2, gap, ev.key)) == np.flatnonzero(picked).tolist()
    full = gen.toarray() if level == "dense" else gen[inside][:, inside].toarray()
    prop = propagation.expm(full, float(taus[1]))
    expected = v if level == "dense" else v[inside]
    for state in got[1:]:
        expected = prop @ expected
        part = state if level == "dense" else state[inside]
        assert np.max(np.abs(part - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert level == "dense" or not np.any(state[~inside])
