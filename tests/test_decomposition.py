import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lindcorr import _held, decomposition
from lindcorr import (
    BathSpec,
    Coupling,
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
    SystemModel,
    two_level_atom,
)

from conftest import held, held_bytes, random_hermitian


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


# ------------------------------------------------------------ held decompositions


def _random_model(rng, d=4, temperature=0.7, rate=0.2):
    bath = BathSpec(temperature=temperature, rate_profile=rate, gamma0=0.05)
    ops = [random_hermitian(rng, d) for _ in range(3)]
    return SystemModel(ops[0], (Coupling(ops[1], bath), Coupling(ops[2], BathSpec(0.3, 0.1))))


def _count_eig(monkeypatch):
    calls = []
    eig = decomposition.hermitian_eig
    monkeypatch.setattr(decomposition, "hermitian_eig", lambda h: calls.append(h) or eig(h))
    return calls


def _same(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.c0, y.c0) and x.gamma0 == y.gamma0 and x.freq_tol == y.freq_tol
        and [(m.frequency, m.gamma_down, m.gamma_up) for m in x.modes]
        == [(m.frequency, m.gamma_down, m.gamma_up) for m in y.modes]
        and all(np.array_equal(m.operator, n.operator) for m, n in zip(x.modes, y.modes))
        for x, y in zip(a, b))


@pytest.mark.parametrize("freq_tol", [None, 1e-6])
def test_decompose_model_diagonalises_once_with_the_bytes_of_each_coupling(rng, monkeypatch, freq_tol):
    model = _random_model(rng)
    calls = _count_eig(monkeypatch)
    decs = decompose_model(model, freq_tol)
    assert len(calls) == 1
    alone = tuple(assign_rates(exact_bohr_decomposition(model.hamiltonian, c.operator, freq_tol), c.bath)
                  for c in model.couplings)
    assert len(calls) == 3 and _same(decs, alone)


def test_equal_model_from_fresh_arrays_finds_its_decomposition(rng, monkeypatch):
    model = _random_model(rng)
    first = decompose_model(model)
    fresh = SystemModel(model.hamiltonian.copy(), tuple(
        Coupling(c.operator.copy(), BathSpec(c.bath.temperature, c.bath.rate_profile, c.bath.gamma0))
        for c in model.couplings))
    calls = _count_eig(monkeypatch)
    hits, misses = _held.counts["hits"], _held.counts["misses"]
    again = decompose_model(fresh)
    assert calls == [] and again is first
    assert (_held.counts["hits"] - hits, _held.counts["misses"] - misses) == (1, 0)
    assert list(held("decomposition").values()) == [first]


def test_changed_model_or_tolerance_misses(rng, monkeypatch):
    model = _random_model(rng)
    decompose_model(model)
    h, (c1, c2) = model.hamiltonian, model.couplings
    changed = {
        "temperature": SystemModel(h, (Coupling(c1.operator, BathSpec(0.8, 0.2, 0.05)), c2)),
        "rate": SystemModel(h, (Coupling(c1.operator, BathSpec(0.7, 0.25, 0.05)), c2)),
        "gamma0": SystemModel(h, (Coupling(c1.operator, BathSpec(0.7, 0.2, 0.0)), c2)),
        "coupling": SystemModel(h, (c1, Coupling(c2.operator + 0.125 * np.eye(4), c2.bath))),
        "hamiltonian": SystemModel(h + 0.125 * np.eye(4), model.couplings),
    }
    calls = _count_eig(monkeypatch)
    for name, other in changed.items():
        misses = _held.counts["misses"]
        fresh = decompose_model(other)
        assert len(calls) == 1 and _held.counts["misses"] == misses + 1, name
        _held.drop_all()
        assert _same(fresh, decompose_model(other))  # a fresh build gives the same bytes
        decompose_model(model)
        calls.clear()
    for k, freq_tol in enumerate((1e-6, 1e-3)):
        decompose_model(model, freq_tol)
        assert len(calls) == k + 1
    digest = decomposition._model_digest(model)
    assert [key for model_digest, key in held("decomposition") if model_digest == digest] \
        == ["None", "1e-06", "0.001"]
    assert len(held("decomposition")) == 4  # and the last changed model's


def test_invalid_freq_tol_raises_on_every_call_and_holds_nothing(rng):
    model = _random_model(rng)
    for freq_tol in (0.0, -1e-9, float("nan"), 0.0):
        with pytest.raises(ValueError, match="freq_tol must be > 0"):
            decompose_model(model, freq_tol)
    assert held() == {} and _held.counts["bytes"] == 0


def test_held_decomposition_bytes_are_counted_and_released(rng):
    model = _random_model(rng)
    decs = decompose_model(model)
    operators = [d.c0 for d in decs] + [m.operator for d in decs for m in d.modes]
    assert _held.counts["bytes"] == held_bytes() == sum(op.nbytes for op in operators) > 0
    _held.drop_all()
    assert held() == {} and _held.counts["bytes"] == 0
    assert decompose_model(model) is not decs


def test_idle_decompositions_over_the_cap_go_least_recently_used_first(rng, monkeypatch):
    models = [_random_model(rng, temperature=t) for t in (0.2, 0.4, 0.6, 0.8)]
    first = decompose_model(models[0])
    size = _held.counts["bytes"]
    monkeypatch.setattr(_held, "IDLE_BYTE_CAP", int(1.5 * size))
    decompose_model(models[1])
    assert len(held("decomposition")) == 2  # one idle decomposition, under the cap
    decompose_model(models[0])  # used again: models[1] is now the least recent
    decompose_model(models[2])  # two idle, over the cap: models[1]'s goes
    assert list(held("decomposition").values()) == [first, decompose_model(models[2])]
    assert _held.counts["bytes"] == held_bytes()


def test_concurrent_decompositions_keep_the_byte_count(rng, monkeypatch):
    models = [_random_model(rng, temperature=t) for t in (0.2, 0.4, 0.6)]
    expected = [decompose_model(m) for m in models]
    _held.drop_all()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda k: decompose_model(models[k % 3]), range(48), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(_same(decs, expected[k % 3]) for k, decs in enumerate(got))
    assert len(held("decomposition")) == 3
    assert _held.counts["bytes"] == held_bytes()
    assert all(got[k] is got[k % 3] for k in range(48))  # one value held per model
