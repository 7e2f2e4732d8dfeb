import numpy as np
import pytest

from lindcorr import (
    NumericsError,
    annihilation,
    anticommutator,
    commutator,
    dagger,
    expm,
    hermitian_eig,
    identity,
    is_hermitian,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
    unvec,
    vec,
)
from lindcorr.operators import as_operator, kron

from conftest import random_hermitian, random_matrix


def test_kron_index_formula(rng):
    # (A (x) B)[i*db + k, j*db + l] = A[i,j] * B[k,l], checked entry by entry
    for da, db in ((2, 2), (2, 3), (3, 2)):
        a, b = random_matrix(rng, da), random_matrix(rng, db)
        k = kron(a, b)
        for i in range(da):
            for j in range(da):
                for p in range(db):
                    for q in range(db):
                        assert abs(k[i * db + p, j * db + q] - a[i, j] * b[p, q]) < 1e-15


def test_kron_pauli_z():
    assert np.array_equal(kron(sigma_z, sigma_z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_mixed_product(rng):
    a, b, c, d = (random_matrix(rng, 3) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_commutator_hand_multiplication():
    # oracle: explicit 2x2 matrix multiplication by index loops
    def matmul2(x, y):
        out = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[i, j] = sum(x[i, k] * y[k, j] for k in range(2))
        return out

    for x, y in ((sigma_z, sigma_minus), (sigma_x, sigma_y), (sigma_plus, sigma_minus)):
        expected = matmul2(x, y) - matmul2(y, x)
        assert np.array_equal(commutator(x, y), expected)
    assert np.array_equal(commutator(sigma_z, sigma_minus), -2.0 * sigma_minus)
    assert np.array_equal(commutator(sigma_x, sigma_y), 2j * sigma_z)


def test_commutator_is_traceless(rng):
    for _ in range(20):
        a, b = random_matrix(rng, 4), random_matrix(rng, 4)
        assert abs(np.trace(commutator(a, b))) < 1e-13


def test_commutator_dim_mismatch():
    with pytest.raises(ValueError):
        commutator(sigma_x, identity(3))


def test_anticommutator():
    assert np.array_equal(anticommutator(sigma_x, sigma_x), 2.0 * identity(2))
    assert np.max(np.abs(anticommutator(sigma_x, sigma_y))) == 0.0


def test_dagger_product_rule(rng):
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    assert np.array_equal(dagger(sigma_minus), sigma_plus)
    assert np.max(np.abs(dagger(a @ b) - dagger(b) @ dagger(a))) < 1e-15


def test_is_hermitian():
    assert is_hermitian(sigma_x)
    assert not is_hermitian(sigma_plus)


def test_annihilation_ladder():
    a = annihilation(4)
    expected = np.zeros((4, 4))
    expected[0, 1] = np.sqrt(1.0)
    expected[1, 2] = np.sqrt(2.0)
    expected[2, 3] = np.sqrt(3.0)
    assert np.array_equal(a, expected)
    number = dagger(a) @ a
    assert np.allclose(number, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)


def test_as_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_operator(np.array([1.0, 2.0]))


def test_vec_column_stacking_order():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0]))
    assert np.array_equal(vec(identity(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_unvec_roundtrip(rng):
    for _ in range(200):
        d = int(rng.integers(2, 7))
        m = random_matrix(rng, d)
        assert np.array_equal(unvec(vec(m)), m)


def test_vec_sandwich_identity(rng):
    # vec(A X B) = (B^T (x) A) vec(X)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a, x, b = (random_matrix(rng, d) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
    x = random_matrix(rng, 2)
    assert np.max(np.abs(vec(sigma_plus @ x @ sigma_minus)
                         - kron(sigma_minus.T, sigma_plus) @ vec(x))) < 1e-14


def test_unvec_requires_square_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(3))


def test_hermitian_eig_qubit():
    energies, u = hermitian_eig(sigma_z)
    assert np.array_equal(energies, np.array([-1.0, 1.0]))
    # ascending order puts the -1 eigenvector (basis index 1) first
    assert np.allclose(np.abs(u[:, 0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(np.abs(u[:, 1]), [1.0, 0.0], atol=1e-15)


def test_hermitian_eig_sigma_x():
    energies, u = hermitian_eig(sigma_x)
    assert np.allclose(energies, [-1.0, 1.0], atol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    # columns are genuine unit eigenvectors (gauge is unspecified off degeneracy)
    for k, w in enumerate(energies):
        assert np.allclose(sigma_x @ u[:, k], w * u[:, k], atol=1e-14)
        assert np.allclose(np.abs(u[:, k]), [s, s], atol=1e-14)
    # repeated calls agree bitwise, which is what output determinism needs
    _e2, u2 = hermitian_eig(sigma_x)
    assert np.array_equal(u, u2)


def test_hermitian_eig_reconstruction(rng):
    for _ in range(100):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        energies, u = hermitian_eig(h)
        assert np.all(np.diff(energies) >= 0)
        resid = u @ np.diag(energies) @ u.conj().T - h
        assert np.linalg.norm(resid) < 1e-12 * max(1.0, np.linalg.norm(h))


def test_hermitian_eig_degenerate_determinism():
    h = np.diag([1.0, 1.0, 2.0]).astype(complex)
    e1, u1 = hermitian_eig(h)
    e2, u2 = hermitian_eig(h)
    assert np.array_equal(e1, e2)
    assert np.array_equal(u1, u2)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eig(sigma_plus)


def test_expm_zero_is_exact_identity(rng):
    a = random_matrix(rng, 4)
    assert np.array_equal(expm(a, 0.0), identity(4))


def test_expm_taylor_oracle():
    theta = np.pi / 2
    a = 1j * theta * sigma_x
    series = np.zeros((2, 2), dtype=complex)
    term = identity(2)
    for k in range(30):
        series += term
        term = term @ a / (k + 1)
    got = expm(a, 1.0)
    assert np.max(np.abs(got - series)) < 1e-13
    assert np.max(np.abs(got - 1j * sigma_x)) < 1e-13


def test_expm_diagonal():
    got = expm(np.diag([1.0, -2.0]).astype(complex), 1.0)
    assert np.allclose(got, np.diag([np.e, np.exp(-2.0)]), atol=1e-14)


def test_expm_triangular_with_diagonal_entries_one_rounding_apart():
    # exp([[a, 0], [c, b]]) has c (e^b - e^a) / (b - a), about c e^((a + b) / 2), below
    # its diagonal; with b one ulp from a the difference quotient cancels entirely
    a = complex(-0.142, 4.34)
    b = complex(np.nextafter(a.real, 0.0), a.imag)
    lower = np.array([[a, 0.0], [-0.043, b]])
    exact = np.array([[np.exp(a), 0.0], [-0.043 * np.exp((a + b) / 2), np.exp(b)]])
    for m, want in ((lower, exact), (lower.T, exact.T)):
        assert np.max(np.abs(expm(m, 1.0) - want)) < 1e-15


def test_expm_inverse(rng):
    for _ in range(10):
        a = random_matrix(rng, 4)
        s = float(rng.uniform(0.1, 5.0))
        prod = expm(a, s) @ expm(a, -s)
        assert np.max(np.abs(prod - identity(4))) < 1e-10


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_expm_overflow_raises():
    with pytest.raises(NumericsError):
        expm(np.diag([1000.0, 1000.0]).astype(complex), 1.0)
