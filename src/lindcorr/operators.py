"""Dense complex linear algebra primitives.

Everything downstream relies on two fixed conventions set here:

* hbar = 1; Hamiltonians are stored divided by hbar (entries in rad/s).
* Vectorization is column stacking, ``vec(X)[c*d + r] = X[r, c]``, so that
  ``vec(A X B) = kron(B.T, A) @ vec(X)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericsError

# default absolute tolerance of the hermiticity predicate
HERMITIAN_ATOL = 1e-12

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|, e = index 0
sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|

for _p in (sigma_x, sigma_y, sigma_z, sigma_plus, sigma_minus):
    _p.setflags(write=False)
del _p


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting malformed input."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator on the lowest `dim` number states."""
    if dim < 2:
        raise ValueError(f"annihilation operator needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def kron(a, b) -> np.ndarray:
    a = as_operator(a, "kron factor A")
    b = as_operator(b, "kron factor B")
    return np.kron(a, b)


def _check_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what}: dimension mismatch {a.shape[0]} vs {b.shape[0]}")


def commutator(a, b) -> np.ndarray:
    a = as_operator(a, "commutator argument A")
    b = as_operator(b, "commutator argument B")
    _check_same_dim(a, b, "commutator")
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a = as_operator(a, "anticommutator argument A")
    b = as_operator(b, "anticommutator argument B")
    _check_same_dim(a, b, "anticommutator")
    return a @ b + b @ a


def dagger(a) -> np.ndarray:
    return as_operator(a, "dagger argument").conj().T


def is_hermitian(a, tol: float = HERMITIAN_ATOL) -> bool:
    a = as_operator(a, "hermiticity argument")
    return bool(np.max(np.abs(a - a.conj().T), initial=0.0) <= tol)


def vec(a) -> np.ndarray:
    """Column-stack a matrix into a vector of length d**2."""
    return as_operator(a, "vec argument").reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"unvec expects a vector, got shape {v.shape}")
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError(f"unvec length {len(v)} is not a perfect square")
    return v.reshape(d, d, order="F")


def hermitian_eig(h, tol: float = 1e-10):
    """Spectral decomposition of a Hermitian matrix with deterministic ordering.

    Returns (eigenvalues ascending, eigenvector columns).  Inside a degenerate
    cluster, columns are ordered by the index of their largest-|component|
    entry and then by the phase of that entry in [0, 2*pi); this pins the
    output when the eigensolver's internal ordering is arbitrary.
    """
    h = as_operator(h, "hermitian_eig argument")
    if not is_hermitian(h, tol):
        dev = np.max(np.abs(h - h.conj().T))
        raise ValueError(f"hermitian_eig input is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")
    w, u = np.linalg.eigh(h)
    spread = float(w[-1] - w[0])
    cluster_tol = max(spread * 1e-12, 1e-14)
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[start] > cluster_tol:
            if stop - start > 1:
                cols = u[:, start:stop]
                peaks = np.argmax(np.abs(cols), axis=0)
                phases = np.mod(np.angle(cols[peaks, np.arange(cols.shape[1])]), 2.0 * np.pi)
                order = np.lexsort((phases, peaks))
                u[:, start:stop] = cols[:, order]
            start = stop
    return w, u


def expm(a, s: float = 1.0) -> np.ndarray:
    """exp(s*A) of a square matrix; raises NumericsError on overflow.

    scipy steps a triangular matrix by its own route, whose first off-diagonal
    (e^x - e^y) / (x - y) of two diagonal entries cancels when they differ by a
    rounding (2.5e-3 wrong on a 2 x 2 block of an eigenbasis generator).  So a
    triangular, non-diagonal A is exponentiated as the top-left block of
    diag(s A, sigma_x), which scipy takes as a full matrix.
    """
    a = as_operator(a, "expm argument")
    lower, upper = scipy.linalg.bandwidth(a)
    if (lower == 0) != (upper == 0):
        out = scipy.linalg.expm(scipy.linalg.block_diag(a * s, sigma_x))[:-2, :-2].copy()
    else:
        out = scipy.linalg.expm(a * s)
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"expm overflow: norm(s*A) = {np.linalg.norm(a * s):.3e}")
    return out
