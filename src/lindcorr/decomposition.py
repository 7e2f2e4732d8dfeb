"""Jump-operator decompositions of coupling operators.

A Hermitian coupling operator S, conjugated by the free system evolution,
splits into a static part plus one oscillating operator per positive Bohr
frequency (difference of Hamiltonian eigenvalues):

    exp(+iHt) S exp(-iHt) = C0 + sum_j (C_j exp(-i w_j t) + h.c.)

The exact split is computed from the spectrum of H (global construction);
user-supplied splits (local constructions, e.g. per-site operators in weakly
coupled lattices) are validated and carried with ``provenance="approximate"``.
Thermal rates attach per mode via the detailed-balance assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _held
from .models import BathSpec, SystemModel
from .operators import as_operator, hermitian_eig, is_hermitian

# modes whose accumulated operator is numerically zero relative to ||S|| are dropped
_ZERO_MODE_RTOL = 1e-12


@dataclass(frozen=True)
class JumpMode:
    """One oscillating component: operator C_j at Bohr frequency w_j > 0."""

    operator: np.ndarray
    frequency: float
    gamma_down: float | None = None
    gamma_up: float | None = None

    def __post_init__(self):
        op = as_operator(self.operator, "jump-mode operator").copy()
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)
        if not (self.frequency > 0 and math.isfinite(self.frequency)):
            raise ValueError(f"mode frequency must be a positive finite number, got {self.frequency}")
        for label, g in (("gamma_down", self.gamma_down), ("gamma_up", self.gamma_up)):
            if g is not None and g < 0:
                raise ValueError(f"{label} must be >= 0, got {g}")


@dataclass(frozen=True)
class JumpDecomposition:
    """Static component c0 plus frequency-sorted modes, with optional rates."""

    c0: np.ndarray
    modes: tuple[JumpMode, ...]
    gamma0: float | None = None
    provenance: str = "exact"
    freq_tol: float = 1e-12

    def __post_init__(self):
        c0 = as_operator(self.c0, "c0").copy()
        if not is_hermitian(c0, 1e-10):
            raise ValueError("zero-frequency component c0 must be Hermitian within 1e-10")
        c0.setflags(write=False)
        object.__setattr__(self, "c0", c0)
        if self.provenance not in ("exact", "approximate"):
            raise ValueError(f"provenance must be 'exact' or 'approximate', got {self.provenance!r}")
        if not self.freq_tol > 0:
            raise ValueError(f"freq_tol must be > 0, got {self.freq_tol}")
        modes = tuple(sorted(self.modes, key=lambda m: m.frequency))
        for m in modes:
            if m.operator.shape != c0.shape:
                raise ValueError(
                    f"mode operator dimension {m.operator.shape[0]} "
                    f"does not match c0 dimension {c0.shape[0]}"
                )
        for a, b in zip(modes, modes[1:]):
            if abs(b.frequency - a.frequency) <= self.freq_tol:
                raise ValueError(
                    "mode frequencies must be pairwise distinct: "
                    f"{a.frequency:.12g} and {b.frequency:.12g} coincide within "
                    f"tolerance {self.freq_tol:.3g}"
                )
        object.__setattr__(self, "modes", modes)
        if self.gamma0 is not None and self.gamma0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")

    @property
    def dim(self) -> int:
        return self.c0.shape[0]

    def _nbytes(self) -> int:
        """Bytes held, for the held store: c0 and the mode operators."""
        return sum(op.nbytes for op in (self.c0, *(mode.operator for mode in self.modes)))

    @property
    def rates_assigned(self) -> bool:
        return self.gamma0 is not None and all(
            m.gamma_down is not None and m.gamma_up is not None for m in self.modes
        )


def default_freq_tol(eigenvalues: np.ndarray) -> float:
    """1e-9 of the spectral spread, floored away from zero for flat spectra."""
    spread = float(eigenvalues[-1] - eigenvalues[0])
    return max(1e-9 * spread, 1e-14)


def exact_bohr_decomposition(hamiltonian, coupling_op, freq_tol: float | None = None) -> JumpDecomposition:
    """Split a Hermitian coupling operator by the Bohr frequencies of `hamiltonian`.

    Every ordered eigenvalue pair with gap w = E_b - E_a > freq_tol contributes
    its spectral block P_a S P_b to the mode at frequency w; gaps are merged
    into one mode while they stay within freq_tol of the mode's running mean
    frequency.  Pairs with |gap| <= freq_tol accumulate into c0.  Modes whose
    accumulated operator is numerically zero carry no physics and are omitted.
    Rates are left unassigned.
    """
    h = as_operator(hamiltonian, "hamiltonian")
    s = as_operator(coupling_op, "coupling operator")
    if h.shape != s.shape:
        raise ValueError(f"dimension mismatch: hamiltonian {h.shape[0]} vs coupling {s.shape[0]}")
    if not is_hermitian(s, 1e-10):
        raise ValueError("coupling operator must be Hermitian within 1e-10")
    return _bohr_split(*_spectrum(h, freq_tol), s)


def _spectrum(h: np.ndarray, freq_tol: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues and eigenvectors of `h`, and `freq_tol`, defaulted and checked."""
    energies, u = hermitian_eig(h)
    if freq_tol is None:
        freq_tol = default_freq_tol(energies)
    if not freq_tol > 0:
        raise ValueError(f"freq_tol must be > 0, got {freq_tol}")
    return energies, u, freq_tol


def _bohr_split(energies: np.ndarray, u: np.ndarray, freq_tol: float, s: np.ndarray) -> JumpDecomposition:
    """The exact decomposition of `s` (:func:`exact_bohr_decomposition`) on the spectrum
    (`energies`, `u`) of H."""
    s_eig = u.conj().T @ s @ u
    d = len(energies)
    gaps = energies[None, :] - energies[:, None]  # gaps[a, b] = E_b - E_a

    c0_mask = np.abs(gaps) <= freq_tol
    c0 = u @ np.where(c0_mask, s_eig, 0.0) @ u.conj().T
    c0 = 0.5 * (c0 + c0.conj().T)  # exact-Hermitian reassembly of a Hermitian block sum

    # positive gaps, ascending, clustered by running-mean frequency
    pairs = sorted(
        (float(gaps[a, b]), a, b) for a in range(d) for b in range(d) if gaps[a, b] > freq_tol
    )
    clusters: list[tuple[float, list[tuple[int, int]]]] = []
    for gap, a, b in pairs:
        if clusters and abs(gap - clusters[-1][0]) <= freq_tol:
            mean, members = clusters[-1]
            members.append((a, b))
            clusters[-1] = (mean + (gap - mean) / len(members), members)
        else:
            clusters.append((gap, [(a, b)]))

    s_norm = float(np.linalg.norm(s))
    modes = []
    for mean, members in clusters:
        mask = np.zeros((d, d), dtype=bool)
        for a, b in members:
            mask[a, b] = True
        op = u @ np.where(mask, s_eig, 0.0) @ u.conj().T
        if np.linalg.norm(op) > _ZERO_MODE_RTOL * max(s_norm, 1e-300):
            modes.append(JumpMode(op, mean))
    return JumpDecomposition(c0=c0, modes=tuple(modes), provenance="exact", freq_tol=freq_tol)


def local_decomposition(c0, modes, freq_tol: float | None = None) -> JumpDecomposition:
    """Wrap a user-supplied split; validates structure, not completeness.

    `modes` is an iterable of (operator, frequency) pairs or JumpMode
    instances.  The frequencies must be positive and pairwise distinct within
    `freq_tol`.
    """
    mode_objs = tuple(
        m if isinstance(m, JumpMode) else JumpMode(m[0], float(m[1])) for m in modes
    )
    if freq_tol is None:
        wmax = max((m.frequency for m in mode_objs), default=1.0)
        freq_tol = max(1e-9 * wmax, 1e-14)
    return JumpDecomposition(
        c0=as_operator(c0, "c0"),
        modes=mode_objs,
        provenance="approximate",
        freq_tol=freq_tol,
    )


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean thermal occupation at frequency omega; 0 at zero temperature."""
    if omega <= 0:
        raise ValueError(f"occupation needs omega > 0, got {omega}")
    if temperature == 0:
        return 0.0
    try:
        return 1.0 / math.expm1(omega / temperature)
    except OverflowError:  # omega / temperature > ~709.8: the occupation is below 1e-308
        return 0.0


def assign_rates(decomp: JumpDecomposition, bath: BathSpec) -> JumpDecomposition:
    """Attach detailed-balance rates: down = g(w)(n+1), up = g(w) n, plus gamma0."""
    new_modes = []
    for m in decomp.modes:
        g = bath.rate_at(m.frequency, decomp.freq_tol)
        n = bose_occupation(m.frequency, bath.temperature)
        new_modes.append(replace(m, gamma_down=g * (n + 1.0), gamma_up=g * n))
    return replace(decomp, modes=tuple(new_modes), gamma0=float(bath.gamma0))


def decompose_model(model: SystemModel, freq_tol: float | None = None) -> tuple[JumpDecomposition, ...]:
    """Exact decomposition of every coupling of `model`, rates assigned.

    H is diagonalised once for all couplings.  The result depends only on the
    model's content and `freq_tol`, so it is an entry of the held store
    (``lindcorr._held``), owned by a digest of H, each coupling operator and
    bath, and keyed by `freq_tol`: an equal model, also one built from fresh
    arrays, finds it again without diagonalising H.  Every other held
    decomposition is then idle, and dropped over the store's cap.
    """
    def build():
        spectrum = _spectrum(model.hamiltonian, freq_tol)
        return tuple(assign_rates(_bohr_split(*spectrum, c.operator), c.bath)
                     for c in model.couplings)

    return _held.find(_model_digest(model), "decomposition", repr(freq_tol), build, kind_idle=True)


def _model_digest(model: SystemModel) -> bytes:
    """Digest of what a decomposition reads: H, and every coupling operator and bath."""
    return _held.digest(model.hamiltonian.shape, model.hamiltonian,
                        *(part for c in model.couplings for part in (c.operator, c.bath)))
