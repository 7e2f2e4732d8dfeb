"""Physical system definitions: Hamiltonian, couplings, bath parameters.

A :class:`SystemModel` is the Hamiltonian (divided by hbar) plus one
``(coupling operator, bath)`` pair per independent reservoir.  The interaction
strength is not a separate number: it is folded into the bath's rate profile,
since only the golden-rule products are observable in the Markovian regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    annihilation,
    as_operator,
    dagger,
    identity,
    is_hermitian,
    kron,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
)

HERMITIAN_MODEL_ATOL = 1e-10


@dataclass(frozen=True)
class BathSpec:
    """Thermal reservoir parameters attached to one coupling operator.

    temperature : kT/hbar in rad/s (0 allowed).
    rate_profile : base rate gamma(omega) in 1/s — either a single flat value
        or a tuple of (frequency, rate) table rows looked up by exact
        frequency match (within the decomposition's frequency tolerance).
    gamma0 : rate of the zero-frequency channel in 1/s.
    """

    temperature: float
    rate_profile: float | tuple[tuple[float, float], ...]
    gamma0: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"bath temperature must be >= 0, got {self.temperature}")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be >= 0, got {self.gamma0}")
        if isinstance(self.rate_profile, (int, float, np.integer, np.floating)):
            if self.rate_profile < 0:
                raise ValueError(f"flat rate must be >= 0, got {self.rate_profile}")
            object.__setattr__(self, "rate_profile", float(self.rate_profile))
        else:
            rows = tuple(sorted((float(w), float(g)) for w, g in self.rate_profile))
            for w, g in rows:
                if g < 0:
                    raise ValueError(f"tabulated rate at frequency {w} must be >= 0, got {g}")
            object.__setattr__(self, "rate_profile", rows)

    def rate_at(self, omega: float, tol: float) -> float:
        """gamma(omega); tabulated profiles need a row within ``tol`` of omega."""
        if isinstance(self.rate_profile, float):
            return self.rate_profile
        best = None
        for w, g in self.rate_profile:
            dist = abs(w - omega)
            if dist <= tol and (best is None or dist < best[0]):
                best = (dist, g)
        if best is None:
            raise ValueError(
                f"rate_profile has no entry at frequency {omega:.12g} "
                f"(within tolerance {tol:.3g})"
            )
        return best[1]


@dataclass(frozen=True)
class Coupling:
    """One Hermitian system operator coupled to its own reservoir."""

    operator: np.ndarray
    bath: BathSpec

    def __post_init__(self):
        op = as_operator(self.operator, "coupling operator").copy()
        if not is_hermitian(op, HERMITIAN_MODEL_ATOL):
            raise ValueError("coupling operator must be Hermitian within 1e-10")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class SystemModel:
    hamiltonian: np.ndarray
    couplings: tuple[Coupling, ...] = field(default_factory=tuple)

    def __post_init__(self):
        h = as_operator(self.hamiltonian, "hamiltonian").copy()
        if not is_hermitian(h, HERMITIAN_MODEL_ATOL):
            raise ValueError("hamiltonian must be Hermitian within 1e-10")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        couplings = tuple(self.couplings)
        if not couplings:
            raise ValueError("a SystemModel needs at least one coupling")
        for c in couplings:
            if c.operator.shape != h.shape:
                raise ValueError(
                    f"coupling operator dimension {c.operator.shape[0]} "
                    f"does not match hamiltonian dimension {h.shape[0]}"
                )
        object.__setattr__(self, "couplings", couplings)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def two_level_atom(omega0: float, gamma: float, temperature: float) -> SystemModel:
    """Qubit H = (omega0/2) sigma_z coupled through sigma_x to a flat-rate bath."""
    if omega0 <= 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    h = 0.5 * omega0 * sigma_z
    bath = BathSpec(temperature=temperature, rate_profile=gamma, gamma0=0.0)
    return SystemModel(h, (Coupling(sigma_x, bath),))


def truncated_oscillator(omega0: float, dim: int, gamma: float, temperature: float) -> SystemModel:
    """Harmonic ladder truncated to `dim` levels, coupled through a + a^dag."""
    if dim < 2:
        raise ValueError(f"truncated oscillator needs dim >= 2, got {dim}")
    if omega0 <= 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    h = omega0 * np.diag(np.arange(dim, dtype=float)).astype(complex)
    a = annihilation(dim)
    bath = BathSpec(temperature=temperature, rate_profile=gamma, gamma0=0.0)
    return SystemModel(h, (Coupling(a + dagger(a), bath),))


# the dimer's two-qubit operators, built once
_ZI = kron(sigma_z, identity(2))
_IZ = kron(identity(2), sigma_z)
_XI = kron(sigma_x, identity(2))
_IX = kron(identity(2), sigma_x)
_EXCHANGE = kron(sigma_plus, sigma_minus) + kron(sigma_minus, sigma_plus)
for _op in (_ZI, _IZ, _XI, _IX, _EXCHANGE):
    _op.setflags(write=False)
del _op


def coupled_dimer(
    omega1: float,
    omega2: float,
    g: float,
    gamma1: float,
    gamma2: float,
    temperature: float,
) -> SystemModel:
    """Two exchange-coupled qubits, each with an independent transverse bath."""
    if omega1 <= 0 or omega2 <= 0:
        raise ValueError(f"qubit frequencies must be > 0, got {omega1}, {omega2}")
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError(f"rates must be >= 0, got {gamma1}, {gamma2}")
    h = 0.5 * omega1 * _ZI + 0.5 * omega2 * _IZ + g * _EXCHANGE
    couplings = (
        Coupling(_XI, BathSpec(temperature, gamma1)),
        Coupling(_IX, BathSpec(temperature, gamma2)),
    )
    return SystemModel(h, couplings)


_QUBIT_OPERATORS = {
    "sx": sigma_x, "sigma_x": sigma_x, "σx": sigma_x,
    "sy": sigma_y, "sigma_y": sigma_y, "σy": sigma_y,
    "sz": sigma_z, "sigma_z": sigma_z, "σz": sigma_z,
    "s+": sigma_plus, "sigma_plus": sigma_plus, "σ+": sigma_plus,
    "s-": sigma_minus, "sigma_minus": sigma_minus, "σ-": sigma_minus,
}


def named_operator(name: str, dim: int) -> np.ndarray:
    """Resolve an operator name ("sx", "a", "adag", "I", ...) for dimension `dim`."""
    key = name.strip().lower()
    if key in ("i", "id", "identity", "1"):
        return identity(dim)
    if key in _QUBIT_OPERATORS:
        if dim != 2:
            raise ValueError(f"operator {name!r} requires dimension 2, model has dimension {dim}")
        return _QUBIT_OPERATORS[key].copy()
    if key == "a":
        return annihilation(dim)
    if key in ("adag", "a+", "a†", "adagger"):
        return dagger(annihilation(dim))
    if key in ("n", "number"):
        a = annihilation(dim)
        return dagger(a) @ a
    raise ValueError(f"unknown operator name {name!r}")
