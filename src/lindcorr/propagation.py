"""Time evolution and correlator drivers.

The evaluation pattern shared by every driver: evolve a slot tensor with the
appropriate generator, then contract it against the fixed insertion matrices
and the state.  The contraction is carried by a dual vector `w` built once per
(insertions, state) pair, so a tau sweep costs one propagator application and
one dot product per point.  For general time patterns `w` also carries the
earlier insertions: it is pulled back through them once per sweep.

Two engines step a slot tensor of n slots, picked by its length d**(2n).  Up
to ``generators.DEFAULT_SLOT_BUDGET`` coordinates, the measured crossover, the
dense generator's propagator exp(step G) is computed once per distinct grid
step (steps that differ only by rounding are one step) and applied by
matrix-vector products.  Above it the generator is a CSR matrix and
``integrate_ode`` computes the action exp(tau G) v with ``expm_multiply``,
without forming a propagator; a pull-back uses the transposed matrix.  A CSR
generator whose byte bound exceeds the cap is refused with SlotBudgetError
before it is assembled.

The n-slot generators and their propagators depend only on the model (H and
the dissipation channels), not on the operators or the state, so the drivers
share them across calls: the engine of the model last evaluated is held
between calls and reused by every later call on an equal model, recognised by
content rather than identity.  A call on another model releases it first.
After each call the held engine keeps only the generators and propagators
that call used, so the memory held between calls is at most the last call's
own working set.
"""

from __future__ import annotations

import hashlib
import string
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from . import generators
from .decomposition import decompose_model
from .errors import DegenerateSteadyStateError, NumericsError
from .generators import (
    SuperOperator,
    _as_decomps,
    check_csr_bytes,
    dissipation_channels,
    elementary_tensor,
    forward_lindbladian,
    multi_slot_action,
    multi_slot_generator,
)
from .models import SystemModel
from .operators import as_operator, dagger, expm, identity, is_hermitian, unvec, vec

_DENSITY_ATOL = 1e-10


def _check_density(rho, name: str = "state") -> np.ndarray:
    rho = as_operator(rho, name)
    if not is_hermitian(rho, _DENSITY_ATOL):
        raise ValueError(f"{name} must be Hermitian within {_DENSITY_ATOL:.0e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _DENSITY_ATOL:
        raise ValueError(f"{name} must have unit trace, got {tr:.12g}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -_DENSITY_ATOL:
        raise ValueError(f"{name} must be positive semidefinite, min eigenvalue {lo:.3e}")
    return rho


def _check_taus(taus) -> np.ndarray:
    arr = np.asarray(taus, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tau grid has non-finite entries")
    if len(arr) > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("tau grid must be strictly ascending")
    if arr[0] < 0:
        raise ValueError(f"tau grid must be nonnegative, starts at {arr[0]}")
    return arr


@dataclass(frozen=True)
class CorrelatorSpec:
    """Operator insertions at arbitrary times, left-to-right as written.

    ``insertions`` is a sequence of (operator, time) pairs giving the operator
    string of the correlator in positional order; ``initial_state`` is the
    density matrix at time zero.
    """

    insertions: tuple[tuple[np.ndarray, float], ...]
    initial_state: np.ndarray

    def __post_init__(self):
        rho = _check_density(self.initial_state, "initial_state").copy()
        rho.setflags(write=False)
        object.__setattr__(self, "initial_state", rho)
        items = []
        for k, (op, t) in enumerate(self.insertions):
            op = as_operator(op, f"insertion {k}").copy()
            if op.shape != rho.shape:
                raise ValueError(
                    f"insertion {k} has dimension {op.shape[0]}, state has {rho.shape[0]}"
                )
            t = float(t)
            if not (t >= 0 and np.isfinite(t)):
                raise ValueError(f"insertion {k} time must be finite and >= 0, got {t}")
            op.setflags(write=False)
            items.append((op, t))
        if not items:
            raise ValueError("a correlator needs at least one insertion")
        object.__setattr__(self, "insertions", tuple(items))

    @property
    def dim(self) -> int:
        return self.initial_state.shape[0]


@dataclass(frozen=True)
class CorrelatorTrace:
    """Sampled correlator: strictly ascending offsets and one complex value each."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        taus = _check_taus(self.taus).copy()
        values = np.asarray(self.values, dtype=complex).copy()
        if values.shape != taus.shape:
            raise ValueError(f"values shape {values.shape} does not match taus shape {taus.shape}")
        taus.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.taus)


def contraction_functional(a_ops: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Dual vector w with w @ elementary(X1..Xn) = trace(A1 X1 A2 X2 ... An Xn A_{n+1} rho).

    `a_ops` holds the n+1 fixed insertion matrices surrounding n slots.  The
    trace closes through K = A_{n+1} rho A_1, leaving one factor per slot.
    """
    n = len(a_ops) - 1
    if n < 1:
        raise ValueError("contraction needs at least two insertion matrices (one slot)")
    rho = as_operator(rho, "state")
    ops = [as_operator(a, f"insertion matrix {k}") for k, a in enumerate(a_ops)]
    d = rho.shape[0]
    for k, a in enumerate(ops):
        if a.shape != (d, d):
            raise ValueError(f"insertion matrix {k} has dimension {a.shape[0]}, state has {d}")
    letters = string.ascii_lowercase + string.ascii_uppercase
    if 2 * n > len(letters):
        raise ValueError(f"contraction supports at most {len(letters) // 2} slots, got {n}")
    lab = letters[: 2 * n]  # slot m owns (column, row) labels lab[2m-2], lab[2m-1]
    subs, factors = [], []
    for m in range(1, n):
        subs.append(lab[2 * m - 2] + lab[2 * m + 1])  # A_{m+1}[c_m, r_{m+1}]
        factors.append(ops[m])
    subs.append(lab[2 * n - 2] + lab[1])              # K[c_n, r_1]
    factors.append(ops[n] @ rho @ ops[0])
    w = np.einsum(",".join(subs) + "->" + lab, *factors)
    return w.reshape(-1)


def _grid_steps(taus: np.ndarray, origin: float = 0.0) -> np.ndarray:
    """Steps of `taus` from `origin`, each within rounding of the step before set to it.

    A step that differs from the one before it by at most a few ulps of the
    grid's largest tau takes that step's value, so an evenly spaced grid has
    one step value, and every value is one of the grid's actual steps.
    """
    steps = np.diff(taus - origin, prepend=0.0)
    tol = 4 * np.spacing(taus[-1])
    for i in range(1, len(steps)):
        if abs(steps[i] - steps[i - 1]) <= tol:
            steps[i] = steps[i - 1]
    return steps


@contextmanager
def _seeded_global_rng() -> Iterator[None]:
    """Seed NumPy's global stream for the block and restore the caller's state after.

    scipy's 1-norm estimator draws from the global stream; seeding it makes
    the result independent of the caller's state and leaves that state alone.
    """
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


def integrate_ode(generator, v0, tau_grid) -> list[np.ndarray]:
    """Solution exp((tau - tau_grid[0]) G) v0 of dv/dtau = G v, sampled on `tau_grid`.

    `generator` is a dense or scipy.sparse matrix or a SuperOperator.  The
    action of the exponential is computed by scipy's ``expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), one call per run of
    equal steps, which it evaluates at the run's evenly spaced points.
    """
    # imported here: only the sparse engine steps this way, and the import is heavy
    from scipy.sparse.linalg import expm_multiply

    grid = _check_taus(tau_grid)
    mat = getattr(generator, "matrix", generator)
    states = [np.asarray(v0, dtype=complex)]
    with _seeded_global_rng():
        for step, run in groupby(_grid_steps(grid, grid[0])[1:]):
            count = len(list(run))
            out = expm_multiply(mat, states[-1], start=0.0, stop=count * step,
                                num=count + 1, endpoint=True)
            states.extend(out[1:])
    if not all(np.all(np.isfinite(v)) for v in states):
        raise NumericsError("expm_multiply produced non-finite values")
    return states


class _SlotEvolver:
    """Generator and propagator caches of one (hamiltonian, decomps) model.

    A level of n slots is dense (cached propagators) when its tensor has at
    most ``generators.DEFAULT_SLOT_BUDGET`` coordinates and sparse (a CSR
    generator stepped by ``integrate_ode``) above.  Cache keys carry the
    engine choice, so a changed slot budget is never served an engine built
    under another.  `_used` collects the keys touched since the last
    :meth:`keep_used`.
    """

    def __init__(self, hamiltonian, decomps):
        self.h = as_operator(hamiltonian, "hamiltonian").copy()
        self.h.setflags(write=False)
        self.decomps = _as_decomps(decomps)
        if self.decomps[0].dim != self.h.shape[0]:
            raise ValueError(
                f"decomposition dimension {self.decomps[0].dim} does not match "
                f"hamiltonian dimension {self.h.shape[0]}"
            )
        self.dim = self.h.shape[0]
        self._generators: dict[tuple[int, bool], object] = {}
        self._propagators: dict[tuple[int, bool, float], np.ndarray] = {}
        self._used: set[tuple] = set()

    def dense(self, n_slots: int) -> bool:
        return self.dim ** (2 * n_slots) <= generators.DEFAULT_SLOT_BUDGET

    def generator(self, n_slots: int):
        """Dense SuperOperator or CSR matrix; the CSR bytes are checked before assembly."""
        key = (n_slots, self.dense(n_slots))
        self._used.add(key)
        gen = self._generators.get(key)
        if gen is None:
            if key[1]:
                gen = multi_slot_generator(self.h, self.decomps, n_slots)
            else:
                action = multi_slot_action(self.h, self.decomps, n_slots)
                check_csr_bytes(action)
                gen = action.to_csr()
            self._generators[key] = gen
        return gen

    def _propagator(self, n_slots: int, gap: float) -> np.ndarray:
        key = (n_slots, self.dense(n_slots), gap)
        self._used.add(key)
        prop = self._propagators.get(key)
        if prop is None:
            prop = expm(self.generator(n_slots).matrix, gap)
            self._propagators[key] = prop
        return prop

    def keep_used(self) -> None:
        """Drop every generator and propagator not used since the last call of this."""
        for cache in (self._generators, self._propagators):
            for key in cache.keys() - self._used:
                cache.pop(key, None)  # a concurrent call on the model may have dropped it
        self._used.clear()

    def pull_back(self, w: np.ndarray, n_slots: int, gap: float) -> np.ndarray:
        """Dual vector w @ exp(gap G_n): a contraction moved `gap` earlier in time."""
        if gap == 0.0:
            return w
        gen = self.generator(n_slots)
        if isinstance(gen, SuperOperator):
            return w @ self._propagator(n_slots, gap)
        return integrate_ode(gen.T, w, [0.0, gap])[-1]

    def sweep(self, tensor: np.ndarray, n_slots: int, taus: np.ndarray,
              w: np.ndarray, origin: float = 0.0) -> np.ndarray:
        """Values w @ T(tau) along an ascending grid; `tensor` is T at `origin`.

        Steps that differ only by rounding share one dense propagator, or one
        ``expm_multiply`` call on the sparse engine.
        """
        gen = self.generator(n_slots)
        if isinstance(gen, SuperOperator):
            values = np.empty(len(taus), dtype=complex)
            v = tensor
            for i, step in enumerate(_grid_steps(taus, origin)):
                if step != 0.0:
                    v = self._propagator(n_slots, float(step)) @ v
                values[i] = w @ v
            return values
        grid = taus if taus[0] == origin else np.concatenate(([origin], taus))
        states = integrate_ode(gen, tensor, grid)
        return np.array([w @ v for v in states[len(grid) - len(taus):]])


def _model_key(h: np.ndarray, decomps) -> bytes:
    """Digest of what the generators read: H and every (rate, C) channel."""
    digest = hashlib.sha256(repr(h.shape).encode())
    digest.update(h.tobytes())
    for rate, c in dissipation_channels(decomps):
        digest.update(repr((float(rate), c.shape)).encode())
        digest.update(c.tobytes())
    return digest.digest()


# (model key, evolver) of the model last evaluated by a driver, or None
_held: tuple[bytes, _SlotEvolver] | None = None


@contextmanager
def _model_evolver(hamiltonian, decomp) -> Iterator[_SlotEvolver]:
    """The held evolver when the model's content matches it, else a fresh one.

    On exit the evolver keeps only the generators and propagators this call
    used.
    """
    global _held
    h = as_operator(hamiltonian, "hamiltonian")
    decomps = _as_decomps(decomp)
    key = _model_key(h, decomps)
    if _held is None or _held[0] != key:
        _held = None  # release the old model before building the new one
        _held = (key, _SlotEvolver(h, decomps))
    ev = _held[1]
    try:
        yield ev
    finally:
        ev.keep_used()


def evolve_density(hamiltonian, decomp, rho0, t: float) -> np.ndarray:
    """Forward evolution rho(t) of a density matrix under the dissipative generator."""
    if not (t >= 0 and np.isfinite(t)):
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    rho0 = _check_density(rho0, "rho0")
    f = forward_lindbladian(hamiltonian, decomp)
    if rho0.shape[0] != f.dim:
        raise ValueError(f"state dimension {rho0.shape[0]} does not match generator dimension {f.dim}")
    rho = unvec(expm(f.matrix, float(t)) @ vec(rho0))
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    drift = abs(tr - 1.0)
    if drift > 1e-8:
        raise NumericsError(f"trace drift {drift:.3e} after evolution exceeds 1e-8")
    if drift > 1e-12:
        rho = rho / tr
    return rho


def steady_state(model: SystemModel, decomp=None, null_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one stationary state of the forward generator.

    Raises DegenerateSteadyStateError when the null space is not
    one-dimensional (e.g. any rate-free model), reporting the multiplicity.
    """
    decomps = decompose_model(model) if decomp is None else _as_decomps(decomp)
    f = forward_lindbladian(model.hamiltonian, decomps)
    _u, s, vh = np.linalg.svd(f.matrix)
    if s[0] == 0.0:
        raise DegenerateSteadyStateError(multiplicity=len(s))
    nullity = int(np.sum(s <= null_tol * s[0]))
    if nullity != 1:
        raise DegenerateSteadyStateError(multiplicity=nullity)
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-10 * np.linalg.norm(rho):
        raise NumericsError("steady-state candidate is traceless; cannot normalize")
    return rho / tr


def qrt_correlator(hamiltonian, decomp, a1, b, a2, rho_t, taus) -> CorrelatorTrace:
    """Regression-theorem correlator trace(A1 B(t+tau) A2 rho(t)).

    The one-slot case of :func:`equal_time_group_correlator`: the running-time
    operator B evolves under the adjoint generator while A1, A2 and the state
    rho_t (the density matrix at the anchor time t) stay fixed;
    value(0) = trace(B A2 rho_t A1).
    """
    return equal_time_group_correlator(hamiltonian, decomp, [a1, a2], [b], rho_t, taus)


def equal_time_group_correlator(hamiltonian, decomp, a_ops, b_ops, rho_t,
                                taus) -> CorrelatorTrace:
    """Correlator with n operators sharing one running time:
    trace(A1 B1(t+tau) A2 B2(t+tau) ... An Bn(t+tau) A_{n+1} rho(t)).

    The B string evolves as one n-slot tensor under the full generator
    (single-slot terms plus cross dissipators); the A matrices and the state
    enter only through the contraction.
    """
    b_ops = [as_operator(b, f"slot operator {k+1}") for k, b in enumerate(b_ops)]
    a_ops = [as_operator(a, f"insertion matrix {k+1}") for k, a in enumerate(a_ops)]
    n = len(b_ops)
    if n < 1:
        raise ValueError("need at least one running-time operator")
    if len(a_ops) != n + 1:
        raise ValueError(f"expected {n + 1} insertion matrices for {n} slots, got {len(a_ops)}")
    taus = _check_taus(taus)
    rho_t = _check_density(rho_t, "rho_t")
    with _model_evolver(hamiltonian, decomp) as ev:
        for op in (*b_ops, *a_ops, rho_t):
            if op.shape[0] != ev.dim:
                raise ValueError(f"operator dimension {op.shape[0]} does not match generator dimension {ev.dim}")
        w = contraction_functional(a_ops, rho_t)
        values = ev.sweep(elementary_tensor(b_ops), n, taus, w)
    return CorrelatorTrace(taus, values)


def otoc(hamiltonian, decomp, w_op, v_op, rho, taus) -> CorrelatorTrace:
    """Out-of-time-order correlator trace(W^dag(tau) V^dag W(tau) V rho)."""
    w_op = as_operator(w_op, "W")
    v_op = as_operator(v_op, "V")
    eye = identity(w_op.shape[0])
    return equal_time_group_correlator(
        hamiltonian, decomp,
        a_ops=[eye, dagger(v_op), v_op],
        b_ops=[dagger(w_op), w_op],
        rho_t=rho,
        taus=taus,
    )


def _pulled_back_functional(ev: _SlotEvolver, spec: CorrelatorSpec,
                            fixed: list[float]) -> np.ndarray:
    """Dual vector on the latest-time slots, at the latest fixed time fixed[-1].

    Starts as the contraction against the state at the earliest time, where
    the insertions held at that time are fixed matrices between the slots of
    the others, and walks the later fixed insertion times upward: it is pulled
    back across each gap, and at each time the insertions held there are
    contracted out of their slots, which is the transpose of splicing them in.
    """
    times = [t for _op, t in spec.insertions]
    d2 = ev.dim ** 2
    slots = [i for i, t in enumerate(times) if t != fixed[0]]
    a_ops = [identity(ev.dim) for _ in range(len(slots) + 1)]
    before = 0  # slots left of the insertion
    for op, t in spec.insertions:
        if t == fixed[0]:
            a_ops[before] = a_ops[before] @ op
        else:
            before += 1
    rho = evolve_density(ev.h, ev.decomps, spec.initial_state, fixed[0])
    w = contraction_functional(a_ops, rho)
    for prev, t in zip(fixed, fixed[1:]):
        w = ev.pull_back(w, len(slots), t - prev)
        for i in [i for i in slots if times[i] == t]:
            pos = slots.index(i)
            w = np.tensordot(w.reshape((d2,) * len(slots)), vec(spec.insertions[i][0]),
                             axes=(pos, 0)).reshape(-1)
            slots.remove(i)
    return w


def general_correlator(hamiltonian, decomp, spec: CorrelatorSpec, taus=None):
    """Correlator with arbitrary per-insertion times, by an adjoint sweep.

    The value is linear in the tensor of the insertions holding the latest
    time, so everything earlier enters through one dual vector.  That vector
    starts as the contraction against the forward-evolved state at the
    earliest insertion time and is pulled back once up the fixed insertion
    times: across each gap through the transposed n-slot propagator, and at
    each time by contracting the insertions held there out of their slots.
    The latest-time group then evolves as one equal-time sweep against it, as
    in :func:`equal_time_group_correlator`.  When every insertion shares one
    time, the string acts as the single operator B1...Bn on one slot.

    With `taus` given, the insertions holding the latest time are swept: their
    time is replaced by each tau (every tau must be >= all other insertion
    times), and a CorrelatorTrace is returned.  Without it the single value is
    returned, computed as the one-point sweep at the latest time.
    """
    with _model_evolver(hamiltonian, decomp) as ev:
        if spec.dim != ev.dim:
            raise ValueError(f"spec dimension {spec.dim} does not match generator dimension {ev.dim}")
        times = [t for _op, t in spec.insertions]
        t_max = max(times)
        grid = _check_taus([t_max] if taus is None else taus)
        fixed = sorted({t for t in times if t != t_max})
        floor = fixed[-1] if fixed else 0.0
        if grid[0] < floor:
            raise ValueError(
                f"sweep times must not precede the fixed insertion times: "
                f"tau={grid[0]} < {floor}"
            )
        # fail fast: the level evolved first has the most slots, and its
        # generator's size is checked before anything is assembled or evolved
        ev.generator(len(times) - times.count(fixed[0]) if fixed else 1)
        if fixed:
            swept = [op for op, t in spec.insertions if t == t_max]
            w = _pulled_back_functional(ev, spec, fixed)
            values = ev.sweep(elementary_tensor(swept), len(swept), grid, w, origin=floor)
        else:
            product = reduce(np.matmul, [op for op, _t in spec.insertions])
            eye = identity(ev.dim)
            w = contraction_functional([eye, eye], spec.initial_state)
            values = ev.sweep(vec(product), 1, grid, w)
    if taus is None:
        return complex(values[0])
    return CorrelatorTrace(grid, values)
