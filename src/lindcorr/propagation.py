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

A sparse level is also split into blocks that its generator never couples
(under the exact decomposition G_n conserves the total Bohr frequency over
all slots; Davies, Commun. Math. Phys. 39, 91, 1974).  They are found once
per level, as the connected components of the CSR generator's sparsity
pattern, and a value sum_b w_b . exp(tau G_b) T_b needs only the blocks where
both T and w are nonzero.  So a sweep steps only those blocks, and a pull-back
or a density evolution only the blocks where its vector is nonzero, under the
restricted generator G[S, S], which takes the dense or the CSR engine by its
own order against the same budget.  The steady state is never restricted:
its null-space count must see every block.

The forward dynamics has no engine of its own.  Under the trace pairing
trace(B rho) = vec(rho^T) . vec(B) a density matrix is a dual vector of the
one-slot level G_1: rho(t) is vec(rho0^T) pulled back through exp(t G_1), and
the stationary state is the left null vector of G_1, found by SVD on a dense
level and by a sparse LU of G_1^T bordered with the trace functional on a
sparse one.

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
import math
import string
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .decomposition import decompose_model
from .errors import DegenerateSteadyStateError, NumericsError
from .generators import (
    _as_decomps,
    _dense_fits,
    _dense_order,
    dissipation_channels,
    elementary_tensor,
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

    `generator` is a dense or scipy.sparse matrix.  The action of the
    exponential is computed by scipy's ``expm_multiply`` (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 2011), one call per run of equal steps, which it
    evaluates at the run's evenly spaced points.
    """
    # imported here: only the sparse engine steps this way, and the import is heavy
    from scipy.sparse.linalg import expm_multiply

    grid = _check_taus(tau_grid)
    states = [np.asarray(v0, dtype=complex)]
    with _seeded_global_rng():
        for step, run in groupby(_grid_steps(grid, grid[0])[1:]):
            count = len(list(run))
            out = expm_multiply(generator, states[-1], start=0.0, stop=count * step,
                                num=count + 1, endpoint=True)
            states.extend(out[1:])
    if not all(np.all(np.isfinite(v)) for v in states):
        raise NumericsError("expm_multiply produced non-finite values")
    return states


def _block_labels(gen) -> np.ndarray:
    """Block of each coordinate of the CSR generator `gen`: the connected components
    of its sparsity pattern.  They are read from the stored positions, never from
    the values, so every stored entry links its row and column whatever its phase."""
    import scipy.sparse as sp  # imported here: only sparse levels have blocks
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_array((np.ones(gen.nnz), gen.indices, gen.indptr), shape=gen.shape)
    return connected_components(pattern, directed=False)[1]


class _SlotEvolver:
    """Generator and propagator caches of one (hamiltonian, decomps) model.

    A level of n slots is dense (cached propagators) when its tensor has at
    most ``generators.DEFAULT_SLOT_BUDGET`` coordinates and sparse (a CSR
    generator stepped by ``integrate_ode``) above.  A sparse level also holds
    its blocks, the connected components of its generator's sparsity pattern,
    found once per level.  The generator never couples two blocks, so a vector
    stays zero on the blocks where it is zero, and only the coordinates S of
    the touched blocks are stepped, under G[S, S]; that restricted generator
    is in turn dense (cached propagators) or CSR by its own order against the
    same budget.  When S is every coordinate the level's generator itself is
    stepped.  Cache keys end with the engine choice, so a changed slot budget
    is never served an engine built under another.  `_used` collects the keys
    touched since the last :meth:`keep_used`.
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
        self._generators: dict[tuple, object] = {}
        self._propagators: dict[tuple, np.ndarray] = {}
        self._labels: dict[tuple[int, bool], np.ndarray] = {}
        self._used: set[tuple] = set()

    def dense(self, n_slots: int) -> bool:
        return _dense_fits(self.dim, n_slots)

    def generator(self, n_slots: int):
        """G_n as a dense ndarray on a dense level, else as a CSR matrix whose
        bytes are checked before assembly."""
        key = (n_slots, self.dense(n_slots))
        self._used.add(key)
        gen = self._generators.get(key)
        if gen is None:
            if key[1]:
                gen = multi_slot_generator(self.h, self.decomps, n_slots).matrix
            else:
                gen = multi_slot_action(self.h, self.decomps, n_slots).to_csr()
            self._generators[key] = gen
        return gen

    def _level(self, n_slots: int, *vectors: np.ndarray):
        """(generator, key, coordinates) that `vectors` are stepped on.

        The whole n-slot level, with coordinates None, unless the level is
        sparse and some of its blocks are zero in one of `vectors`: then the
        coordinates of the blocks where every one is nonzero (possibly none)
        and their generator G[S, S], keyed by the level, those blocks and its
        engine choice.
        """
        gen = self.generator(n_slots)
        key = (n_slots, self.dense(n_slots))
        if key[1]:
            return gen, key, None
        labels = self._labels.get(key)
        if labels is None:
            labels = self._labels[key] = _block_labels(gen)
        touched = np.ones(int(labels.max()) + 1, dtype=bool)
        for v in vectors:
            hit = np.zeros_like(touched)
            hit[labels[v != 0]] = True
            touched &= hit
        if touched.all():
            return gen, key, None
        coords = np.flatnonzero(touched[labels])
        if not len(coords):
            return None, None, coords
        key = (*key, np.flatnonzero(touched).tobytes(), _dense_order(len(coords)))
        self._used.add(key)
        part = self._generators.get(key)
        if part is None:
            part = gen[coords][:, coords]
            part = self._generators[key] = part.toarray() if key[-1] else part
        return part, key, coords

    def _propagator(self, gen: np.ndarray, key: tuple, gap: float) -> np.ndarray:
        key = (*key, gap)
        self._used.add(key)
        prop = self._propagators.get(key)
        if prop is None:
            prop = expm(gen, gap)
            self._propagators[key] = prop
        return prop

    def keep_used(self) -> None:
        """Drop every generator, propagator and block labelling not used since the
        last call of this."""
        for cache in (self._generators, self._propagators, self._labels):
            for key in cache.keys() - self._used:
                cache.pop(key, None)  # a concurrent call on the model may have dropped it
        self._used.clear()

    def _steps(self, gen, key: tuple, v: np.ndarray, taus: np.ndarray, origin: float,
               adjoint: bool) -> Iterator[np.ndarray]:
        """`v` carried along the grid under `gen`: by propagators cached under `key`
        when its engine choice (its last entry) is dense, else by ``integrate_ode``.

        Steps that differ only by rounding share one dense propagator, or one
        ``expm_multiply`` call on the sparse engine.
        """
        if key[-1]:
            for step in _grid_steps(taus, origin):
                if step != 0.0:
                    prop = self._propagator(gen, key, float(step))
                    v = v @ prop if adjoint else prop @ v
                yield v
            return
        grid = taus if taus[0] == origin else np.concatenate(([origin], taus))
        yield from integrate_ode(gen.T if adjoint else gen, v, grid)[len(grid) - len(taus):]

    def trajectory(self, v: np.ndarray, n_slots: int, taus: np.ndarray,
                   origin: float = 0.0, adjoint: bool = False) -> Iterator[np.ndarray]:
        """`v` carried along an ascending grid from `origin`: exp((tau - origin) G_n) v,
        or the dual vector v @ exp((tau - origin) G_n) when `adjoint`.

        On a sparse level only the blocks where `v` is nonzero are stepped.
        """
        gen, key, coords = self._level(n_slots, v)
        if coords is None:
            yield from self._steps(gen, key, v, taus, origin, adjoint)
            return
        part = v[coords]
        steps = self._steps(gen, key, part, taus, origin, adjoint) if len(coords) else (
            part for _tau in taus)
        for u in steps:
            out = np.zeros(len(v), dtype=complex)
            out[coords] = u
            yield out

    def pull_back(self, w: np.ndarray, n_slots: int, gap: float) -> np.ndarray:
        """Dual vector w @ exp(gap G_n): a contraction moved `gap` earlier in time."""
        (w,) = self.trajectory(w, n_slots, np.array([gap]), adjoint=True)
        return w

    def sweep(self, tensor: np.ndarray, n_slots: int, taus: np.ndarray,
              w: np.ndarray, origin: float = 0.0) -> np.ndarray:
        """Values w @ T(tau) along an ascending grid; `tensor` is T at `origin`.

        On a sparse level only the blocks where both T and w are nonzero are
        stepped; when they share none, the values are exact zeros.
        """
        gen, key, coords = self._level(n_slots, tensor, w)
        if coords is not None:
            if not len(coords):
                return np.zeros(len(taus), dtype=complex)
            tensor, w = tensor[coords], w[coords]
        return np.array([w @ v for v in self._steps(gen, key, tensor, taus, origin, False)])


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


def _densities(ev: _SlotEvolver, rho0: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """rho(t) along an ascending grid, one state stepped along it on `ev`'s 1-slot level.

    By the trace pairing trace(B rho) = vec(rho^T) . vec(B), vec(rho(t)^T) is
    the dual vector vec(rho0^T) pulled back through exp(t G_1).  Each state is
    made Hermitian; a trace drift over 1e-8 raises, one over 1e-12 is
    normalised away.
    """
    out = []
    for w in ev.trajectory(vec(rho0.T), 1, times, adjoint=True):
        rho = unvec(w).T
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        if drift > 1e-8:
            raise NumericsError(f"trace drift {drift:.3e} after evolution exceeds 1e-8")
        out.append(rho / tr if drift > 1e-12 else rho)
    return out


def _evolve_grid(hamiltonian, decomp, rho0, times) -> list[np.ndarray]:
    """:func:`evolve_density` at every time of `times`, in their order, from one
    state stepped once along the sorted distinct times."""
    times = np.asarray(times, dtype=float)
    for t in times:
        if not (t >= 0 and np.isfinite(t)):
            raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    rho0 = _check_density(rho0, "rho0")
    grid, where = np.unique(times, return_inverse=True)
    with _model_evolver(hamiltonian, decomp) as ev:
        if rho0.shape[0] != ev.dim:
            raise ValueError(f"state dimension {rho0.shape[0]} does not match generator dimension {ev.dim}")
        states = _densities(ev, rho0, grid)
    return [states[i] for i in where]


def evolve_density(hamiltonian, decomp, rho0, t: float) -> np.ndarray:
    """Forward evolution rho(t) of a density matrix under the dissipative generator.

    Runs on the held engine of the model: vec(rho(t)^T) is vec(rho0^T) pulled
    back through exp(t G_1), G_1 the one-slot adjoint generator, so the
    forward dynamics shares the correlators' generator and propagators.
    """
    (rho,) = _evolve_grid(hamiltonian, decomp, rho0, [t])
    return rho


# the bordered steady-state solve is kept while its 1-norm condition estimate
# kappa stays within _LU_MARGIN / null_tol; kappa * s[-2] / s[0] (s the
# singular values of G_1) measured 2.5-5.5 on near-degenerate families
# (bench/forward.py), so a kept solve has s[-2] > null_tol * s[0] and the SVD
# criterion would also find a one-dimensional null space
_LU_MARGIN = 0.1


def _svd_null_vector(g: np.ndarray, null_tol: float) -> np.ndarray:
    """Left null vector of the dense generator `g`, by SVD.

    Raises DegenerateSteadyStateError unless exactly one singular value is at
    most null_tol times the largest.  The nullity is decided from the singular
    values alone; the singular vectors are computed only when it is one.
    """
    s = np.linalg.svd(g, compute_uv=False)
    if s[0] == 0.0:
        raise DegenerateSteadyStateError(multiplicity=len(s))
    nullity = int(np.sum(s <= null_tol * s[0]))
    if nullity != 1:
        raise DegenerateSteadyStateError(multiplicity=nullity)
    u, _s, _vh = np.linalg.svd(g)
    return u[:, -1].conj()


def _bordered_null_vector(g) -> tuple[np.ndarray, float]:
    """Left null vector w of the CSR generator `g` with vec(I) . w = 1, by sparse LU,
    and the 1-norm condition estimate of the system solved.

    The system is g^T w = 0 with its row 0 replaced by the trace functional
    vec(I)^T.  Unitality (g vec(I) = 0) makes row 0 a combination of the
    others, so the bordered matrix is nonsingular exactly when the null space
    is one-dimensional.  splu raises RuntimeError when it is exactly singular.
    """
    import scipy.sparse as sp  # imported here: only sparse levels solve this way
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    n = g.shape[0]
    trace_row = sp.csr_array(vec(identity(math.isqrt(n))).reshape(1, -1))
    a = sp.vstack([trace_row, g.T.tocsr()[1:]], format="csc")
    lu = splu(a)
    inverse = LinearOperator(a.shape, matvec=lu.solve, dtype=complex,
                             rmatvec=lambda x: lu.solve(x, trans="H"))
    with _seeded_global_rng():  # onenormest draws from the global stream
        kappa = float(abs(a).sum(axis=0).max()) * onenormest(inverse)
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    return lu.solve(rhs), kappa


def steady_state(model: SystemModel, decomp=None, null_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one stationary state: the left null vector of G_1.

    The stationary rho satisfies trace(G_1[B] rho) = 0 for every B, so
    vec(rho^T) is the left null vector of the one-slot adjoint generator G_1,
    taken from the model's held engine.  A dense level finds it by SVD; a
    sparse one by a sparse LU of G_1^T bordered with the trace functional,
    falling back to the SVD when the LU is singular or its condition estimate
    exceeds 0.1 / null_tol.  `null_tol` must lie strictly between 0 and 1.

    Raises DegenerateSteadyStateError when more or fewer than one singular
    value of G_1 is at most null_tol times the largest (e.g. any rate-free
    model), reporting that multiplicity.
    """
    null_tol = float(null_tol)
    if not 0.0 < null_tol < 1.0:  # also rejects NaN
        raise ValueError(f"null_tol must lie strictly between 0 and 1, got {null_tol}")
    decomps = decompose_model(model) if decomp is None else _as_decomps(decomp)
    with _model_evolver(model.hamiltonian, decomps) as ev:
        gen = ev.generator(1)
        if ev.dense(1):
            w = _svd_null_vector(gen, null_tol)
        else:
            try:
                w, kappa = _bordered_null_vector(gen)
            except RuntimeError:  # splu: the bordered matrix is exactly singular
                kappa = np.inf
            if not kappa <= _LU_MARGIN / null_tol:  # also a NaN estimate
                w = _svd_null_vector(gen.toarray(), null_tol)
    rho = unvec(w).T
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-10 * np.linalg.norm(rho):
        raise NumericsError("steady-state candidate is traceless; cannot normalize")
    rho = rho / tr
    return 0.5 * (rho + rho.conj().T)


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
    (rho,) = _densities(ev, spec.initial_state, np.array([fixed[0]]))
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
