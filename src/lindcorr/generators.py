"""Superoperator assembly.

Operators on n correlator slots are carried as vectors of length d**(2n)
(slot 1 outermost in the Kronecker layout), and the generators here act on
them:

* ``adjoint_lindbladian`` — Heisenberg-picture generator
  L[B] = i[H, B] + sum of adjoint dissipators, one channel per rate.
* ``forward_lindbladian`` — its trace-pairing dual, evolving density matrices.
* ``lift`` — a one-slot superoperator acting on slot m of n.
* ``cross_dissipator`` — the commutator-pair coupling between two slots,
  rate * [P, .] on the earlier slot times [., Q] on the later slot, with
  (P, Q) = (C^dag, C) for each dissipation channel C.
* ``multi_slot_generator`` / ``multi_slot_action`` — the full n-slot generator,
  as one dense matrix, or as its list of slot-local Kronecker terms.  The
  terms either act matrix-free (``SlotKroneckerAction.apply``) or assemble
  into a sparse CSR matrix (``SlotKroneckerAction.to_csr``).

The propagation engine picks the form by the slot tensor's length d**(2n):
dense up to ``DEFAULT_SLOT_BUDGET``, the measured crossover, and CSR above it.
A CSR generator is admitted only if the upper bound on its bytes, computed
from the factors' nonzeros before assembly, stays within ``_CSR_BYTE_CAP``.

Channel bookkeeping: each decomposition contributes gamma0 with operator c0,
then per mode gamma_down with C_j and gamma_up with C_j^dag, in that order.
Multiple decompositions (one per independent reservoir) just concatenate
channels; there are no cross-reservoir terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .decomposition import JumpDecomposition
from .errors import SlotBudgetError
from .operators import as_operator, dagger, identity, vec

# dense/sparse engine crossover in slot-tensor coordinates, measured by
# bench/crossover.py (BENCH_5.json): dense and CSR tie on a cold call at order
# 256, CSR wins from 324 on, and dense wins at 256 once its propagator is reused
DEFAULT_SLOT_BUDGET = 256
# the largest CSR generator admitted, in bytes
_CSR_BYTE_CAP = 2 ** 30


@dataclass(frozen=True)
class SuperOperator:
    """Dense matrix acting on vectorized `slots`-fold operator tensors."""

    dim: int
    slots: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        size = self.dim ** (2 * self.slots)
        if m.shape != (size, size):
            raise ValueError(
                f"superoperator matrix must have shape {(size, size)} for "
                f"dim {self.dim} and {self.slots} slot(s), got {m.shape}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return self.matrix @ coords


@dataclass(frozen=True)
class SlotKroneckerAction:
    """The n-slot generator as a sum of products of slot-local factors.

    Each term is a tuple of (slot index, d^2 x d^2 factor) pairs over distinct
    slots.  :meth:`apply` contracts every factor along its slot axis, and
    :meth:`to_csr` assembles the sparse matrix the engine steps with; both
    give the dense generator's action without its d**(4n) memory footprint.
    """

    dim: int
    slots: int
    terms: tuple[tuple[tuple[int, np.ndarray], ...], ...]

    def apply(self, coords: np.ndarray) -> np.ndarray:
        d2 = self.dim ** 2
        shape = (d2,) * self.slots
        t = np.asarray(coords, dtype=complex).reshape(shape)
        out = np.zeros(shape, dtype=complex)
        for factors in self.terms:
            y = t
            for slot, f in factors:
                y = np.moveaxis(np.tensordot(f, y, axes=(1, slot - 1)), 0, slot - 1)
            out += y
        return out.reshape(-1)

    def csr_bytes(self) -> int:
        """Upper bound on the bytes of :meth:`to_csr`, from the factors' nonzeros.

        A term stores the product of its factors' nonzeros times d**2 per slot
        it leaves alone; the terms' sum stores at most their total.  Each entry
        takes 16 bytes of value and 4 of column index, each row 4 of pointer.
        """
        d2 = self.dim ** 2
        nnz = sum(math.prod(int(np.count_nonzero(f)) for _slot, f in factors)
                  * d2 ** (self.slots - len(factors)) for factors in self.terms)
        return 20 * nnz + 4 * (d2 ** self.slots + 1)

    def to_csr(self):
        """The generator as a scipy.sparse CSR array: the sum of the terms, each the
        Kronecker product of its factors with identities on the other slots."""
        import scipy.sparse as sp  # imported here: only the sparse engine assembles

        eye = sp.eye_array(self.dim ** 2, dtype=complex, format="csr")
        total = None
        for factors in self.terms:
            by_slot = dict(factors)
            blocks = [sp.csr_array(by_slot[s]) if s in by_slot else eye
                      for s in range(1, self.slots + 1)]
            term = reduce(lambda a, b: sp.kron(a, b, format="csr"), blocks)
            total = term if total is None else total + term
        return total


def _spre(a: np.ndarray) -> np.ndarray:
    # vec(A X) = (I (x) A) vec(X)
    return np.kron(identity(a.shape[0]), a)


def _spost(a: np.ndarray) -> np.ndarray:
    # vec(X A) = (A.T (x) I) vec(X)
    return np.kron(a.T, identity(a.shape[0]))


def left_commutator_action(p: np.ndarray) -> np.ndarray:
    """Superoperator matrix of X -> [P, X]."""
    return _spre(p) - _spost(p)


def right_commutator_action(q: np.ndarray) -> np.ndarray:
    """Superoperator matrix of X -> [X, Q]."""
    return _spost(q) - _spre(q)


def _as_decomps(decomp) -> tuple[JumpDecomposition, ...]:
    if isinstance(decomp, JumpDecomposition):
        return (decomp,)
    decomps = tuple(decomp)
    if not decomps:
        raise ValueError("at least one jump decomposition is required")
    dims = {d.dim for d in decomps}
    if len(dims) > 1:
        raise ValueError(f"decompositions act on mixed dimensions {sorted(dims)}")
    return decomps


def dissipation_channels(decomp) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (rate, channel operator C) pairs in deterministic order.

    Zero-rate channels are skipped — they contribute nothing to any generator.
    """
    for dec in _as_decomps(decomp):
        if not dec.rates_assigned:
            raise ValueError("decomposition has unassigned rates; call assign_rates first")
        if dec.gamma0:
            yield dec.gamma0, dec.c0
        for m in dec.modes:
            if m.gamma_down:
                yield m.gamma_down, m.operator
            if m.gamma_up:
                yield m.gamma_up, dagger(m.operator)


def adjoint_dissipator(c) -> SuperOperator:
    """Superoperator of B -> C^dag B C - (1/2){C^dag C, B} (unit rate)."""
    c = as_operator(c, "dissipation channel")
    cd = c.conj().T
    cdc = cd @ c
    m = np.kron(c.T, cd) - 0.5 * _spre(cdc) - 0.5 * _spost(cdc)
    return SuperOperator(dim=c.shape[0], slots=1, matrix=m)


def _hamiltonian_action(h: np.ndarray) -> np.ndarray:
    # adjoint (Heisenberg) direction: B -> +i[H, B]
    return 1j * (_spre(h) - _spost(h))


def adjoint_lindbladian(hamiltonian, decomp) -> SuperOperator:
    """Heisenberg-picture generator: i[H, .] plus all dissipation channels."""
    h = as_operator(hamiltonian, "hamiltonian")
    m = _hamiltonian_action(h)
    for rate, c in dissipation_channels(decomp):
        m = m + rate * adjoint_dissipator(c).matrix
    return SuperOperator(dim=h.shape[0], slots=1, matrix=m)


def forward_lindbladian(hamiltonian, decomp) -> SuperOperator:
    """Schroedinger-picture dual: rho -> -i[H, rho] + sum C rho C^dag - (1/2){C^dag C, rho}.

    This is the matrix adjoint of :func:`adjoint_lindbladian` under the trace
    pairing trace(B rho); the duality is asserted by the test suite rather
    than constructed by transposition.
    """
    h = as_operator(hamiltonian, "hamiltonian")
    m = -_hamiltonian_action(h)
    for rate, c in dissipation_channels(decomp):
        cd = c.conj().T
        cdc = cd @ c
        m = m + rate * (np.kron(c.conj(), c) - 0.5 * _spre(cdc) - 0.5 * _spost(cdc))
    return SuperOperator(dim=h.shape[0], slots=1, matrix=m)


def lift(s: SuperOperator, slot: int, n_slots: int) -> SuperOperator:
    """Embed a one-slot superoperator as slot `slot` of an `n_slots` generator."""
    if s.slots != 1:
        raise ValueError(f"lift expects a one-slot superoperator, got {s.slots} slots")
    if not 1 <= slot <= n_slots:
        raise ValueError(f"slot {slot} out of range 1..{n_slots}")
    d2 = s.dim ** 2
    m = np.kron(np.eye(d2 ** (slot - 1)), np.kron(s.matrix, np.eye(d2 ** (n_slots - slot))))
    return SuperOperator(dim=s.dim, slots=n_slots, matrix=m)


def _cross_terms(decomp, m1: int, m2: int) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    # (P, Q) = (C^dag, C) per channel; left commutator on the earlier slot
    for rate, c in dissipation_channels(decomp):
        yield m1, rate * left_commutator_action(c.conj().T), m2, right_commutator_action(c)


def cross_dissipator(decomp, m1: int, m2: int, n_slots: int) -> SuperOperator:
    """Two-slot coupling term between slots m1 < m2 of an n-slot generator.

    For each dissipation channel C at rate g, applies g*[C^dag, .] to slot m1
    and [., C] to slot m2.  The asymmetry is meaningful: slot indices are
    positions in the operator string, and the left commutator always acts on
    the earlier (left) position.
    """
    decomps = _as_decomps(decomp)
    dim = decomps[0].dim
    if not 1 <= m1 < m2 <= n_slots:
        raise ValueError(f"need 1 <= m1 < m2 <= n_slots, got m1={m1}, m2={m2}, n_slots={n_slots}")
    d2 = dim ** 2
    size = d2 ** n_slots
    m = np.zeros((size, size), dtype=complex)
    for s1, f1, s2, f2 in _cross_terms(decomps, m1, m2):
        # I (x) ... f1 ... (x) ... f2 ... (x) I with f1 at slot s1, f2 at slot s2
        blocks = [np.eye(d2 ** (s1 - 1)), f1, np.eye(d2 ** (s2 - s1 - 1)), f2, np.eye(d2 ** (n_slots - s2))]
        m += reduce(np.kron, blocks)
    return SuperOperator(dim=dim, slots=n_slots, matrix=m)


def check_slot_budget(dim: int, n_slots: int, slot_budget: int) -> int:
    """State dimension d**(2n), raising SlotBudgetError if over budget."""
    size = dim ** (2 * n_slots)
    if size > slot_budget:
        raise SlotBudgetError(slots=n_slots, required=size, budget=slot_budget)
    return size


def check_csr_bytes(action: SlotKroneckerAction) -> int:
    """Byte bound of the action's CSR matrix, raising SlotBudgetError over the cap."""
    size = action.csr_bytes()
    if size > _CSR_BYTE_CAP:
        raise SlotBudgetError(slots=action.slots, required=size, budget=_CSR_BYTE_CAP,
                              quantity="sparse generator bytes")
    return size


def multi_slot_generator(hamiltonian, decomp, n_slots: int) -> SuperOperator:
    """Dense n-slot generator: single-slot Lindbladians plus all cross terms.

    G_n = sum_m lift(L, m) + sum_{m1<m2} cross_dissipator(m1, m2).  For
    n_slots = 1 this is exactly the adjoint Lindbladian.  Memory guard: the
    state dimension d**(2n) must stay within DEFAULT_SLOT_BUDGET (the dense
    matrix then holds at most DEFAULT_SLOT_BUDGET**2 entries).
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    h = as_operator(hamiltonian, "hamiltonian")
    decomps = _as_decomps(decomp)
    check_slot_budget(h.shape[0], n_slots, DEFAULT_SLOT_BUDGET)
    single = adjoint_lindbladian(h, decomps)
    m = lift(single, 1, n_slots).matrix.copy()
    for slot in range(2, n_slots + 1):
        m += lift(single, slot, n_slots).matrix
    for m1 in range(1, n_slots + 1):
        for m2 in range(m1 + 1, n_slots + 1):
            m += cross_dissipator(decomps, m1, m2, n_slots).matrix
    return SuperOperator(dim=h.shape[0], slots=n_slots, matrix=m)


def multi_slot_action(hamiltonian, decomp, n_slots: int) -> SlotKroneckerAction:
    """Matrix-free counterpart of :func:`multi_slot_generator` (same action)."""
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    h = as_operator(hamiltonian, "hamiltonian")
    decomps = _as_decomps(decomp)
    single = adjoint_lindbladian(h, decomps).matrix
    terms: list[tuple[tuple[int, np.ndarray], ...]] = []
    for slot in range(1, n_slots + 1):
        terms.append(((slot, single),))
    for m1 in range(1, n_slots + 1):
        for m2 in range(m1 + 1, n_slots + 1):
            for s1, f1, s2, f2 in _cross_terms(decomps, m1, m2):
                terms.append(((s1, f1), (s2, f2)))
    return SlotKroneckerAction(dim=h.shape[0], slots=n_slots, terms=tuple(terms))


def elementary_tensor(ops: Sequence[np.ndarray] | Iterable[np.ndarray]) -> np.ndarray:
    """Coordinates of the slot tensor B1 (x) ... (x) Bn: vec(B1) (x) ... (x) vec(Bn)."""
    vecs = [vec(op) for op in ops]
    if not vecs:
        raise ValueError("elementary tensor needs at least one slot operator")
    return reduce(np.kron, vecs)
