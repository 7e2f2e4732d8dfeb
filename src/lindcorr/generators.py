"""Superoperator assembly.

Operators on n correlator slots are carried as vectors of length d**(2n)
(slot 1 outermost in the Kronecker layout), and the generators here act on
them:

* ``adjoint_lindbladian`` — Heisenberg-picture generator
  L[B] = i[H, B] + sum of adjoint dissipators, one channel per rate.
* ``forward_lindbladian`` — its trace-pairing dual, evolving density matrices;
  the duality checks' reference, since the propagation engine evolves states
  on the adjoint generator itself.
* ``multi_slot_action`` — the full n-slot generator as its list of slot-local
  Kronecker terms, the one place the generator is defined.  The terms either
  act matrix-free (``SlotKroneckerAction.apply``) or assemble, by one loop,
  into a dense matrix (``to_dense``, behind ``multi_slot_generator``) or a
  sparse CSR matrix (``to_csr``).

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
    slots.  :meth:`apply` contracts every factor along its slot axis;
    :meth:`to_dense` and :meth:`to_csr` assemble the matrix the engine steps
    with, each term as the Kronecker product of its factors with identities on
    the other slots.
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

    def _assemble(self, eye, kron, factor):
        # the sum of the terms, each the Kronecker product of its factors with
        # `eye` on the slots it leaves alone
        total = None
        for factors in self.terms:
            by_slot = dict(factors)
            blocks = [factor(by_slot[s]) if s in by_slot else eye
                      for s in range(1, self.slots + 1)]
            term = reduce(kron, blocks)
            total = term if total is None else total + term
        return total

    def to_dense(self) -> np.ndarray:
        """The generator as a dense matrix, refused with SlotBudgetError when its
        tensor has more than ``DEFAULT_SLOT_BUDGET`` coordinates."""
        if not _dense_fits(self.dim, self.slots):
            raise SlotBudgetError(slots=self.slots, required=self.dim ** (2 * self.slots),
                                  budget=DEFAULT_SLOT_BUDGET)
        return self._assemble(identity(self.dim ** 2), np.kron, np.asarray)

    def to_csr(self):
        """The generator as a scipy.sparse CSR array."""
        import scipy.sparse as sp  # imported here: only the sparse engine assembles

        return self._assemble(sp.eye_array(self.dim ** 2, dtype=complex, format="csr"),
                              lambda a, b: sp.kron(a, b, format="csr"), sp.csr_array)


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


def _cross_terms(decomp, m1: int, m2: int) -> Iterator[tuple[int, np.ndarray, int, np.ndarray]]:
    # (P, Q) = (C^dag, C) per channel; left commutator on the earlier slot
    for rate, c in dissipation_channels(decomp):
        yield m1, rate * left_commutator_action(c.conj().T), m2, right_commutator_action(c)


def _dense_fits(dim: int, n_slots: int) -> bool:
    """Whether the n-slot level takes the dense engine: d**(2n) <= DEFAULT_SLOT_BUDGET."""
    return dim ** (2 * n_slots) <= DEFAULT_SLOT_BUDGET


def check_csr_bytes(action: SlotKroneckerAction) -> int:
    """Byte bound of the action's CSR matrix, raising SlotBudgetError over the cap."""
    size = action.csr_bytes()
    if size > _CSR_BYTE_CAP:
        raise SlotBudgetError(slots=action.slots, required=size, budget=_CSR_BYTE_CAP,
                              quantity="sparse generator bytes")
    return size


def multi_slot_generator(hamiltonian, decomp, n_slots: int) -> SuperOperator:
    """Dense n-slot generator: single-slot Lindbladians plus all cross terms.

    The dense assembly of :func:`multi_slot_action`; for n_slots = 1 this is
    exactly the adjoint Lindbladian.  Memory guard: the state dimension
    d**(2n) must stay within DEFAULT_SLOT_BUDGET (the dense matrix then holds
    at most DEFAULT_SLOT_BUDGET**2 entries).
    """
    action = multi_slot_action(hamiltonian, decomp, n_slots)
    return SuperOperator(dim=action.dim, slots=n_slots, matrix=action.to_dense())


def multi_slot_action(hamiltonian, decomp, n_slots: int) -> SlotKroneckerAction:
    """The n-slot generator as slot-local Kronecker terms.

    G_n = sum_m L on slot m + sum_{m1<m2} rate * [C^dag, .] on slot m1 times
    [., C] on slot m2, for each dissipation channel C: the left commutator
    always acts on the earlier (left) position of the operator string.  Each
    d^2 x d^2 factor takes 16 d**4 bytes; a factor over ``_CSR_BYTE_CAP`` is
    refused with SlotBudgetError before any is built.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    h = as_operator(hamiltonian, "hamiltonian")
    decomps = _as_decomps(decomp)
    factor_bytes = 16 * h.shape[0] ** 4
    if factor_bytes > _CSR_BYTE_CAP:
        raise SlotBudgetError(slots=n_slots, required=factor_bytes, budget=_CSR_BYTE_CAP,
                              quantity="slot factor bytes")
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
