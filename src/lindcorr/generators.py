"""Superoperator assembly.

Operators on n correlator slots are carried as vectors of length d**(2n)
(slot 1 outermost in the Kronecker layout), and the generators here act on
them:

* ``adjoint_lindbladian`` — Heisenberg-picture generator
  L[B] = i[H, B] + sum of adjoint dissipators, one channel per rate.
* ``forward_lindbladian`` — its trace-pairing dual, evolving density matrices;
  the duality checks' reference, written out on its own.
* ``multi_slot_action`` — the full n-slot generator, held as its d x d
  operators.  One builder, ``_slot_factors``, makes its slot factors with a
  given Kronecker product: the one place the generator is defined.  The
  factors act matrix-free (``SlotKroneckerAction.apply``) or assemble, by one
  loop, into a dense matrix (``to_dense`` with ``np.kron``, behind
  ``multi_slot_generator``) or a CSR matrix (``to_csr`` with
  ``scipy.sparse.kron``, making no dense d^2 x d^2 array).

The propagation engine picks the form by the slot tensor's length d**(2n):
dense up to ``DEFAULT_SLOT_BUDGET``, the measured crossover, and CSR above it.
The CSR slot factors are bounded in bytes from the operators' nonzeros before
any is built, the CSR generator from the factors' nonzeros before it is
assembled, and either bound over ``_CSR_BYTE_CAP`` is refused.

Channel bookkeeping: each decomposition contributes gamma0 with operator c0,
then per mode gamma_down with C_j and gamma_up with C_j^dag, in that order.
Multiple decompositions (one per independent reservoir) just concatenate
channels; there are no cross-reservoir terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
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


def _slot_factors(h, channels, eye, kron, cross: bool = False):
    """L = i[H, .] + sum rate * (C^dag . C - (1/2){C^dag C, .}) and, if `cross`,
    each channel's pair (rate * [C^dag, .], [., C]), built with `kron` from the
    d x d operators and `eye`; the arithmetic is the same in every form."""
    def spre(a):  # vec(A X) = (I (x) A) vec(X)
        return kron(eye, a)

    def spost(a):  # vec(X A) = (A.T (x) I) vec(X)
        return kron(a.T, eye)

    lind = 1j * (spre(h) - spost(h))
    pairs = []
    for rate, c in channels:
        cd = c.conj().T
        cdc = cd @ c
        lind = lind + rate * (kron(c.T, cd) - 0.5 * spre(cdc) - 0.5 * spost(cdc))
        if cross:
            pairs.append((rate * (spre(cd) - spost(cd)), spost(c) - spre(c)))
    return lind, pairs


def _csr_forms():
    """The identity (of a given order) and the Kronecker product of the CSR assembly."""
    import scipy.sparse as sp  # imported here: only the sparse engine assembles

    return (lambda n: sp.eye_array(n, dtype=complex, format="csr"),
            lambda a, b: sp.kron(sp.csr_array(a), b, format="csr"))


@dataclass(frozen=True)
class SlotKroneckerAction:
    """The n-slot generator, held as its d x d operators.

    Its terms are L on each slot and each channel's cross-factor pair on each
    slot pair m1 < m2.  :meth:`to_dense` and :meth:`to_csr` build the factors
    with their own Kronecker product and assemble each term with identities on
    the other slots; :meth:`apply` contracts the CSR factors slot by slot.
    """

    dim: int
    slots: int
    hamiltonian: np.ndarray
    channels: tuple[tuple[float, np.ndarray], ...]

    def _terms(self, eye, kron) -> list[tuple[tuple[int, object], ...]]:
        # each term as (slot, factor) pairs over distinct slots
        lind, pairs = _slot_factors(self.hamiltonian, self.channels, eye(self.dim), kron,
                                    cross=self.slots > 1)
        slots = range(1, self.slots + 1)
        return [((slot, lind),) for slot in slots] + [
            ((m1, f1), (m2, f2)) for m1, m2 in combinations(slots, 2) for f1, f2 in pairs]

    @cached_property
    def _csr_terms(self):
        # shared by csr_bytes, to_csr and apply, so the factors are built once
        return self._terms(*_csr_forms())

    def apply(self, coords: np.ndarray) -> np.ndarray:
        d2 = self.dim ** 2
        shape = (d2,) * self.slots
        t = np.asarray(coords, dtype=complex).reshape(shape)
        out = np.zeros(shape, dtype=complex)
        for factors in self._csr_terms:
            y = t
            for slot, f in factors:
                y = np.moveaxis(y, slot - 1, 0)
                y = np.moveaxis((f @ y.reshape(d2, -1)).reshape(y.shape), 0, slot - 1)
            out += y
        return out.reshape(-1)

    def _factor_bytes(self) -> int:
        """Bound on the CSR slot factors' bytes (20 per entry, 4 per row) from the d x d
        operators' nonzeros: nnz(kron(A, B)) = nnz(A) nnz(B), and L has <= d**4."""
        d, cross = self.dim, self.slots > 1
        lind, pairs = 2 * d * int(np.count_nonzero(self.hamiltonian)), 0
        for _rate, c in self.channels:
            c_nnz, cdc_nnz = int(np.count_nonzero(c)), int(np.count_nonzero(c.conj().T @ c))
            lind += c_nnz ** 2 + 2 * d * cdc_nnz
            pairs += 4 * d * c_nnz
        nnz = min(lind, d ** 4) + cross * pairs
        return 20 * nnz + 4 * (d * d + 1) * (1 + cross * 2 * len(self.channels))

    def csr_bytes(self) -> int:
        """Upper bound on the bytes of :meth:`to_csr`, from the CSR factors' nonzeros.

        A term stores the product of its factors' nonzeros times d**2 per slot
        it leaves alone; the terms' sum stores at most their total.  Each entry
        takes 16 bytes of value and 4 of column index, each row 4 of pointer.
        """
        d2 = self.dim ** 2
        nnz = sum(math.prod(f.count_nonzero() for _slot, f in factors)
                  * d2 ** (self.slots - len(factors)) for factors in self._csr_terms)
        return 20 * nnz + 4 * (d2 ** self.slots + 1)

    def _assemble(self, terms, eye, kron):
        # the sum of the terms, each the Kronecker product of its factors with
        # the identity on the slots it leaves alone
        eye = eye(self.dim ** 2)
        total = None
        for factors in terms:
            by_slot = dict(factors)
            blocks = [by_slot[s] if s in by_slot else eye for s in range(1, self.slots + 1)]
            term = reduce(kron, blocks)
            total = term if total is None else total + term
        return total

    def to_dense(self) -> np.ndarray:
        """The generator as a dense matrix, refused with SlotBudgetError when its
        tensor has more than ``DEFAULT_SLOT_BUDGET`` coordinates."""
        if not _dense_fits(self.dim, self.slots):
            raise SlotBudgetError(slots=self.slots, required=self.dim ** (2 * self.slots),
                                  budget=DEFAULT_SLOT_BUDGET)
        return self._assemble(self._terms(identity, np.kron), identity, np.kron)

    def to_csr(self):
        """The generator as a scipy.sparse CSR array, built from CSR factors only;
        refused with SlotBudgetError, before assembly, when :meth:`csr_bytes`
        exceeds ``_CSR_BYTE_CAP``."""
        size = self.csr_bytes()
        if size > _CSR_BYTE_CAP:
            raise SlotBudgetError(slots=self.slots, required=size, budget=_CSR_BYTE_CAP,
                                  quantity="sparse generator bytes")
        return self._assemble(self._csr_terms, *_csr_forms())


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


def adjoint_lindbladian(hamiltonian, decomp) -> SuperOperator:
    """Heisenberg-picture generator: i[H, .] plus all dissipation channels."""
    h = as_operator(hamiltonian, "hamiltonian")
    lind, _pairs = _slot_factors(h, dissipation_channels(decomp), identity(h.shape[0]), np.kron)
    return SuperOperator(dim=h.shape[0], slots=1, matrix=lind)


def forward_lindbladian(hamiltonian, decomp) -> SuperOperator:
    """Schroedinger-picture dual: rho -> -i[H, rho] + sum C rho C^dag - (1/2){C^dag C, rho}.

    This is the matrix adjoint of :func:`adjoint_lindbladian` under the trace
    pairing trace(B rho); the duality is asserted by the test suite rather
    than constructed by transposition, and it is written out without the builder.
    """
    h = as_operator(hamiltonian, "hamiltonian")
    eye = identity(h.shape[0])
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, c in dissipation_channels(decomp):
        cd = c.conj().T
        cdc = cd @ c
        m = m + rate * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye))
    return SuperOperator(dim=h.shape[0], slots=1, matrix=m)


def _dense_order(order: int) -> bool:
    """Whether a generator of this order takes the dense engine: order <= DEFAULT_SLOT_BUDGET."""
    return order <= DEFAULT_SLOT_BUDGET


def _dense_fits(dim: int, n_slots: int) -> bool:
    """Whether the n-slot level takes the dense engine: d**(2n) <= DEFAULT_SLOT_BUDGET."""
    return _dense_order(dim ** (2 * n_slots))


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
    """The n-slot generator, as its Hamiltonian and dissipation channels.

    G_n = sum_m L on slot m + sum_{m1<m2} rate * [C^dag, .] on slot m1 times
    [., C] on slot m2, for each dissipation channel C: the left commutator
    always acts on the earlier (left) position of the operator string.  No
    factor is built here; a model whose CSR factors' byte bound exceeds
    ``_CSR_BYTE_CAP`` is refused with SlotBudgetError.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    h = as_operator(hamiltonian, "hamiltonian")
    action = SlotKroneckerAction(dim=h.shape[0], slots=n_slots, hamiltonian=h,
                                 channels=tuple(dissipation_channels(decomp)))
    factor_bytes = action._factor_bytes()
    if factor_bytes > _CSR_BYTE_CAP:
        raise SlotBudgetError(slots=n_slots, required=factor_bytes, budget=_CSR_BYTE_CAP,
                              quantity="slot factor bytes")
    return action


def elementary_tensor(ops: Sequence[np.ndarray] | Iterable[np.ndarray]) -> np.ndarray:
    """Coordinates of the slot tensor B1 (x) ... (x) Bn: vec(B1) (x) ... (x) vec(Bn)."""
    vecs = [vec(op) for op in ops]
    if not vecs:
        raise ValueError("elementary tensor needs at least one slot operator")
    return reduce(np.kron, vecs)
