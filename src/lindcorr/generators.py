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
  given Kronecker product: the one place the generator is defined.  Its
  terms, L on each slot and each channel's cross-factor pair on each slot
  pair, are Kronecker products of the factors with identities; ``to_csr``
  sums them into one CSR matrix, each term's entries placed by index
  arithmetic from its factors' entries (``_kron``) and the terms added in
  order by one sparse product (``_csr_sum``).  ``to_dense`` (behind
  ``multi_slot_generator``) is that sum densified, and ``apply`` its product
  with a vector.

The propagation engine holds every level as that CSR matrix, assembled the
same way on both sides of ``DEFAULT_SLOT_BUDGET``.  Only the slot factors'
form depends on d: they are built with ``np.kron`` while the one-slot level
fits the budget, and from the d x d operators' entries above it, so no dense
d^2 x d^2 array is made there.  The factors are bounded in bytes from the
operators' nonzeros before any is built, the CSR generator from the factors'
nonzeros before it is assembled, and either bound over ``_CSR_BYTE_CAP`` is
refused.  A level's cold assembly, and its bytes, are recorded by
``bench/blocks.py --assembly`` (BENCH_21.json).

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

# the slot budget in slot-tensor coordinates (_within_budget): the crossover
# measured by bench/crossover.py's slot-budget mode, which times each call with
# the budget at its order and one below; its last run (BENCH_5.json, when the
# two sides stepped a whole level by its dense propagator or by a CSR action)
# tied on a cold call at order 256, the action won from 324 on, and the
# propagator at 256 once reused
DEFAULT_SLOT_BUDGET = 256
# the largest CSR generator admitted, in bytes
_CSR_BYTE_CAP = 2 ** 30
# the terms' entries that to_csr sums at once, about: a level holding more is
# summed in runs of rows of its first slot, each with about this many
_RUN = 2 ** 17


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


def _dense_kron(a, b) -> np.ndarray:
    # np.kron of two 2-d arrays, the same products without its generality
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _entries(f) -> tuple[np.ndarray, ...]:
    """A matrix's nonzero entries row by row, as CSR arrays: (values, columns, row
    pointer); `f` is a dense or a canonical CSR array."""
    rows, cols = f.nonzero()
    indptr = np.zeros(f.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=f.shape[0]), out=indptr[1:])
    values = f[rows, cols] if isinstance(f, np.ndarray) else f.data[f.data != 0]
    return values, cols.astype(np.int32), indptr


def _laid_out(block) -> tuple:
    """The :func:`_entries` `block` and, read from its row pointer, each entry's
    row, the length of that row and the entry's place in it."""
    v, c, indptr = block
    lengths = indptr[1:] - indptr[:-1]
    r = np.arange(len(lengths)).repeat(lengths)
    return v, c, indptr, r, lengths[r], np.arange(len(r)) - indptr[r]


def _rows(block, lo: int, hi: int) -> tuple:
    """Rows lo .. hi - 1 of the :func:`_laid_out` `block`, numbered from 0."""
    v, c, indptr, r, width, place = block
    a, z = indptr[lo], indptr[hi]
    return (None if v is None else v[a:z], c[a:z], indptr[lo:hi + 1] - a, r[a:z] - lo,
            width[a:z], place[a:z])


def _kron(blocks, order: int) -> tuple[np.ndarray, ...]:
    """The entries of the Kronecker product of `blocks`, the :func:`_laid_out`
    entries of order x order matrices (without values for the identity), over the
    broadcast shape of the blocks' entries: each one's row, column and place in its
    row, the mixed-radix numbers of its factors' (places in radices of the factors'
    row lengths, so the columns of a row come out sorted), and its value, their
    product left to right as ``np.kron`` forms it (leaving out the identity's ones)."""
    rows = cols = place = 0
    values = None
    for axis, (v, c, _indptr, r, width, at) in enumerate(blocks):
        shape = (-1,) + (1,) * (len(blocks) - 1 - axis)
        rows, cols = rows * order + r.reshape(shape), cols * order + c.reshape(shape)
        if v is not None:
            place = place * width.reshape(shape) + at.reshape(shape)
            values = v.reshape(shape) if values is None else values * v.reshape(shape)
    return rows, cols, place, values


def _csr_sum(terms, order: int):
    """The sum of `terms`, each the :func:`_entries` of order x order matrices
    whose Kronecker product it is, as a CSR array.

    V stacks the terms' CSR arrays, each entry placed at its row's start plus its
    place (:func:`_kron`), and S = [I ... I], so S @ V adds each entry's terms in
    term order from zero, as scipy adds CSR arrays, and stores no zero sum; a
    single term is its own sum.  V is made for one run of rows of the first
    factor at a time, each holding about ``_RUN`` entries, and the runs' sums
    are joined, so no array of all the terms' entries is made.  Each factor's
    rows and places are read from its row pointer once (:func:`_laid_out`), though
    the same factors recur in many terms and every run reads them.
    """
    import scipy.sparse as sp  # imported here: `import lindcorr` leaves it unloaded

    laid = {id(b): b for t in terms for b in t}
    laid = {key: _laid_out(b) for key, b in laid.items()}
    terms = [[laid[id(b)] for b in t] for t in terms]
    k, size = len(terms), order ** len(terms[0])
    # V's entries and S's; a run holds at least `size`, as its sum makes two arrays of that length
    entries = max(sum(math.prod(len(b[1]) for b in t) for t in terms), k * size)
    runs = min(order, max(1, -(-entries // max(_RUN, size))))
    cuts, parts = [order * i // runs for i in range(runs + 1)], []
    for lo, hi in zip(cuts, cuts[1:]):
        run, m = [[_rows(t[0], lo, hi), *t[1:]] for t in terms], (hi - lo) * (size // order)
        ends = np.cumsum([0] + [math.prod(len(b[1]) for b in t) for t in run])
        stacked = np.empty(ends[-1], dtype=complex), np.empty(ends[-1], dtype=np.int32)
        indptr = np.zeros(k * m + 1, dtype=np.int32)  # row j m + i: row i of term j
        for j, t in enumerate(run):
            row_ends = indptr[j * m + 1:][:m]
            np.cumsum(reduce(np.multiply.outer, [b[2][1:] - b[2][:-1] for b in t]).ravel(), out=row_ends)
            row_ends += ends[j]
            rows, cols, place, values = _kron(t, order)
            at = indptr[j * m + rows] + place
            stacked[0][at], stacked[1][at] = values, cols
        a = sp.csr_array((*stacked, indptr), shape=(k * m, size))
        if k > 1:
            s = np.arange(m, dtype=np.int32)[:, None] + m * np.arange(k, dtype=np.int32)
            a = sp.csr_array((np.ones(k * m, dtype=complex), s.ravel(),
                              np.arange(0, k * m + 1, k, dtype=np.int32)), shape=(m, k * m)) @ a
            a.sort_indices()
        parts.append((a.data, a.indices, a.indptr))
    if runs == 1:
        return a
    starts = np.cumsum([0] + [len(part[0]) for part in parts], dtype=np.int32)
    indptr = np.concatenate([[0], *(part[2][1:] + start for part, start in zip(parts, starts))])
    a, parts = None, list(zip(*parts))  # each run's array is then freed once it is joined
    data = np.concatenate(parts.pop(0))
    return sp.csr_array((data, np.concatenate(parts.pop(0)), indptr.astype(np.int32)),
                        shape=(size, size))


@dataclass(frozen=True)
class SlotKroneckerAction:
    """The n-slot generator, held as its d x d operators.

    Its terms are L on each slot and each channel's cross-factor pair on each
    slot pair m1 < m2, in that order, each with the identity on the slots it
    leaves alone.  The slot factors are built once, with ``np.kron`` while the
    one-slot level fits the budget and from the d x d operators' entries above
    it, so no dense d^2 x d^2 array is made there, and kept as the CSR arrays of
    their nonzero entries.  :meth:`to_csr` is the one assembly: each term's entries are placed
    by index arithmetic from its factors' and the terms are added in order
    (:func:`_csr_sum`), which stores the nonzeros of the sum of the terms' dense
    ``np.kron`` products, value for value; :meth:`to_dense` is that sum
    densified and :meth:`apply` its product with a vector.
    """

    dim: int
    slots: int
    hamiltonian: np.ndarray
    channels: tuple[tuple[float, np.ndarray], ...]

    @cached_property
    def _terms(self) -> list[tuple[tuple[int, tuple], ...]]:
        # each term as (slot, factor) pairs over distinct slots, a factor as its
        # _entries; above the budget each Kronecker product of two d x d operators
        # is summed from their entries as well.  Both routes stay: within the budget
        # the entries' route gives the same generators, byte for byte, but made the
        # cold assembly of 21 levels 1.1-18x slower (median 6.5x, BENCH_25.json),
        # and above it np.kron would make dense d^2 x d^2 products
        kron = _dense_kron if _within_budget(self.dim ** 2) else (
            lambda a, b: _csr_sum([[_entries(a), _entries(b)]], self.dim))
        lind, pairs = _slot_factors(self.hamiltonian, self.channels, identity(self.dim), kron,
                                    cross=self.slots > 1)
        lind, pairs = _entries(lind), [(_entries(f1), _entries(f2)) for f1, f2 in pairs]
        slots = range(1, self.slots + 1)
        return [((slot, lind),) for slot in slots] + [
            ((m1, f1), (m2, f2)) for m1, m2 in combinations(slots, 2) for f1, f2 in pairs]

    def apply(self, coords: np.ndarray) -> np.ndarray:
        """G_n applied to the slot tensor `coords`, by the assembled CSR matrix."""
        return self.to_csr() @ np.asarray(coords, dtype=complex)

    def _factor_bytes(self) -> int:
        """Bound on the bytes of the slot factors' :func:`_entries` arrays from the d x d
        operators' nonzeros, nnz(kron(A, B)) = nnz(A) nnz(B), and L has <= d**4: CSR,
        20 per entry (value 16, column 4) and 4 per row, plus the row pointer's last 4."""
        d, cross = self.dim, self.slots > 1
        lind, pairs = 2 * d * int(np.count_nonzero(self.hamiltonian)), 0
        for _rate, c in self.channels:
            c_nnz, cdc_nnz = int(np.count_nonzero(c)), int(np.count_nonzero(c.conj().T @ c))
            lind += c_nnz ** 2 + 2 * d * cdc_nnz
            pairs += 4 * d * c_nnz
        nnz = min(lind, d ** 4) + cross * pairs
        return 20 * nnz + (4 * d * d + 4) * (1 + cross * 2 * len(self.channels))

    def csr_bytes(self) -> int:
        """Upper bound on the bytes of :meth:`to_csr`, from the factors' nonzeros.

        A term stores the product of its factors' nonzeros times d**2 per slot
        it leaves alone; the terms' sum stores at most their total.  Each entry
        takes 16 bytes of value and 4 of column index, each row 4 of pointer.
        """
        d2 = self.dim ** 2
        nnz = sum(math.prod(len(f[0]) for _slot, f in factors)
                  * d2 ** (self.slots - len(factors)) for factors in self._terms)
        return 20 * nnz + 4 * (d2 ** self.slots + 1)

    def _norm_bound(self) -> float:
        """Upper bound on the generator's 1-norm: a term's is the product of its
        factors' (the identity's is 1), and the sum's at most the terms' total."""
        factors = {id(f): f for term in self._terms for _slot, f in term}
        norms = {key: np.bincount(f[1], np.abs(f[0]), len(f[2]) - 1).max() for key, f in factors.items()}
        return sum(math.prod(norms[id(f)] for _slot, f in term) for term in self._terms)

    def _assemble(self):
        count = np.arange(self.dim ** 2 + 1, dtype=np.int32)  # the identity's entries
        eye = (None, count[:-1], count)
        return _csr_sum([[dict(t).get(s, eye) for s in range(1, self.slots + 1)]
                         for t in self._terms], self.dim ** 2)

    def to_dense(self) -> np.ndarray:
        """The generator as a dense matrix, refused with SlotBudgetError when its
        tensor has more than ``DEFAULT_SLOT_BUDGET`` coordinates."""
        if not _within_budget(self.dim ** (2 * self.slots)):
            raise SlotBudgetError(slots=self.slots, required=self.dim ** (2 * self.slots),
                                  budget=DEFAULT_SLOT_BUDGET)
        return self._assemble().toarray()

    def to_csr(self):
        """The generator as a scipy.sparse CSR array; refused with SlotBudgetError,
        before assembly, when :meth:`csr_bytes` exceeds ``_CSR_BYTE_CAP``."""
        size = self.csr_bytes()
        if size > _CSR_BYTE_CAP:
            raise SlotBudgetError(slots=self.slots, required=size, budget=_CSR_BYTE_CAP,
                                  quantity="sparse generator bytes")
        return self._assemble()


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


def _within_budget(order: int) -> bool:
    """Whether this many slot-tensor coordinates, d**(2n) for a level of n slots,
    are within the slot budget: order <= DEFAULT_SLOT_BUDGET.  Only then may a
    run of steps take a propagator instead of an action, and ``to_dense``
    build a level; above it a level whose vectors touch every block is stepped
    whole.  At n = 1 it picks the steady state's solver (SVD, else a bordered LU)
    and the slot factors' form (``np.kron``, else from the operators' entries).
    ``bench/crossover.py`` (its default, slot-budget mode) times each call on
    both sides of this test."""
    return order <= DEFAULT_SLOT_BUDGET


def multi_slot_generator(hamiltonian, decomp, n_slots: int) -> SuperOperator:
    """Dense n-slot generator: single-slot Lindbladians plus all cross terms.

    The CSR sum of :func:`multi_slot_action`, densified (``to_dense``); for
    n_slots = 1 this equals the adjoint Lindbladian.  Memory guard: the state
    dimension d**(2n) must stay within DEFAULT_SLOT_BUDGET (the dense matrix then
    holds at most DEFAULT_SLOT_BUDGET**2 entries).
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
