"""Time evolution and correlator drivers.

The evaluation pattern shared by every driver: evolve a slot tensor with the
appropriate generator, then contract it against the fixed insertion matrices
and the state.  The contraction is carried by a dual vector `w` built once per
(insertions, state) pair, so a tau sweep costs one propagator application and
one dot product per point.  For general time patterns `w` also carries the
earlier insertions: it is pulled back through them once per sweep.

A level of n slots has d**(2n) coordinates, and its generator is held as one
CSR matrix, assembled the same way at every size
(``generators.SlotKroneckerAction.to_csr``: each term's entries placed by
index arithmetic from its slot factors', the terms added in order), its byte
bound checked against the cap before assembly (SlotBudgetError).  When it is
built it is checked once to be unital: ||G_n vec(I)^(x)n||_inf may be at most
``_UNITAL_RTOL`` times a bound on ||G_n||_1 read from the factors, one
matrix-vector product (NumericsError).  The slot budget,
``generators.DEFAULT_SLOT_BUDGET`` coordinates, the measured crossover,
decides how each run of a grid is stepped (below), never what a level holds.

Every level is split into blocks that its generator never couples (under
the exact decomposition G_n conserves the total Bohr frequency over all
slots; Davies, Commun. Math. Phys. 39, 91, 1974).  They are found once per
level, as the connected components of the generator's sparsity pattern, and
a value sum_b w_b . exp(tau G_b) T_b needs only the blocks where both T and
w are nonzero.  So a sweep steps only the coordinates S of those blocks, and
a pull-back or a density evolution only those of the blocks where its vector
is nonzero, grouped block by block so that each block G_b is a diagonal
block of the restricted generator G[S, S].  Those blocks are the call's
slice: its coordinates and each block's span among them are held per level
and set of blocks, and every value the call steps with is keyed by it.

One routine, ``_SlotEvolver.trajectory``, walks every grid: it carries a slot
tensor forward, or a dual vector back (a pull-back or a density evolution),
and yields the vectors, or, given a dual vector w, the values w @ T(tau).  A
grid is walked in runs of equal steps (steps that differ only by rounding
are one step), and each run is stepped in one of two ways, chosen from the
run alone.  If S has at most the budget's coordinates and the run has more
than one step or no block of S has more than ``_SINGLE_USE_ORDER``
coordinates, the run is stepped by matrix-vector products with the slice's
propagator exp(step G[S, S]), block-diagonal, made of each block's
exp(step G_b) once per level, step and slice and held.  Otherwise the run is
one action of G[S, S]; a pull-back uses the transposed matrix.  The action
is Al-Mohy & Higham's interval algorithm (SIAM J. Sci. Comput. 33, 488,
2011), run here with the arithmetic of scipy's ``expm_multiply``, on a plan
held per level, slice and direction (the shifted G[S, S] - mu I, its shift
and its 1-norm) and the run's Taylor degree and step count, held per plan,
run length and number of steps; their 1-norm estimates of powers of G[S, S]
are the costly part of a cold action, so a warm action only multiplies.  Its
vectors (the pull-backs and density evolutions, and ``integrate_ode``'s) are
scipy's bit for bit.  A sweep needs only the values w @ T(tau), so its action
returns them: each interval's end point is still summed as a vector, with
scipy's bits and so its value, but an interior point's value is the
contraction of w with the interval's Taylor terms, which differs from w @
scipy's vector by rounding (at most 7.6e-16 of the largest value on the
9-level oscillator OTOC).  A uniform grid forms its slice's propagator once,
and a step used once on a block of many coordinates, such as a pull-back
across one gap, forms none.  A level of one block is stepped whole: its
propagator is formed from the whole generator.  The two ways agree within
the engine tolerance, 1e-12 of the result's largest entry: measured at most
7.9e-14 on random models of order 26 to 625 (``bench/repeats.py``,
BENCH_11.json) and 1.5e-13 at order 196 (BENCH_10.json).  The steady state's
null-space count sees every block; its SVD null vector is then set to exact
zeros outside its own block, where the SVD leaves roundoff.

The forward dynamics has no engine of its own.  Under the trace pairing
trace(B rho) = vec(rho^T) . vec(B) a density matrix is a dual vector of the
one-slot level G_1: rho(t) is vec(rho0^T) pulled back through exp(t G_1), and
the stationary state is the left null vector of G_1, found by SVD on a level
within the budget and by a sparse LU of G_1^T bordered with the trace
functional above it.

The n-slot generators and their propagators depend only on the model (H and
the dissipation channels), not on the operators or the state, so what an
engine builds is held across calls in the store of ``lindcorr._held``, keyed
by the model's content, and found again by every later call on an equal model.
A held value never changes: what a later call adds is an entry of its own.
"""

from __future__ import annotations

import math
import string
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, reduce
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from . import _held, generators
from .decomposition import decompose_model
from .errors import DegenerateSteadyStateError, NumericsError
from .generators import (
    _as_decomps,
    _within_budget,
    dissipation_channels,
    elementary_tensor,
    multi_slot_action,
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


def _check_times(times, what: str) -> np.ndarray:
    """`times` as a float array whose entries are all finite and >= 0; `what`
    names them in the error."""
    arr = np.asarray(times, dtype=float)
    if not (arr.min(initial=np.inf) >= 0 and arr.max(initial=-np.inf) < np.inf):  # NaN fails
        bad = arr[~(np.isfinite(arr) & (arr >= 0))]
        raise ValueError(f"{what} must be finite and >= 0, got {float(bad.flat[0])}")
    return arr


def _check_taus(taus) -> np.ndarray:
    arr = np.asarray(taus, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("tau grid must be a nonempty 1-d array")
    _check_times(arr, "tau grid")
    if len(arr) > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("tau grid must be strictly ascending")
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
            _check_times(t, f"insertion {k} time")
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


_rng_lock = threading.Lock()  # one seeded block at a time


@contextmanager
def _seeded_global_rng() -> Iterator[None]:
    """Seed NumPy's global stream for the block and restore the caller's state after.

    scipy's 1-norm estimator draws from the global stream; seeding it makes
    the result independent of the caller's state and leaves that state alone.
    The blocks of concurrent calls run one at a time, so none draws from
    another's stream.
    """
    with _rng_lock:
        state = np.random.get_state()
        np.random.seed(0)
        try:
            yield
        finally:
            np.random.set_state(state)


# Al-Mohy & Higham (2011): theta_m, the largest norm of t*A for which m terms of
# the Taylor series meet the double-precision tolerance 2**-53, up to m = 30 from
# table A.3 of Higham & Al-Mohy, Acta Numer. 19, 159 (2010), beyond from table 3.1
_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
          7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
          13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
          19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64,
          27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}
_TOL = 2.0 ** -53
_M_MAX = 55
_P_MAX = 8  # the largest p with p (p - 1) <= m_max + 1
# condition (3.13) for one vector and ell = 2: at most this 1-norm, m* and s are
# read from the 1-norm alone and no power of the matrix is estimated
_NORM_ONLY = 2 * 2 * _P_MAX * (_P_MAX + 3) * (_THETA[_M_MAX] / float(_M_MAX))


class _ActionPlan:
    """What the action exp(t A) v needs of A alone, prepared once: the shifted matrix
    A - mu I (mu = trace(A) / n, in A's own format), the shift mu and the shifted
    matrix's exact 1-norm.  A plan is never changed once made: the Taylor degree
    and step count of each run of steps on it are :meth:`run`'s.

    The engine holds one plan per slice it acts on, and each run's (m*, s) as an
    entry of its own, so a warm action estimates no norm and copies no matrix.
    """

    def __init__(self, a):
        import scipy.sparse as sp  # imported here: only actions need it

        a = a if sp.issparse(a) else np.asarray(a)
        n = a.shape[0]
        self.mu = a.trace() / float(n)
        if sp.issparse(a):
            self.shifted = a - self.mu * sp.eye(n, n, dtype=a.dtype).asformat(a.format)
            self.norm = max(abs(self.shifted).sum(axis=0).flat)
        else:
            self.shifted = a - self.mu * np.eye(n, n, dtype=a.dtype)
            self.norm = np.linalg.norm(self.shifted, 1)

    def run(self, t: float, q: int) -> tuple[float, int, int, int, bool]:
        """(t, q, m*, s, stepwise) of exp(k (t / q) A) b, k = 0 .. q (:func:`_interval`):
        the Taylor degree and step count of exp(t A) by :meth:`degrees`, and whether
        q <= s, when each of the q steps is taken alone with the (m*, s) of exp((t / q) A)
        instead.  The 1-norm estimates, if any, are made once for both."""
        if t * self.norm == 0:
            return t, q, 0, 1, q <= 1
        roots = cache(lambda: self.roots(t))
        m, s = self.degrees(t, 1, roots)
        if q <= s:
            return (t, q, *self.degrees(t, 1.0 / q, roots), True)
        return t, q, m, s, False

    def degrees(self, t: float, scale: float, roots) -> tuple[int, int]:
        """(m*, s) for exp(scale t A) on one vector by Code Fragment 3.1 of Al-Mohy &
        Higham (2011), m_max = 55 and ell = 2; `roots()` gives d_p = ||(t A)^p||_1^(1/p),
        p = 2 .. 9, when the 1-norm is too large alone."""
        norm, best_m, best_s = scale * (t * self.norm), None, None
        if norm <= _NORM_ONLY:
            for m, theta in _THETA.items():
                s = math.ceil(norm / theta)
                if best_m is None or m * s < best_m * best_s:
                    best_m, best_s = m, s
        else:
            d = [scale * root for root in roots()]
            for p in range(2, _P_MAX + 1):
                alpha = max(d[p - 2], d[p - 1])
                for m in range(p * (p - 1) - 1, _M_MAX + 1):
                    if m in _THETA:
                        s = math.ceil(alpha / _THETA[m])
                        if best_m is None or m * s < best_m * best_s:
                            best_m, best_s = m, s
            best_s = max(best_s, 1)
        return best_m, best_s

    def roots(self, t: float) -> list[float]:
        """||(t A)^p||_1^(1/p) for p = 2 .. 9, each estimated by scipy's ``onenormest``
        in that order on t A, from NumPy's global stream seeded for the estimates.
        The copy t A is checked against the CSR byte cap before it is made."""
        from scipy.sparse.linalg import aslinearoperator, onenormest

        copy = _held.nbytes(self.shifted)  # t * shifted copies the data, indices and indptr
        if copy > generators._CSR_BYTE_CAP:
            raise MemoryError(f"a 1-norm estimate needs a scaled copy of {copy} bytes, over "
                              f"the cap of {generators._CSR_BYTE_CAP}")
        scaled = aslinearoperator(t * self.shifted)
        with _seeded_global_rng():
            roots = [onenormest(scaled ** p) ** (1.0 / p) for p in range(2, _P_MAX + 2)]
        _held.tally(norm_estimates=len(roots))
        return roots

    def _nbytes(self) -> int:
        """Bytes held: the shifted matrix."""
        return _held.nbytes(self.shifted)


# the computed norm of a partial sum exceeds the computed norm before a term was
# added, plus the term's, by a few roundings at most; this factor covers them
_SLACK = 1.0 + 2.0 ** -30


def _stopped(f: np.ndarray, c1: float, c2: float, bound: float) -> tuple[bool, float]:
    """Whether the partial sum `f` meets the stopping test c1 + c2 <= tol ||f||_inf,
    c2 the norm of the term just added and `bound` a bound on ||f||_inf before it,
    and a bound on ||f||_inf now.  The norm is taken only where ||f|| <= bound + c2
    (times the slack) does not already show that the test fails, so the outcome is
    the test's, bit for bit."""
    bound = (bound + c2) * _SLACK
    if c1 + c2 > _TOL * bound:
        return False, bound
    norm = np.abs(f).max()
    return c1 + c2 <= _TOL * norm, norm


def _taylor(a, b: np.ndarray, t: float, mu, m: int, s: int) -> tuple[np.ndarray, int]:
    """exp(t (a + mu I)) b by s steps of the Taylor series of degree at most m, each
    cut short once two terms fall below the tolerance (Al-Mohy & Higham 2011,
    Algorithm 3.2; :func:`_stopped`), and the number of products with `a` made."""
    f, eta, matvecs = b, np.exp(t * mu / float(s)), 0
    for _i in range(s):
        c1 = bound = np.abs(b).max()
        for j in range(m):
            b = t / float(s * (j + 1)) * a.dot(b)
            matvecs += 1
            c2 = np.abs(b).max()
            f = f + b
            stop, bound = _stopped(f, c1, c2, bound)
            if stop:
                break
            c1 = c2
        f = eta * f
        b = f
    return f, matvecs


def _point(a, terms: np.ndarray, norms: list, k: int, m: int, h: float) -> tuple[np.ndarray, int]:
    """sum_p k^p K[p] over the Taylor terms K[p] = (h a)^p K[0] / p! of `terms`, whose
    norms ||K[p]||_inf are `norms`, each term formed there when first needed; cut
    short once two terms fall below the tolerance (:func:`_stopped`).  Also the
    number of products with `a` made."""
    f, c1, bound, matvecs = terms[0].copy(), norms[0], norms[0], 0
    scaled = np.empty_like(f)
    for p in range(1, m + 1):
        if p == len(norms):
            terms[p] = h * a.dot(terms[p - 1]) / float(p)
            norms.append(np.abs(terms[p]).max())
            matvecs += 1
        coeff = float(pow(k, p))
        np.multiply(coeff, terms[p], out=scaled)
        f += scaled
        c2 = coeff * norms[p]
        stop, bound = _stopped(f, c1, c2, bound)
        if stop:
            break
        c1 = c2
    return f, matvecs


def _interior(terms: np.ndarray, norms: list, span: int, h: float, mu, w: np.ndarray,
              wnorm: float) -> tuple[np.ndarray, np.ndarray]:
    """Values w @ x_k at the interior points k = 1 .. span - 1 of an interval, from its
    formed Taylor terms: exp(k h mu) sum_{p <= P} k^p (w . K[p]), P the first p at
    which the point's stopping test is shown from the value, and whether it is shown.

    The test c_{p-1} + c_p <= tol ||f||_inf (c_p = k^p ||K[p]||_inf, f the partial sum)
    holds wherever tol |w . f| / ||w||_1 exceeds its left side, since |w . f| <=
    ||w||_1 ||f||_inf; the value is lowered by a bound on the rounding of the dot
    products and sums first.  So a value stops no earlier than the summed point.
    """
    n, top = terms.shape[1], len(norms)
    ks = np.arange(1, span, dtype=float)[:, None]
    powers = ks ** np.arange(top)
    sums = np.cumsum(powers * (terms[:top] @ w), axis=1)
    c = powers * np.array(norms)
    slack = 4 * (n + top + 8) * _TOL  # the dot products', the sums' and the test's roundings
    size = np.abs(sums)
    lower = size - slack * (size + wnorm * np.cumsum(c, axis=1))
    shown = np.zeros(c.shape, dtype=bool)  # never at p = 0
    shown[:, 1:] = wnorm * (c[:, :-1] + c[:, 1:]) <= _TOL * lower[:, 1:]
    cut = np.argmax(shown, axis=1)
    values = np.exp(ks[:, 0] * h * mu) * sums[np.arange(span - 1), cut]
    return values, shown.any(axis=1)


def _interval(plan: _ActionPlan, b: np.ndarray, run: tuple,
              w: np.ndarray | None = None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """exp(k (t / q) A) b for k = 0 .. q, A the plan's matrix and (t, q, m*, s,
    stepwise) the plan's `run` (:meth:`_ActionPlan.run`), as rows; given a dual
    vector `w`, the values w @ exp(k (t / q) A) b for k = 0 .. q and the last row.

    Algorithm 5.2 of Al-Mohy & Higham (2011) from time 0, with the arithmetic
    of scipy's ``expm_multiply``: when q <= s (stepwise), each point is stepped
    from the one before by :func:`_taylor` with the (m*, s) of one step;
    otherwise the points are stepped in intervals of d = q // s points (the last
    holding the rest) from the Taylor terms K[p] of each interval's start, each
    term and its norm formed once, and each point summed by :func:`_point`.  So
    every row is scipy's, and so is every value at a point stepped from the one
    before or at an interval's end.  An interior point's value is instead taken
    from the terms by :func:`_interior`, one product of the terms with `w`, and
    summed as a row only where its stopping test is not shown; no term is formed
    that the rows would not form.  The workspace, the q + 1 rows (given `w`, one
    carried row and the interior's arrays of d by m* + 1 products, sums and
    bounds) and, when stepped in intervals, the m* + 1 terms, is checked against
    the CSR byte cap before it is made.
    """
    t, q, m, s, stepwise = run
    a, mu, n, h = plan.shifted, plan.mu, len(b), t / q
    dtype = np.result_type(a.dtype, b.dtype, float)
    work = ((0 if stepwise else m + 1) + (q + 1 if w is None else 1)) * n * dtype.itemsize
    if w is not None and not stepwise:
        work += 4 * (q // s) * (m + 1) * dtype.itemsize
    if work > generators._CSR_BYTE_CAP:
        raise MemoryError(f"an action needs {work} bytes of workspace, over the cap of "
                          f"{generators._CSR_BYTE_CAP}")
    rows = np.empty((q + 1 if w is None else 1, n), dtype=dtype)
    rows[0] = b
    if w is not None:
        values = np.empty(q + 1, dtype=np.result_type(dtype, w.dtype))
        values[0] = w @ rows[0]
        wnorm = np.abs(w).sum()
    matvecs = 0
    if stepwise:
        for k in range(q):
            row, made = _taylor(a, rows[0 if w is not None else k], h, mu, m, s)
            matvecs += made
            if w is None:
                rows[k + 1] = row
            else:
                rows[0] = row
                values[k + 1] = w @ row
    else:
        d = q // s
        j = q // d
        terms = np.empty((m + 1, n), dtype=dtype)
        for i in range(j + 1):
            span = d if i < j else q - d * j
            if not span:
                break
            terms[0] = rows[i * d if w is None else 0]
            norms = [np.abs(terms[0]).max()]  # ||K[p]||_inf of the terms formed
            if w is None:
                for k in range(1, span + 1):
                    f, made = _point(a, terms, norms, k, m, h)
                    rows[k + i * d] = np.exp(k * h * mu) * f
                    matvecs += made
                continue
            f, made = _point(a, terms, norms, span, m, h)  # the end point first
            rows[0] = np.exp(span * h * mu) * f
            matvecs += made
            values[i * d + span] = w @ rows[0]
            inner, shown = _interior(terms, norms, span, h, mu, w, wnorm)
            for k in np.flatnonzero(~shown).tolist():
                f, made = _point(a, terms, norms, k + 1, m, h)
                inner[k] = w @ (np.exp((k + 1) * h * mu) * f)
                matvecs += made
            values[i * d + 1:i * d + span] = inner
    _held.tally(matvecs=matvecs)
    return rows if w is None else (values, rows[0])


def integrate_ode(generator, v0, tau_grid) -> list[np.ndarray]:
    """Solution exp((tau - tau_grid[0]) G) v0 of dv/dtau = G v, sampled on `tau_grid`.

    `generator` is a dense or scipy.sparse matrix.  The action of the
    exponential is Al-Mohy & Higham's interval algorithm (SIAM J. Sci. Comput.
    33, 488, 2011), as scipy's ``expm_multiply`` runs it and with its results,
    one interval per run of equal steps, evaluated at the run's evenly spaced
    points (:func:`_interval`); the shifted matrix is prepared once per call
    (:class:`_ActionPlan`).  A non-finite result raises NumericsError.
    """
    grid = _check_taus(tau_grid)
    plan = _ActionPlan(generator)
    states = [np.asarray(v0, dtype=complex)]
    if states[0].shape != plan.shifted.shape[1:]:
        raise ValueError(f"v0 must be a vector of length {plan.shifted.shape[1]}, "
                         f"got shape {states[0].shape}")
    for step, run in groupby(_grid_steps(grid, grid[0])[1:]):
        count = len(list(run))
        states.extend(_interval(plan, states[-1], plan.run(count * step, count))[1:])
    _check_finite(*states)
    return states


def _check_finite(*arrays) -> None:
    """Raise NumericsError unless every entry of `arrays` is finite."""
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise NumericsError("the exponential's action produced non-finite values")


def _block_labels(gen) -> np.ndarray:
    """Block of each coordinate of the CSR generator `gen`, numbered from 0: the
    connected components of its sparsity pattern.

    The pattern is read from the stored positions, never from the values, so
    every stored entry links its row and column whatever its phase.
    """
    import scipy.sparse as sp  # imported here: `import lindcorr` leaves scipy.sparse unloaded
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_array((np.ones(gen.nnz), gen.indices, gen.indptr), shape=gen.shape)
    return connected_components(pattern, directed=False)[1]


# a step applied once to a slice of which one block has more coordinates than
# this, within the budget, is one action instead of the slice's propagator:
# against the propagator and one product of a one-block level, the in-house
# action measured slower up to order 64, cold (a new plan and run) and warm
# (both held), about even at 81 and 100 and 1.4-7x faster from 144 to 256; on
# the qubit's and the dimer's slices of many blocks, one expm each, the warm
# action was faster already at a largest block of 6 to 70 (bench/crossover.py
# --single-use, BENCH_25.json)
_SINGLE_USE_ORDER = 49


# the largest unitality residual ||G_n vec(I)^(x)n||_inf over the bound on ||G_n||_1
# admitted; on the benchmarked levels and on random exact and local models of 3 to
# 8 levels and 1 to 3 slots at most 1.2e-16 was measured (BENCH_21.json)
_UNITAL_RTOL = 1e-13


def _unital(gen, action):
    """`gen`, the CSR generator of `action`, once it annihilates the identity on
    every slot within ``_UNITAL_RTOL`` of the bound on its 1-norm, read from the
    action's factors, so the check is one matrix-vector product; else NumericsError."""
    unit = reduce(np.multiply.outer, [np.eye(action.dim).ravel()] * action.slots).ravel()
    residual = float(np.abs(gen @ unit).max())
    bound = _UNITAL_RTOL * action._norm_bound()
    if not residual <= bound:
        raise NumericsError(f"the {action.slots}-slot generator is not unital: ||G vec(I)||_inf = "
                            f"{residual:.3e} exceeds the bound {bound:.3e} ({_UNITAL_RTOL:.0e} "
                            f"times a bound on ||G||_1)")
    return gen


class _SlotEvolver:
    """Propagation engine of one (hamiltonian, decomps) model, made for one call.

    Each level of n slots has its generator G_n as one CSR matrix and its block
    labels (the connected components of the generator's sparsity pattern).  The
    generator never couples two blocks, so a vector stays zero on the blocks
    where it is zero, and a call steps only the slice of the blocks it touches,
    its coordinates S grouped block by block, under G[S, S] (:meth:`_slice`).
    One routine, :meth:`trajectory`, carries a slot tensor or a dual vector
    along a grid: each run of equal steps by the slice's propagator
    exp(step G[S, S]), held per level, step and slice, or by one action.  The
    slot budget picks between the two run by run, so what a level holds serves
    any budget.  The engine keeps only its model and the model's key: every
    generator, block labels, slice, slice propagator, action plan, action run
    and stationary state is an entry of the held store under that key
    (``_held.find``), never changed once stored, and found again by every
    engine of an equal model.
    """

    def __init__(self, hamiltonian, decomps):
        self.h = as_operator(hamiltonian, "hamiltonian")
        self.decomps = _as_decomps(decomps)
        if self.decomps[0].dim != self.h.shape[0]:
            raise ValueError(
                f"decomposition dimension {self.decomps[0].dim} does not match "
                f"hamiltonian dimension {self.h.shape[0]}"
            )
        self.dim = self.h.shape[0]
        self.key = _model_key(self.h, self.decomps)

    def generator(self, n_slots: int):
        """G_n as a CSR matrix, summed from its slot-factor terms
        (``SlotKroneckerAction.to_csr``, its bytes checked before assembly), and
        checked once, when built, to be unital (:func:`_unital`)."""
        def build():
            action = multi_slot_action(self.h, self.decomps, n_slots)
            return _unital(action.to_csr(), action)
        return _held.find(self.key, "generator", n_slots, build)

    def labels(self, n_slots: int) -> np.ndarray:
        """The block of each coordinate of G_n (:func:`_block_labels`), found once per level."""
        return _held.find(self.key, "labels", n_slots,
                          lambda: _block_labels(self.generator(n_slots)))

    def _slice(self, n_slots: int, *vectors: np.ndarray) -> tuple:
        """The slice of the n-slot level that `vectors` are stepped on, as (key,
        coordinates, spans): the blocks where every one of `vectors` is nonzero,
        possibly none, keyed by their numbers as bytes; their coordinates, block
        after block in label order; and each block's (start, stop) among them.  The
        coordinates and spans are held per level and key, made from the labels by the
        first call on the slice.  When `vectors` touch every block and the level has
        one block or is above the budget, the level is stepped whole, as held: key
        and coordinates None, and one span."""
        labels = self.labels(n_slots)
        touched = np.ones(int(labels.max()) + 1, dtype=bool)
        for v in vectors:
            hit = np.zeros_like(touched)
            hit[labels[v != 0]] = True
            touched &= hit
        if touched.all() and (len(touched) == 1 or not _within_budget(len(labels))):
            return None, None, ((0, len(labels)),)
        key = np.flatnonzero(touched).tobytes()

        def build():
            coords = np.flatnonzero(touched[labels])
            coords = coords[np.argsort(labels[coords], kind="stable")]
            starts = np.flatnonzero(np.diff(labels[coords], prepend=-1)).tolist()
            return coords, tuple(zip(starts, [*starts[1:], len(coords)]))
        return key, *_held.find(self.key, "slice", (n_slots, key), build)

    def trajectory(self, v: np.ndarray, n_slots: int, taus: np.ndarray, origin: float = 0.0,
                   adjoint: bool = False, w: np.ndarray | None = None) -> Iterator:
        """`v` carried along an ascending grid from `origin`: exp((tau - origin) G_n) v,
        or the dual vector v @ exp((tau - origin) G_n) when `adjoint`.  Given a dual
        vector `w`, the values w @ v(tau) instead.

        Only the slice of blocks where `v`, and `w` if given, are nonzero is stepped
        (:meth:`_slice`), under G[S, S] with S its coordinates; each vector is
        scattered back to the level, and when the slice is empty every vector or
        value is exact zeros.  Each run of equal steps (steps that differ only by
        rounding are one step) is stepped by the slice's propagator exp(step
        G[S, S]), held per level, step and slice, when S has at most
        ``DEFAULT_SLOT_BUDGET`` coordinates and the run has more than one step or
        no block of S more than ``_SINGLE_USE_ORDER``; otherwise by one action
        (:func:`_interval`) on the held plan of G[S, S], or of its transpose when
        `adjoint`, one per level, slice and direction and looked up at most once
        per call, with the run's (m*, s) held per plan, run length and number of
        steps (:meth:`_ActionPlan.run`).  The propagator is block-diagonal, made of
        each block's exp(step G_b), and is that block's own when the slice has one.
        The choice reads the run alone, never what earlier calls held.  A warm call
        reads only its propagators, or its plan and runs, so the generator they were
        made from is idle unless the call uses it otherwise.  Given `w`, an action
        returns its values, forming no row between the interval ends.
        """
        key, coords, spans = self._slice(n_slots, v) if w is None else self._slice(n_slots, v, w)
        level = len(v)

        def full(u):
            """`u` on the whole level: as it is, or scattered from the slice."""
            if coords is None:
                return u
            out = np.zeros(level, dtype=complex)
            out[coords] = u
            return out

        if coords is not None:
            v, w = v[coords], None if w is None else w[coords]
            if not len(coords):
                for _tau in taus:
                    yield full(v) if w is None else 0j
                return
        order = spans[-1][1]
        restricted = cache(lambda: self.generator(n_slots) if coords is None  # G[S, S]
                           else self.generator(n_slots)[coords][:, coords])
        plan = cache(lambda: _held.find(self.key, "plan", (n_slots, key, adjoint), lambda: _ActionPlan(
            restricted().T if adjoint else restricted())))

        def propagator(gap):
            blocks = (expm(restricted()[start:stop, start:stop].toarray(), gap) for start, stop in spans)
            if len(spans) == 1:
                return next(blocks)
            prop = np.zeros((order, order), dtype=complex)
            for (start, stop), block in zip(spans, blocks):
                prop[start:stop, start:stop] = block
            return prop

        for step, run in groupby(_grid_steps(taus, origin)):
            count, gap = len(list(run)), float(step)
            if gap == 0.0:
                for _ in range(count):
                    yield full(v) if w is None else w @ v
            elif _within_budget(order) and (
                    count > 1 or max(stop - start for start, stop in spans) <= _SINGLE_USE_ORDER):
                prop = _held.find(self.key, "propagator", (n_slots, gap, key), lambda: propagator(gap))
                for _ in range(count):
                    v = v @ prop if adjoint else prop @ v
                    yield full(v) if w is None else w @ v
            else:
                t, act = count * gap, plan()
                run = _held.find(self.key, "run", (n_slots, key, adjoint, t, count),
                                 lambda: act.run(t, count))
                if w is None:
                    rows = _interval(act, v, run)
                    _check_finite(rows)
                    yield from map(full, rows[1:])
                    v = rows[-1]
                    continue
                (_start, *values), v = _interval(act, v, run, w)
                _check_finite(values, v)
                yield from values


def _model_key(h: np.ndarray, decomps) -> bytes:
    """Digest of what the generators read: H and every (rate, C) channel."""
    return _held.digest(h.shape, h, *(part for rate, c in dissipation_channels(decomps)
                                      for part in ((float(rate), c.shape), c)))


@contextmanager
def _model_evolver(hamiltonian, decomp) -> Iterator[_SlotEvolver]:
    """A new engine of the model, which finds the entries held under its key, in one
    call of the store (:func:`_held.engine_call`)."""
    ev = _SlotEvolver(hamiltonian, decomp)
    with _held.engine_call(ev.key):
        yield ev


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
    times = _check_times(times, "evolution time")
    rho0 = _check_density(rho0, "rho0")
    grid, where = np.unique(times, return_inverse=True)
    with _model_evolver(hamiltonian, decomp) as ev:
        if rho0.shape[0] != ev.dim:
            raise ValueError(f"state dimension {rho0.shape[0]} does not match generator dimension {ev.dim}")
        states = _densities(ev, rho0, grid)
    return [states[i] for i in where]


def evolve_density(hamiltonian, decomp, rho0, t: float) -> np.ndarray:
    """Forward evolution rho(t) of a density matrix under the dissipative generator.

    Runs on the engine of the model: vec(rho(t)^T) is vec(rho0^T) pulled
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


def _svd_null_vector(g: np.ndarray, null_tol: float, labels: np.ndarray) -> np.ndarray:
    """Left null vector of the dense generator `g`, by SVD, exactly zero outside
    its block (`labels` numbers the blocks of `g`).

    Raises DegenerateSteadyStateError unless exactly one singular value is at
    most null_tol times the largest.  A one-dimensional null space of a
    block-diagonal `g` lies in one block, the one holding the largest entry;
    the SVD leaves roundoff in the others, which is set to zero after the count.
    """
    u, s, _vh = np.linalg.svd(g)
    if s[0] == 0.0:
        raise DegenerateSteadyStateError(multiplicity=len(s))
    nullity = int(np.sum(s <= null_tol * s[0]))
    if nullity != 1:
        raise DegenerateSteadyStateError(multiplicity=nullity)
    w = u[:, -1].conj()
    w[labels != labels[np.argmax(np.abs(w))]] = 0.0
    return w


def _bordered_null_vector(g) -> tuple[np.ndarray, float]:
    """Left null vector w of the CSR generator `g` with vec(I) . w = 1, by sparse LU,
    and the 1-norm condition estimate of the system solved.

    The system is g^T w = 0 with its row 0 replaced by the trace functional
    vec(I)^T.  Unitality (g vec(I) = 0) makes row 0 a combination of the
    others, so the bordered matrix is nonsingular exactly when the null space
    is one-dimensional.  splu raises RuntimeError when it is exactly singular.
    """
    import scipy.sparse as sp  # imported here: only levels above the budget solve this way
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


def _stationary(ev: _SlotEvolver, null_tol: float) -> np.ndarray:
    """The trace-one stationary state of `ev`'s model (:func:`steady_state`)."""
    gen, kappa = ev.generator(1), np.inf
    if not _within_budget(ev.dim ** 2):
        try:
            w, kappa = _bordered_null_vector(gen)
        except RuntimeError:  # splu: the bordered matrix is exactly singular
            pass
    if not kappa <= _LU_MARGIN / null_tol:  # within the budget, refused, or a NaN estimate
        w = _svd_null_vector(gen.toarray(), null_tol, ev.labels(1))
    rho = unvec(w).T
    tr = complex(np.trace(rho))
    if abs(tr) < 1e-10 * np.linalg.norm(rho):
        raise NumericsError("steady-state candidate is traceless; cannot normalize")
    rho = rho / tr
    return 0.5 * (rho + rho.conj().T)


def steady_state(model: SystemModel, decomp=None, null_tol: float = 1e-9) -> np.ndarray:
    """Unique trace-one stationary state: the left null vector of G_1.

    The stationary rho satisfies trace(G_1[B] rho) = 0 for every B, so
    vec(rho^T) is the left null vector of the one-slot adjoint generator G_1,
    taken from the model's engine.  A level within the slot budget finds
    it by SVD; one above it by a sparse LU of G_1^T bordered with the trace
    functional, falling back to the SVD when the LU is singular or its
    condition estimate exceeds 0.1 / null_tol; an SVD null vector is set to
    exact zeros outside its block of G_1.  `null_tol` must lie strictly
    between 0 and 1.  The state is held, one per `null_tol` and side of the
    budget (so per solver), as an entry of the store of the model's engine;
    each call returns a copy.

    Raises DegenerateSteadyStateError when more or fewer than one singular
    value of G_1 is at most null_tol times the largest (e.g. any rate-free
    model), reporting that multiplicity.
    """
    null_tol = float(null_tol)
    if not 0.0 < null_tol < 1.0:  # also rejects NaN
        raise ValueError(f"null_tol must lie strictly between 0 and 1, got {null_tol}")
    decomps = decompose_model(model) if decomp is None else _as_decomps(decomp)
    with _model_evolver(model.hamiltonian, decomps) as ev:
        rho = _held.find(ev.key, "steady", (null_tol, _within_budget(ev.dim ** 2)),  # and its solver
                         lambda: _stationary(ev, null_tol))
    return rho.copy()


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
        values = list(ev.trajectory(elementary_tensor(b_ops), n, taus, w=w))
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
        (w,) = ev.trajectory(w, len(slots), np.array([t - prev]), adjoint=True)
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
            values = list(ev.trajectory(elementary_tensor(swept), len(swept), grid, floor, w=w))
        else:
            product = reduce(np.matmul, [op for op, _t in spec.insertions])
            eye = identity(ev.dim)
            w = contraction_functional([eye, eye], spec.initial_state)
            values = list(ev.trajectory(vec(product), 1, grid, w=w))
    if taus is None:
        return complex(values[0])
    return CorrelatorTrace(grid, values)
