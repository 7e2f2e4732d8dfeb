"""The held store: what lindcorr keeps across calls, one LRU counted in bytes.

The n-slot generators and their propagators depend only on the model (H and
the dissipation channels), not on the operators or the state, so the drivers
share them across calls.  Each call makes a new engine of its model, which
keeps nothing but the model and its key (a digest of H and the channels):
what the engine builds is held here, keyed by (owner, kind, key) with the
model key as owner, and found again by every later call on an equal model,
recognised by content rather than identity.  An engine's entries are, by
kind: a level's "generator" and its block "labels"; a "slice", the blocks of
a level that a call steps (their coordinates, grouped block by block, and
each block's span among them), held per level and set of blocks; keyed by
its slice (None for a level stepped whole), the slice's block-diagonal
"propagator" for one step, its action "plan" for one direction and each
"run" of steps on a plan (its Taylor degree, step count and way of
stepping); and the "steady" state for one null tolerance and solver.  The
exact decompositions of a model's couplings
(``decomposition.decompose_model``) are one more entry, owned by a digest of
what they are made from: H, the coupling operators and their baths, and
keyed by the frequency tolerance.

An entry never changes once :func:`find` stores it: what a later call adds
(the propagator of another slice at a step already used, a new step length
on a held plan, the first slice of a level stepped whole before) is an entry
of its own.  So each entry's bytes are counted once, when it is stored, and
the count of bytes held is exact without measuring any entry again.

Entries are idle at the start of an engine's call if they are another
owner's (a decomposition among them), at its end if the call did not use
them (:func:`engine_call`), and idle entries are dropped, least recently used
first, while they hold more than ``IDLE_BYTE_CAP`` bytes; a new decomposition
also drops idle decompositions over the cap (:func:`find`).  So another
model's entries beyond the cap are released before a call builds anything,
and between calls the store holds at most the cap plus the last call's own
working set (the propagator of one slice and step holds at most
``DEFAULT_SLOT_BUDGET ** 2`` entries, since a slice above the budget is
never given one).  What it holds changes the time of a later call, never its
path or its values: a repeated call returns the same bytes.

This module is the only code that knows an entry's layout, its tick and byte
bookkeeping and the eviction rules.  It imports no other lindcorr module.
"""

import hashlib
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from itertools import count
from typing import Iterator

import numpy as np

# idle entries are dropped, least recently used first, while they hold more
# than this many bytes: 32 order-256 propagators
IDLE_BYTE_CAP = 32 * 2 ** 20

# (owner, kind, key) -> (value, tick of its last use, bytes) of every held
# entry, least recently used first
_store: dict[tuple, tuple] = {}
_ticks = count()
# lookups that found their entry, lookups that built it, entries dropped, bytes
# held, and the actions' matrix-vector products and 1-norm estimates (read by
# bench/repeats.py)
counts = Counter(hits=0, misses=0, evictions=0, bytes=0, matvecs=0, norm_estimates=0)
_lock = threading.Lock()  # guards the store and the counts


def digest(*parts) -> bytes:
    """SHA-256 of `parts` in order: an array's bytes, any other part's repr."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return sha.digest()


def tally(**amounts: int) -> None:
    """Add `amounts` to the counts."""
    with _lock:
        counts.update(amounts)


def nbytes(m) -> int:
    """Bytes of an array, a sparse matrix (data, indices and indptr), an object that
    counts its own (``_nbytes()``), a tuple of them, or a tuple of Python numbers:
    sys.getsizeof of the tuple and of each number."""
    if isinstance(m, tuple):
        if m and all(isinstance(part, (int, float)) for part in m):
            return sys.getsizeof(m) + sum(map(sys.getsizeof, m))
        return sum(map(nbytes, m))
    if hasattr(m, "_nbytes"):
        return m._nbytes()
    return sum(part.nbytes for part in ((m.data, m.indices, m.indptr) if hasattr(m, "indptr") else (m,)))


def find(owner, kind: str, key, build, *, kind_idle: bool = False):
    """The value held under (`owner`, `kind`, `key`), built by `build()` on a miss and
    counted in bytes, once: a held value is never changed.  From then on it is the
    most recently used entry of the store.  A value another thread stored meanwhile
    is kept.  With `kind_idle`, the other entries of its kind are idle: they are then
    dropped over the cap (:func:`_evict`)."""
    entry = (owner, kind, key)
    found = _store.get(entry)
    value = build() if found is None else found[0]
    with _lock:
        record = _store.pop(entry, None)  # read again: built or dropped meanwhile
        if record is None:
            record = (value, None, nbytes(value))
            counts["bytes"] += record[2]
        _store[entry] = (record[0], next(_ticks), record[2])
        counts["misses" if found is None else "hits"] += 1
        if kind_idle:
            _evict(lambda other, _tick: other[1] == kind and other != entry)
    return record[0]


def _evict(is_idle) -> None:
    """Drop idle entries, those whose ((owner, kind, key), tick of last use) `is_idle`
    accepts, least recently used first while they hold more than ``IDLE_BYTE_CAP``
    bytes.  The caller holds `_lock`."""
    if counts["bytes"] <= IDLE_BYTE_CAP:
        return
    idle = [(entry, size) for entry, (_value, tick, size) in _store.items()
            if is_idle(entry, tick)]
    excess = sum(size for _entry, size in idle) - IDLE_BYTE_CAP
    for entry, size in idle:
        if excess <= 0:
            break
        del _store[entry]
        excess -= size
        counts["bytes"] -= size
        counts["evictions"] += 1


@contextmanager
def engine_call(owner) -> Iterator[None]:
    """One call of an engine of `owner`.

    Idle entries are dropped (:func:`_evict`) at both ends of the call: before
    anything is built, the other owners' entries; on exit, also after an
    exception, the entries the call did not use.  No entry is measured again:
    each was counted when it was stored.
    """
    with _lock:
        _evict(lambda entry, _tick: entry[0] != owner)
        start = next(_ticks)
    try:
        yield
    finally:
        with _lock:
            _evict(lambda _entry, tick: tick < start)


def drop_all() -> None:
    """Drop every held entry, the decompositions too."""
    with _lock:
        _store.clear()
        counts["bytes"] = 0


def snapshot() -> tuple[list[tuple], dict]:
    """Every held entry as (owner, kind, key, value, bytes recorded), least recently
    used first, and a copy of the counts, read together under the lock."""
    with _lock:
        return ([(*entry, value, size) for entry, (value, _tick, size) in _store.items()],
                dict(counts))
