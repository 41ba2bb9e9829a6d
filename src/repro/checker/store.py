"""Interned clause storage for the resolution kernel.

Every clause a checker holds resident — original clauses materialized from
the formula and learned resolvents emitted by the kernel — is interned
here as a sorted, deduplicated ``array('i')`` of DIMACS literals. Identical
clauses share one buffer regardless of how many clause IDs point at them
(SAT traces are full of re-derived duplicates), and the store reports the
*real* memory those buffers occupy (:func:`repro.checker.memory.real_bytes`)
alongside the checkers' platform-independent logical units.

Entries are reference counted so the breadth-first checker's
delete-on-last-use discipline keeps real memory bounded: interning bumps
the count, :meth:`ClauseStore.release` drops it, and the buffer is evicted
when the last holder lets go.
"""

from __future__ import annotations

from array import array
from operator import neg as _neg
from typing import Iterable

from repro.checker.memory import real_bytes


class InternedClause(array):
    """A store-owned clause buffer: a sorted ``array('i')`` plus mark sets.

    ``litset``/``negset`` are frozensets of the clause's literals and their
    negations, computed once at intern time. The kernel's chain loop runs
    entirely on them: set-to-set operations reuse the cached element hashes
    (and skip re-boxing the array's raw ints), which is what makes the
    chain O(total literals) with no per-literal Python bytecode. Both are
    derived data and do not cross a pickle: a copy from another process
    comes back with both set to ``None``, and the kernel resolves it like
    any plain clause.
    """

    __slots__ = ("litset", "negset")
    litset: frozenset | None
    negset: frozenset | None

    def __reduce_ex__(self, protocol):
        return (_unpickled_clause, (self.tolist(),))


def _unpickled_clause(literals: list[int]) -> InternedClause:
    clause = InternedClause("i", literals)
    clause.litset = clause.negset = None
    return clause


def _attach_marksets(clause: InternedClause, litset: frozenset | None = None) -> None:
    # Freezing an existing set (the kernel hands its accumulator over)
    # copies cached hashes instead of re-boxing the array's raw ints.
    clause.litset = frozenset(clause) if litset is None else litset
    clause.negset = frozenset(map(_neg, clause.litset))


def _entry_bytes(key: bytes, clause: InternedClause) -> int:
    """Measured bytes one interned entry pins: buffer, mark sets, index key."""
    return (
        real_bytes(clause)
        + real_bytes(clause.litset)
        + real_bytes(clause.negset)
        + len(key)
    )


class ClauseStore:
    """Deduplicating, reference-counted store of sorted ``array('i')`` clauses."""

    __slots__ = (
        "_entries",
        "_refs",
        "hits",
        "misses",
        "resident_bytes",
        "peak_bytes",
        "peak_unique_clauses",
    )

    def __init__(self) -> None:
        self._entries: dict[bytes, InternedClause] = {}
        self._refs: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0
        # High-water marks, maintained O(1) at intern/evict time so any
        # checker can report its peak residency without a store sweep.
        self.resident_bytes = 0
        self.peak_bytes = 0
        self.peak_unique_clauses = 0

    def intern(self, literals: Iterable[int]) -> array:
        """Intern an arbitrary iterable of literals (deduplicated, sorted)."""
        return self.intern_sorted(array("i", sorted(set(literals))))

    def intern_sorted(self, clause: array, litset: frozenset | None = None) -> array:
        """Intern an already-sorted, duplicate-free ``array('i')``.

        Returns the shared buffer (an :class:`InternedClause` copy on
        first sight) and takes one reference on it. ``litset``, when the
        caller already holds the clause's literals as a set, seeds the
        cached mark sets without another pass over the buffer.
        """
        key = clause.tobytes()
        found = self._entries.get(key)
        if found is not None:
            self.hits += 1
            self._refs[key] += 1
            return found
        self.misses += 1
        if type(clause) is not InternedClause:
            clause = InternedClause("i", clause)
        _attach_marksets(clause, litset)
        self._entries[key] = clause
        self._refs[key] = 1
        self.resident_bytes += _entry_bytes(key, clause)
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes
        if len(self._entries) > self.peak_unique_clauses:
            self.peak_unique_clauses = len(self._entries)
        return clause

    def release(self, clause: array | Iterable[int]) -> None:
        """Drop one reference; the buffer is evicted when none remain.

        Releasing a clause the store does not hold is a no-op, so checkers
        running with the frozenset reference engine can share the same
        call sites.
        """
        if not isinstance(clause, array):
            return
        key = clause.tobytes()
        refs = self._refs.get(key)
        if refs is None:
            return
        if refs <= 1:
            del self._refs[key]
            evicted = self._entries.pop(key)
            self.resident_bytes -= _entry_bytes(key, evicted)
        else:
            self._refs[key] = refs - 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, clause: array) -> bool:
        return isinstance(clause, array) and clause.tobytes() in self._entries

    @property
    def resident_references(self) -> int:
        """Total outstanding references across all interned clauses."""
        return sum(self._refs.values())

    def memory_bytes(self) -> int:
        """Measured bytes held by the interned buffers, their cached mark
        sets, and the index keys."""
        return sum(
            _entry_bytes(key, clause) for key, clause in self._entries.items()
        )

    def stats(self) -> dict:
        """Machine-readable interning statistics for reports and benchmarks."""
        return {
            "unique_clauses": len(self._entries),
            "resident_references": self.resident_references,
            "hits": self.hits,
            "misses": self.misses,
            "memory_bytes": self.memory_bytes(),
            "peak_unique_clauses": self.peak_unique_clauses,
            "peak_memory_bytes": self.peak_bytes,
        }
