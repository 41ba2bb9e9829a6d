"""The marking-based resolution kernel — every checker's hot path.

The reference implementation (:mod:`repro.checker.resolution`) computes a
resolution chain by folding ``frozenset`` unions: each step rebuilds an
intermediate resolvent, so validating one learned clause costs O(n²) in the
total number of literals. The kernel does the whole chain in O(total
literals), marking the accumulator instead of materializing intermediates:

* The accumulator is one mutable mark set of the literals derived so far.
  Every interned clause carries frozen ``litset``/``negset`` mark sets
  (:class:`~repro.checker.store.InternedClause`), so each source clause is
  validated with exact one-clash semantics in three C-speed set
  operations: intersecting the accumulator with the source's negation set
  yields the accumulator-side clash literals (exactly the oracle's clash
  set), then the accumulator absorbs the source's literal set — reusing
  the hashes frozen at intern time — and drops the pivot pair. No
  per-literal Python bytecode runs on the chain hot path.
* Zero or multiple clashes raise
  :class:`~repro.checker.resolution.ResolutionError` with the same
  ``BAD_RESOLUTION`` semantics as the oracle, plus the chain position and
  the learned clause being derived.
* The final resolvent is emitted once, as a sorted ``array('i')`` interned
  in a :class:`~repro.checker.store.ClauseStore`.
* Single-step :meth:`ResolutionKernel.resolve` (the final level-zero
  derivation's workhorse) keeps a reusable generation-stamped flat mark
  buffer: one slot per literal, cleared in O(1) by bumping the generation.

The frozenset ``resolve()``/``resolve_chain()`` remain the reference oracle
the kernel is property-tested against (``tests/checker/test_kernel.py``);
every checker accepts ``use_kernel=False`` to run on the oracle instead.
"""

from __future__ import annotations

from array import array
from operator import neg as _neg
from typing import Callable, Iterable, Sequence

from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.resolution import ResolutionError, resolve
from repro.checker.store import ClauseStore, InternedClause

ClauseLits = Iterable[int]


class ResolutionKernel:
    """Marking-based resolution over interned clauses.

    One instance per checker: the clause store (and single-step
    :meth:`resolve`'s flat mark buffer) are reused across every chain the
    checker validates.
    """

    __slots__ = ("store", "_marks", "_cap", "_gen")

    def __init__(self, num_vars: int = 0, store: ClauseStore | None = None):
        self.store = store if store is not None else ClauseStore()
        # literal -> generation stamp, indexed *directly* by the literal:
        # positive literals live at marks[lit], negative ones wrap around
        # to the tail via Python's negative indexing (marks[-v] is slot
        # len-v). With len == 2*cap + 2 the two ranges never overlap, both
        # phases of a variable get their own slot (tautological inputs
        # keep the exact frozenset-oracle semantics), and the hot loops
        # need no index arithmetic at all.
        self._cap = num_vars
        self._marks: list[int] = [0] * (2 * num_vars + 2)
        self._gen = 0

    def _grow(self, num_vars: int) -> None:
        """Re-seat the mark buffer for a larger variable range.

        Mid-chain stamps must survive, and negative literals are indexed
        from the tail, so both halves are copied into place.
        """
        old = self._marks
        old_cap = self._cap
        new = [0] * (2 * num_vars + 2)
        new[1 : old_cap + 1] = old[1 : old_cap + 1]
        if old_cap:
            new[-old_cap:] = old[-old_cap:]
        self._cap = num_vars
        self._marks = new

    def _max_var(self, clause: ClauseLits) -> int:
        """Largest variable in a clause; O(1) for the store's sorted arrays."""
        if isinstance(clause, array):
            if not clause:
                return 0
            lo, hi = clause[0], clause[-1]
            return hi if hi > -lo else -lo
        return max(map(abs, clause), default=0)

    def intern(self, literals: ClauseLits) -> array:
        """Intern a clause (used for original clauses from the formula)."""
        return self.store.intern(literals)

    # -- the chain kernel -----------------------------------------------------

    def resolve_chain(
        self,
        learned_cid: int | None,
        sources: Sequence[int],
        get_clause: Callable[[int], ClauseLits],
    ) -> array:
        """Validate one learned clause's whole derivation in O(total literals).

        ``sources`` are clause IDs in resolution order; ``get_clause``
        materializes each one (and may raise :class:`CheckFailure` for
        unknown IDs — it is called lazily, step by step, exactly like the
        reference fold). Returns the interned resolvent. Raises
        :class:`ResolutionError` carrying ``learned_cid``, the 1-based
        ``chain_position`` of the offending source, its ``cid_b`` and the
        ``clashing_vars`` — the same diagnostics as the fixed
        :func:`~repro.checker.resolution.resolve_chain`.
        """
        if not sources:
            raise ResolutionError("empty resolution chain", learned_cid=learned_cid)
        first = get_clause(sources[0])
        try:
            acc = set(first.litset)
        except AttributeError:
            acc = set(first)
        clash_scan = acc.intersection
        absorb = acc.update
        drop = acc.discard
        for position in range(1, len(sources)):
            source = sources[position]
            clause = get_clause(source)
            # The cached mark sets keep every step in C: intersecting the
            # accumulator with the source's negation set yields exactly the
            # accumulator-side clash literals (same set the oracle
            # computes), and absorbing the literal set reuses the hashes
            # frozen at intern time. Clauses of unknown provenance (plain
            # iterables, or interned clauses that crossed a process
            # boundary) get their sets rebuilt here — same semantics,
            # including duplicate literals and tautological inputs, since
            # set membership gives every literal its own mark.
            try:
                neg_b = clause.negset
                lit_b = clause.litset
            except AttributeError:
                lit_b = frozenset(clause)
                neg_b = frozenset(map(_neg, lit_b))
            clashing = clash_scan(neg_b)
            if len(clashing) != 1:
                raise ResolutionError(
                    "resolution requires exactly one clashing variable, "
                    f"found {len(clashing)}",
                    learned_cid=learned_cid,
                    chain_position=position,
                    cid_b=source,
                    clashing_vars=sorted(abs(lit) for lit in clashing),
                )
            (pivot_neg,) = clashing
            absorb(lit_b)
            # Drop both phases of the pivot variable: ``pivot_neg`` is the
            # accumulator side, its negation the side the source brought in.
            drop(pivot_neg)
            drop(-pivot_neg)
        return self.store.intern_sorted(
            InternedClause("i", sorted(acc)), litset=frozenset(acc)
        )

    # -- the single-step kernel ------------------------------------------------

    def resolve(
        self,
        clause_a: ClauseLits,
        clause_b: ClauseLits,
        cid_a: int | None = None,
        cid_b: int | None = None,
    ) -> array:
        """One marking-based resolution step (the paper's ``resolve()``).

        Same contract and error context as the frozenset oracle
        :func:`~repro.checker.resolution.resolve`; returns a plain sorted
        ``array('i')`` (final-derivation intermediates are transient, so
        they are not interned).
        """
        self._gen = gen = self._gen + 1
        high = self._max_var(clause_a)
        high_b = self._max_var(clause_b)
        if high_b > high:
            high = high_b
        if high > self._cap:
            self._grow(high)
        marks = self._marks
        trail: list[int] = []
        for lit in clause_a:
            if marks[lit] != gen:
                marks[lit] = gen
                trail.append(lit)
        # Distinct literals only — the oracle resolves frozensets, so a
        # duplicated literal in the input must not double-count a clash.
        clashing = {lit for lit in clause_b if marks[-lit] == gen}
        if len(clashing) != 1:
            raise ResolutionError(
                "resolution requires exactly one clashing variable, "
                f"found {len(clashing)}",
                cid_a=cid_a,
                cid_b=cid_b,
                clashing_vars=sorted(abs(lit) for lit in clashing),
            )
        (pivot,) = clashing
        neg_pivot = -pivot
        marks[pivot] = 0
        marks[neg_pivot] = 0
        for lit in clause_b:
            if lit != pivot and lit != neg_pivot and marks[lit] != gen:
                marks[lit] = gen
                trail.append(lit)
        out = []
        for lit in trail:
            if marks[lit] == gen:
                marks[lit] = 0
                out.append(lit)
        out.sort()
        return array("i", out)


# -- checker-facing engines ------------------------------------------------------
#
# The checkers talk to resolution through this small strategy interface so
# the kernel and the frozenset oracle stay swappable (``use_kernel=...``).


class _EngineBase:
    """Shared original-clause materialization (cached, with diagnostics)."""

    def __init__(self, formula):
        self.formula = formula
        self._originals: dict[int, ClauseLits] = {}

    def original(self, cid: int) -> ClauseLits:
        clause = self._originals.get(cid)
        if clause is None:
            try:
                literals = self.formula[cid].literals
            except KeyError:
                raise CheckFailure(
                    FailureKind.UNKNOWN_CLAUSE,
                    "trace references an original clause absent from the formula",
                    cid=cid,
                ) from None
            clause = self.materialize(literals)
            self._originals[cid] = clause
        return clause


class KernelEngine(_EngineBase):
    """Marking-array resolution over the interned clause store (the default)."""

    name = "kernel"

    def __init__(self, formula, store: ClauseStore | None = None):
        super().__init__(formula)
        num_vars = formula.num_vars if formula is not None else 0
        self.kernel = ResolutionKernel(num_vars=num_vars, store=store)
        self.store = self.kernel.store

    def materialize(self, literals: ClauseLits) -> array:
        return self.kernel.intern(literals)

    def chain(self, learned_cid, sources, get_clause) -> array:
        return self.kernel.resolve_chain(learned_cid, sources, get_clause)

    def resolve(self, clause_a, clause_b, cid_a=None, cid_b=None) -> array:
        return self.kernel.resolve(clause_a, clause_b, cid_a=cid_a, cid_b=cid_b)

    def release(self, clause) -> None:
        self.store.release(clause)


class ReferenceEngine(_EngineBase):
    """The paper's frozenset fold — kept as the property-tested oracle."""

    name = "reference"

    def materialize(self, literals: ClauseLits) -> frozenset:
        return frozenset(literals)

    def chain(self, learned_cid, sources, get_clause) -> frozenset:
        if not sources:
            raise ResolutionError("empty resolution chain", learned_cid=learned_cid)
        acc = get_clause(sources[0])
        if not isinstance(acc, frozenset):
            acc = frozenset(acc)
        for position in range(1, len(sources)):
            source = sources[position]
            clause = get_clause(source)
            try:
                acc = resolve(acc, frozenset(clause))
            except ResolutionError as exc:
                raise ResolutionError(
                    exc.message,
                    learned_cid=learned_cid,
                    chain_position=position,
                    cid_b=source,
                    clashing_vars=exc.context.get("clashing_vars"),
                ) from None
        return acc

    def resolve(self, clause_a, clause_b, cid_a=None, cid_b=None) -> frozenset:
        if not isinstance(clause_a, frozenset):
            clause_a = frozenset(clause_a)
        return resolve(clause_a, frozenset(clause_b), cid_a=cid_a, cid_b=cid_b)

    def release(self, clause) -> None:
        return None


def engine_memory_stats(engine, meter=None) -> dict:
    """Resident-memory high-water marks for a checker's final report.

    Always carries the logical-unit peak (when a meter is given); engines
    backed by a :class:`~repro.checker.store.ClauseStore` add the store's
    O(1)-maintained peaks — peak unique interned clauses and peak measured
    bytes — which is what makes a constant-memory claim observable from
    the outside. The reference engine (plain frozensets, nothing interned)
    reports units only.
    """
    stats: dict = {}
    if meter is not None:
        stats["peak_units"] = meter.peak
    store = getattr(engine, "store", None)
    if store is not None:
        stats["peak_unique_clauses"] = store.peak_unique_clauses
        stats["peak_store_bytes"] = store.peak_bytes
        stats["resident_store_bytes"] = store.resident_bytes
    return stats


# Optional warm-store provider: a callable mapping a formula to a ClauseStore
# to seed the kernel with, or None. Long-lived checking workers install one so
# repeat checks of the same formula reuse already-interned clause buffers
# (interning is content-addressed, so sharing a store across checks of the
# same formula is verdict-neutral — it only skips re-interning work).
_WARM_STORE_PROVIDER = None


def set_warm_store_provider(provider) -> None:
    """Install (or clear, with ``None``) the process-wide warm-store hook."""
    global _WARM_STORE_PROVIDER
    _WARM_STORE_PROVIDER = provider


def make_engine(use_kernel: bool, formula) -> KernelEngine | ReferenceEngine:
    """The engine every checker constructs from its ``use_kernel`` flag."""
    if not use_kernel:
        return ReferenceEngine(formula)
    store = _WARM_STORE_PROVIDER(formula) if _WARM_STORE_PROVIDER is not None else None
    return KernelEngine(formula, store=store)
