"""The marking-based resolution kernel — every checker's hot path.

The reference implementation (:mod:`repro.checker.resolution`) computes a
resolution chain by folding ``frozenset`` unions: each step rebuilds an
intermediate resolvent, so validating one learned clause costs O(n²) in the
total number of literals. The kernel does the whole chain in O(total
literals), marking the accumulator instead of materializing intermediates:

* The accumulator is one mutable mark set of the literals derived so far.
  A kernel clause (:class:`FrozenClause`) *is* the frozenset of its
  literals and carries the frozenset of their negations in one slot, so
  each source clause is validated with exact one-clash semantics in three
  C-speed set operations: intersecting the accumulator with the source's
  negation set yields the accumulator-side clash literals (exactly the
  oracle's clash set), then the accumulator absorbs the source itself —
  reusing the hashes frozen with it — and drops the pivot pair. No
  per-literal Python bytecode runs on the chain hot path.
* Zero or multiple clashes raise
  :class:`~repro.checker.resolution.ResolutionError` with the same
  ``BAD_RESOLUTION`` semantics as the oracle, plus the chain position and
  the learned clause being derived.
* The final resolvent is emitted once, by freezing the accumulator. Kernel
  clauses are not shared by content: checkers retire them by clause ID
  and last use, so the kernel only counts how many are live (the
  ``peak_unique_clauses`` memory statistic).
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

ClauseLits = Iterable[int]


class FrozenClause(frozenset):
    """A kernel clause: the frozenset of its literals, plus their negations.

    ``negset`` is computed once, when the clause is frozen; the chain loop
    clash-scans it and absorbs the clause itself, so both set operations
    reuse hashes computed at freeze time. The slot survives pickling, so a
    clause that crossed a process boundary still takes the set path.
    """

    __slots__ = ("negset",)
    negset: frozenset

    def __reduce__(self):
        # Python 3.10's frozenset reduce drops slot state; carry it here.
        return (FrozenClause, (list(self),), (None, {"negset": self.negset}))


class ResolutionKernel:
    """Marking-based resolution over :class:`FrozenClause` clauses.

    One instance per checker: the live-clause count (and single-step
    :meth:`resolve`'s flat mark buffer) span every chain the checker
    validates.
    """

    __slots__ = ("live", "peak_live", "_marks", "_cap", "_gen")

    def __init__(self, num_vars: int = 0):
        # Kernel clauses frozen and not yet released, and the high-water
        # mark of that count.
        self.live = 0
        self.peak_live = 0
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
        """Largest variable in a clause; O(1) for :meth:`resolve`'s sorted arrays."""
        if isinstance(clause, array):
            if not clause:
                return 0
            lo, hi = clause[0], clause[-1]
            return hi if hi > -lo else -lo
        return max(map(abs, clause), default=0)

    def freeze(self, literals: ClauseLits) -> FrozenClause:
        """Freeze literals into a live kernel clause (duplicates collapse)."""
        clause = FrozenClause(literals)
        clause.negset = frozenset(map(_neg, clause))
        self.live = live = self.live + 1
        if live > self.peak_live:
            self.peak_live = live
        return clause

    # -- the chain kernel -----------------------------------------------------

    def resolve_chain(
        self,
        learned_cid: int | None,
        sources: Sequence[int],
        get_clause: Callable[[int], ClauseLits],
    ) -> FrozenClause:
        """Validate one learned clause's whole derivation in O(total literals).

        ``sources`` are clause IDs in resolution order; ``get_clause``
        materializes each one as a :class:`FrozenClause` or any re-iterable
        collection of literals (and may raise :class:`CheckFailure` for
        unknown IDs — it is called lazily, step by step, exactly like the
        reference fold). Returns the frozen resolvent. Raises
        :class:`ResolutionError` carrying ``learned_cid``, the 1-based
        ``chain_position`` of the offending source, its ``cid_b`` and the
        ``clashing_vars`` — the same diagnostics as the fixed
        :func:`~repro.checker.resolution.resolve_chain`.
        """
        if not sources:
            raise ResolutionError("empty resolution chain", learned_cid=learned_cid)
        acc = set(get_clause(sources[0]))
        clash_scan = acc.intersection
        absorb = acc.update
        drop = acc.discard
        frozen = FrozenClause
        for position in range(1, len(sources)):
            source = sources[position]
            clause = get_clause(source)
            # A kernel clause keeps every step in C: intersecting the
            # accumulator with its negation set yields exactly the
            # accumulator-side clash literals (same set the oracle
            # computes), and absorbing the clause reuses its frozen hashes.
            # Plain clauses — the original-clause tuples the streaming
            # checker reads straight from the formula — take the same two
            # set operations over their literals, with no sets built and
            # no exception raised: same semantics, including duplicate
            # literals and tautological inputs, since the clash set and
            # the accumulator are sets.
            if type(clause) is frozen:
                clashing = clash_scan(clause.negset)
            else:
                clashing = clash_scan(map(_neg, clause))
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
            absorb(clause)
            # Drop both phases of the pivot variable: ``pivot_neg`` is the
            # accumulator side, its negation the side the source brought in.
            drop(pivot_neg)
            drop(-pivot_neg)
        return self.freeze(acc)

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
        they are not frozen or counted).
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
    """Set-algebra chain resolution over :class:`FrozenClause` (the default)."""

    name = "kernel"

    def __init__(self, formula):
        super().__init__(formula)
        num_vars = formula.num_vars if formula is not None else 0
        self.kernel = ResolutionKernel(num_vars=num_vars)

    def materialize(self, literals: ClauseLits) -> FrozenClause:
        return self.kernel.freeze(literals)

    def chain(self, learned_cid, sources, get_clause) -> FrozenClause:
        return self.kernel.resolve_chain(learned_cid, sources, get_clause)

    def resolve(self, clause_a, clause_b, cid_a=None, cid_b=None) -> array:
        return self.kernel.resolve(clause_a, clause_b, cid_a=cid_a, cid_b=cid_b)

    def release(self, clause) -> None:
        """Forget one live kernel clause; anything else is a no-op."""
        if type(clause) is FrozenClause:
            self.kernel.live -= 1


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

    Always carries the logical-unit peak (when a meter is given); the
    kernel engine adds ``peak_unique_clauses``, the peak count of live
    kernel clauses, which is what makes a constant-memory claim observable
    from the outside. The reference engine reports units only.
    """
    stats: dict = {}
    if meter is not None:
        stats["peak_units"] = meter.peak
    if isinstance(engine, KernelEngine):
        stats["peak_unique_clauses"] = engine.kernel.peak_live
    return stats


def make_engine(use_kernel: bool, formula) -> KernelEngine | ReferenceEngine:
    """The engine every checker constructs from its ``use_kernel`` flag."""
    return KernelEngine(formula) if use_kernel else ReferenceEngine(formula)
