"""Two-watched-literal unit propagation for the RUP and DRAT checkers.

Deliberately independent from the solver's BCP: a checker that shares the
propagation code with the solver it validates would inherit its bugs.
This engine has no trail that outlives a call, no decision levels and no
clause learning — only "assert these literals, propagate, report whether
some clause is falsified" — so it stays small enough to audit against the
occurrence-scan reference it replaced (kept in the tests for differential
checking).

Each clause of two or more literals watches its first two positions; a
visit reorders the literals so the watched pair stays in front.
Propagating a falsified literal visits only the clauses watching it, as in
drat-trim: a clause whose other watch is true is skipped, otherwise a
non-false replacement is swapped in, and only a clause with none left is
unit or conflicting. Everything is unassigned when a call starts, so any
two literals are valid watches and nothing needs undoing between calls.
Removed clauses are tombstoned in :attr:`UnitPropagator.clauses`; their
watch entries are dropped when propagation next meets them.

Propagation is depth-first: a stack, not a FIFO queue. The assumptions
go on in the order given, the first on top and the database's unit
clauses beneath them, and each newly implied literal is processed next,
before the remaining assumptions. A conflict
does not depend on the order literals are processed in, but the work to
reach it does: the clausal checkers pass a lemma's literals in proof
order, solvers write the asserting literal first, so the search starts
where the solver's own conflict did and follows its implications before
scanning the other assumptions' watch lists.

The assignment is a generation-stamp buffer indexed directly by literal,
in the resolution kernel's layout (negative literals index from the tail),
so the hot loop does no ``abs()``; bumping the generation resets it.

:meth:`UnitPropagator.propagate_tracked` collects the conflict's cone by
one backward walk of the trail: the reasons map, filled in assignment
order, is the trail of implied literals, and a second literal-indexed
stamp buffer marks the true literals the cone needs. Assignment order is
topological, so one reverse pass takes every reason the conflict uses.
Which reasons those are depends on propagation order.

The literal-occurrence index only the RAT check reads is built on the
first :meth:`UnitPropagator.occurrences` call; until then adding a clause
does not maintain it, so DRUP proofs never pay for it.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class UnitPropagator:
    """Propagates unit clauses over a growable clause set.

    Clauses are added with :meth:`add_clause`; :meth:`propagate` runs unit
    propagation from a set of assumption literals and reports whether a
    conflict (some clause with all literals false) was reached.
    """

    def __init__(self, num_vars: int):
        self.num_vars = 0
        #: Clause literals by index (duplicates dropped, watched pair first);
        #: ``None`` once removed. Indices are never reused.
        self.clauses: list[list[int] | None] = []
        # The buffers are indexed by literal: +v at [v], -v at [-v], which
        # is slot len - v. With len == 2 * num_vars + 2 the halves never meet.
        self._watches: list[list[int]] = [[], []]
        self._stamps: list[int] = [0, 0]
        self._seen: list[int] = [0, 0]  # cone marks, stamped like _stamps
        self._gen = 0
        self._units: set[int] = set()
        self._empty: set[int] = set()
        # Built by the first occurrences() call, maintained from then on.
        self._occurrences: dict[int, list[int]] | None = None
        self.grow(num_vars)

    def grow(self, num_vars: int) -> None:
        """Make room for variables up to ``num_vars``."""
        cap = self.num_vars
        if num_vars <= cap:
            return
        watches: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]
        watches[1 : cap + 1] = self._watches[1 : cap + 1]
        if cap:
            watches[-cap:] = self._watches[-cap:]
        self._watches = watches
        # Stamps only matter within one call, and no call grows mid-way.
        self._stamps = [0] * (2 * num_vars + 2)
        self._seen = [0] * (2 * num_vars + 2)
        self.num_vars = num_vars

    def add_clause(self, literals: Sequence[int]) -> int:
        """Add a clause; returns its index."""
        clause = list(dict.fromkeys(literals))
        index = len(self.clauses)
        self.clauses.append(clause)
        if clause:
            top = max(max(clause), -min(clause))
            if top > self.num_vars:
                self.grow(top)
        if len(clause) > 1:
            self._watches[clause[0]].append(index)
            self._watches[clause[1]].append(index)
        elif clause:
            self._units.add(index)
        else:
            self._empty.add(index)
        occurrences = self._occurrences
        if occurrences is not None:
            for lit in clause:
                occurrences.setdefault(lit, []).append(index)
        return index

    def occurrences(self, lit: int) -> Sequence[int]:
        """Indices of live clauses containing ``lit``, in index order.

        The RAT check enumerates resolution partners through this index.
        The first call builds it from the live clauses. Removal leaves its
        entries behind; they are purged here, as the index is read.
        Callers that remove clauses while iterating should still skip
        ``None`` slots in :attr:`clauses`.
        """
        clauses = self.clauses
        occurrences = self._occurrences
        if occurrences is None:
            occurrences = self._occurrences = {}
            for index, clause in enumerate(clauses):
                for other in clause or ():
                    occurrences.setdefault(other, []).append(index)
        live = [index for index in occurrences.get(lit, ()) if clauses[index] is not None]
        occurrences[lit] = live
        return live

    def remove_clause(self, index: int) -> None:
        """Remove a clause (its slot is tombstoned)."""
        if self.clauses[index] is None:
            return
        self.clauses[index] = None
        self._units.discard(index)
        self._empty.discard(index)

    def propagate(self, assumptions: Iterable[int]) -> bool:
        """Unit-propagate from ``assumptions``; True iff a conflict arises.

        Conflicting assumptions (both phases of a variable) count as an
        immediate conflict.
        """
        return self._propagate(assumptions, None) is not None

    def propagate_tracked(
        self, assumptions: Iterable[int]
    ) -> tuple[bool, list[int]]:
        """Like :meth:`propagate`, but also return the conflict's clause cone.

        Returns ``(conflict, used)`` where ``used`` is a sorted list of
        clause indices: the conflicting clause plus, transitively, the
        reason clause of every propagated literal that fed it. That cone
        alone reproduces the conflict, which is exactly what backward
        (core-first) proof checking needs to mark antecedent lemmas.
        ``used`` is empty when there is no conflict, or when the conflict
        comes from the assumptions alone.
        """
        reasons: dict[int, int] = {}
        roots = self._propagate(assumptions, reasons)
        if roots is None:
            return False, []
        return True, self._conflict_cone(roots, reasons)

    def _propagate(
        self, assumptions: Iterable[int], reasons: dict[int, int] | None
    ) -> list[int] | None:
        """The propagation loop; ``None`` without a conflict, else its roots.

        When ``reasons`` is given, it receives the implying clause of every
        propagated literal in assignment order (the trail the cone walk
        reads), and the roots are the clauses that clash.
        """
        if self._empty:
            return [min(self._empty)]
        assumptions = list(assumptions)
        if assumptions:
            top = max(max(assumptions), -min(assumptions))
            if top > self.num_vars:
                self.grow(top)
        stamps = self._stamps
        gen = self._gen = self._gen + 1
        clauses = self.clauses
        # Pending true literals, popped from the end: the first assumption
        # on top, the database's units under the assumptions.
        stack: list[int] = []
        for lit in reversed(assumptions):
            if stamps[lit] != gen:
                if stamps[-lit] == gen:
                    return []
                stamps[lit] = gen
                stack.append(lit)
        units: list[int] = []
        for index in self._units:
            lit = clauses[index][0]  # type: ignore[index]
            if stamps[lit] != gen:
                if stamps[-lit] == gen:
                    return [index]  # the cone walk adds the reason of -lit
                stamps[lit] = gen
                units.append(lit)
                if reasons is not None:
                    reasons[lit] = index
        if units:
            units.reverse()  # the first unit uppermost
            stack[:0] = units

        watches = self._watches
        push = stack.append
        pop = stack.pop
        while stack:
            false_lit = -pop()
            watching = watches[false_lit]
            kept = 0
            for position, index in enumerate(watching):
                clause = clauses[index]
                if clause is None:
                    continue  # removed: drop the stale watch
                other = clause[0]
                if other == false_lit:
                    other = clause[1]
                    clause[0] = other
                    clause[1] = false_lit
                if stamps[other] != gen:
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if stamps[-lit] != gen:
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(index)
                            break
                    else:
                        # No replacement: the clause is unit or falsified.
                        watching[kept] = index
                        kept += 1
                        if stamps[-other] == gen:
                            del watching[kept : position + 1]
                            return [index]
                        stamps[other] = gen
                        push(other)
                        if reasons is not None:
                            reasons[other] = index
                    continue
                watching[kept] = index
                kept += 1
            del watching[kept:]
        return None

    def _conflict_cone(self, roots: list[int], reasons: dict[int, int]) -> list[int]:
        """The reason closure of ``roots``, by one backward walk of the trail.

        ``seen`` marks the true literals some cone clause needs; walking
        ``reasons`` from the last assignment back, every marked literal's
        reason joins the cone and marks its own literals in turn. A reason
        was complete before its literal was assigned, so nothing it marks
        lies ahead of the walk.
        """
        clauses = self.clauses
        seen = self._seen
        gen = self._gen
        cone = list(roots)
        for index in roots:
            for lit in clauses[index]:  # type: ignore[union-attr]
                seen[-lit] = gen
        for true_lit, index in reversed(reasons.items()):
            if seen[true_lit] == gen:
                cone.append(index)
                for lit in clauses[index]:  # type: ignore[union-attr]
                    seen[-lit] = gen
        cone.sort()
        return cone
