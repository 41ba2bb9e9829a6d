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

The assignment is a generation-stamp buffer indexed directly by literal,
in the resolution kernel's layout (negative literals index from the tail),
so the hot loop does no ``abs()``; bumping the generation resets it.
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
        # Both buffers are indexed by literal: +v at [v], -v at [-v], which
        # is slot len - v. With len == 2 * num_vars + 2 the halves never meet.
        self._watches: list[list[int]] = [[], []]
        self._stamps: list[int] = [0, 0]
        self._gen = 0
        self._units: set[int] = set()
        self._empty: set[int] = set()
        self._occurrences: dict[int, list[int]] = {}
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
        for lit in clause:
            occurrences.setdefault(lit, []).append(index)
        return index

    def occurrences(self, lit: int) -> Sequence[int]:
        """Indices of live clauses containing ``lit``.

        The RAT check enumerates resolution partners through this index.
        Removal leaves its entries behind; they are purged here, as the
        index is read. Callers that remove clauses while iterating should
        still skip ``None`` slots in :attr:`clauses`.
        """
        clauses = self.clauses
        live = [index for index in self._occurrences.get(lit, ()) if clauses[index] is not None]
        self._occurrences[lit] = live
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
        propagated literal, and the roots are the clauses that clash.
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
        trail: list[int] = []
        for lit in assumptions:
            if stamps[lit] != gen:
                if stamps[-lit] == gen:
                    return []
                stamps[lit] = gen
                trail.append(lit)
        for index in self._units:
            lit = clauses[index][0]  # type: ignore[index]
            if stamps[lit] != gen:
                if stamps[-lit] == gen:
                    return [index]  # the cone walk adds the reason of -lit
                stamps[lit] = gen
                trail.append(lit)
                if reasons is not None:
                    reasons[lit] = index

        watches = self._watches
        enqueue = trail.append
        for true_lit in trail:  # grows while iterated: the propagation queue
            false_lit = -true_lit
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
                        enqueue(other)
                        if reasons is not None:
                            reasons[other] = index
                    continue
                watching[kept] = index
                kept += 1
            del watching[kept:]
        return None

    def _conflict_cone(
        self, roots: Iterable[int], reasons: dict[int, int]
    ) -> list[int]:
        """Transitive reason closure of ``roots`` over the reason graph."""
        clauses = self.clauses
        cone: set[int] = set()
        stack = list(roots)
        while stack:
            index = stack.pop()
            if index in cone:
                continue
            cone.add(index)
            for lit in clauses[index] or ():
                reason = reasons.get(-lit)
                if reason is not None and reason not in cone:
                    stack.append(reason)
        return sorted(cone)
