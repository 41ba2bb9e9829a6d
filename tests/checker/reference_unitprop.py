"""The occurrence-scan unit propagator, kept as a test-only reference.

This is the engine :class:`repro.checker.unitprop.UnitPropagator` replaced:
propagating a literal rescans every clause that contains its negation, and
the assignment is a ±generation stamp per variable. It is slow but has no
watch invariant to get wrong, which makes it the oracle the differential
tests (``test_unitprop_differential.py``) hold the watched-literal engine
to.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ReferencePropagator:
    """Counter-based propagation over per-literal occurrence lists."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.clauses: list[list[int] | None] = []
        self._marks: list[int] = [0] * (num_vars + 1)
        self._gen = 0
        self._occurrences: dict[int, list[int]] = {}
        self._unit_indices: set[int] = set()
        self._empty_indices: set[int] = set()

    def add_clause(self, literals: Sequence[int]) -> int:
        index = len(self.clauses)
        clause = list(dict.fromkeys(literals))
        self.clauses.append(clause)
        if not clause:
            self._empty_indices.add(index)
        elif len(clause) == 1:
            self._unit_indices.add(index)
        for lit in clause:
            self._occurrences.setdefault(lit, []).append(index)
            self.num_vars = max(self.num_vars, abs(lit))
        return index

    def occurrences(self, lit: int) -> Sequence[int]:
        return self._occurrences.get(lit, ())

    def remove_clause(self, index: int) -> None:
        clause = self.clauses[index]
        if clause is None:
            return
        for lit in clause:
            self._occurrences[lit].remove(index)
        self._unit_indices.discard(index)
        self._empty_indices.discard(index)
        self.clauses[index] = None

    def propagate(self, assumptions: Iterable[int]) -> bool:
        return self.propagate_tracked(assumptions)[0]

    def propagate_tracked(self, assumptions: Iterable[int]) -> tuple[bool, list[int]]:
        if self._empty_indices:
            return True, [min(self._empty_indices)]
        assumptions = list(assumptions)
        top = max([self.num_vars] + [abs(lit) for lit in assumptions])
        if top >= len(self._marks):
            self._marks.extend([0] * (top + 1 - len(self._marks)))
        marks = self._marks
        self._gen += 1
        gen, neg_gen = self._gen, -self._gen
        reasons: dict[int, int] = {}  # var -> index of the clause implying it
        queue: list[int] = []
        seeds: list[tuple[int, int | None]] = [(lit, None) for lit in assumptions]
        seeds += [(self.clauses[index][0], index) for index in self._unit_indices]  # type: ignore[index]
        for lit, reason in seeds:
            var = abs(lit)
            desired = gen if lit > 0 else neg_gen
            mark = marks[var]
            if mark != gen and mark != neg_gen:
                marks[var] = desired
                if reason is not None:
                    reasons[var] = reason
                queue.append(lit)
            elif mark != desired:
                roots = [entry for entry in (reason, reasons.get(var)) if entry is not None]
                return True, self._conflict_cone(roots, reasons)

        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            for index in self._occurrences.get(-lit, ()):
                clause = self.clauses[index]
                assert clause is not None
                unit_lit: int | None = 0
                satisfied = False
                for clause_lit in clause:
                    mark = marks[abs(clause_lit)]
                    if mark != gen and mark != neg_gen:
                        if unit_lit:
                            unit_lit = None  # two free literals: not unit
                            break
                        unit_lit = clause_lit
                    elif (mark == gen) == (clause_lit > 0):
                        satisfied = True
                        break
                if satisfied or unit_lit is None:
                    continue
                if unit_lit == 0:
                    return True, self._conflict_cone([index], reasons)
                var = abs(unit_lit)
                marks[var] = gen if unit_lit > 0 else neg_gen
                reasons[var] = index
                queue.append(unit_lit)
        return False, []

    def _conflict_cone(self, roots: Iterable[int], reasons: dict[int, int]) -> list[int]:
        cone: set[int] = set()
        stack = list(roots)
        while stack:
            index = stack.pop()
            if index in cone:
                continue
            cone.add(index)
            for lit in self.clauses[index] or ():
                reason = reasons.get(abs(lit))
                if reason is not None and reason not in cone:
                    stack.append(reason)
        return sorted(cone)
