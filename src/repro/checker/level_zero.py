"""Level-0 assignment state and the final empty-clause derivation.

Shared by the depth-first, breadth-first and hybrid checkers: after the
learned clauses are available (however each strategy materializes them),
the empty clause is derived exactly as in the proof of Proposition 3 —
start from the final conflicting clause and resolve with the antecedent of
the literal assigned *last*, until nothing remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable

from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.resolution import resolve
from repro.trace.records import LevelZeroAssignment


@dataclass(frozen=True)
class _VarInfo:
    value: bool
    antecedent: int
    order: int  # chronological position on the level-0 trail


class LevelZeroState:
    """Validated view of the trace's decision-level-0 trail."""

    def __init__(self, entries: Iterable[LevelZeroAssignment]):
        self._info: dict[int, _VarInfo] = {}
        for order, entry in enumerate(entries):
            if entry.var in self._info:
                raise CheckFailure(
                    FailureKind.BAD_LEVEL_ZERO,
                    "variable assigned twice on the level-0 trail",
                    var=entry.var,
                )
            if entry.antecedent <= 0:
                raise CheckFailure(
                    FailureKind.BAD_LEVEL_ZERO,
                    "level-0 variable lacks a valid antecedent clause ID",
                    var=entry.var,
                    antecedent=entry.antecedent,
                )
            self._info[entry.var] = _VarInfo(entry.value, entry.antecedent, order)

    def __len__(self) -> int:
        return len(self._info)

    def __contains__(self, var: int) -> bool:
        return var in self._info

    def info(self, var: int) -> _VarInfo:
        try:
            return self._info[var]
        except KeyError:
            raise CheckFailure(
                FailureKind.BAD_LEVEL_ZERO,
                "proof references a variable missing from the level-0 trail",
                var=var,
            ) from None

    def is_false(self, lit: int) -> bool:
        """Whether the literal evaluates to false under the level-0 trail."""
        info = self._info.get(abs(lit))
        if info is None:
            return False
        return info.value != (lit > 0)

    def check_all_false(self, cid: int, literals: FrozenSet[int]) -> None:
        """A conflicting clause must have every literal false at level 0.

        A failure names the smallest offending literal, whatever order the
        caller's clause iterates in.
        """
        for lit in literals:
            if not self.is_false(lit):
                raise CheckFailure(
                    FailureKind.BAD_FINAL_CONFLICT,
                    "final conflicting clause has a literal not falsified "
                    "by the level-0 assignment",
                    cid=cid,
                    literal=min(x for x in literals if not self.is_false(x)),
                )

    def check_antecedent(self, cid: int, literals: FrozenSet[int], var: int) -> None:
        """Verify ``cid`` is really the antecedent of ``var`` (§3.2).

        The clause must contain the literal that assigns ``var`` its value,
        and every *other* literal must be false under assignments made
        strictly earlier — i.e. the clause was unit at assignment time. A
        failure reports the first offending literal in sorted order,
        whatever order the caller's clause iterates in.
        """
        info = self.info(var)
        implied_lit = var if info.value else -var
        if implied_lit not in literals:
            raise CheckFailure(
                FailureKind.BAD_ANTECEDENT,
                "claimed antecedent does not contain the implied literal",
                cid=cid,
                var=var,
                implied_literal=implied_lit,
            )
        for lit in literals:
            if lit == implied_lit:
                continue
            other = abs(lit)
            other_info = self._info.get(other)
            if other_info is None or other_info.value == (lit > 0):
                message = (
                    "antecedent clause was not unit: another literal is "
                    "not falsified at level 0"
                )
            elif other_info.order >= info.order:
                message = (
                    "antecedent clause was not unit at assignment time: a "
                    "literal was falsified only later"
                )
            else:
                continue
            ordered = sorted(literals)
            if list(literals) != ordered:
                self.check_antecedent(cid, ordered, var)
            raise CheckFailure(
                FailureKind.BAD_ANTECEDENT, message, cid=cid, var=var, literal=lit
            )


def derive_empty_clause(
    start_cid: int,
    start_literals: FrozenSet[int],
    level_zero: LevelZeroState,
    get_clause: Callable[[int], FrozenSet[int]],
    on_use: Callable[[int], None] | None = None,
    resolve_fn: Callable[..., FrozenSet[int]] | None = None,
    deadline=None,
) -> int:
    """Derive the empty clause from the final conflicting clause.

    ``get_clause`` materializes a clause by ID (each strategy supplies its
    own); ``on_use`` is notified for every clause ID consumed (the BF
    checker uses it for reference-count decrements, DF/hybrid for core
    collection). ``resolve_fn`` performs one resolution step — checkers
    running on the marking kernel pass their engine's
    :meth:`~repro.checker.kernel.KernelEngine.resolve`, which returns
    sorted int arrays; the default is the frozenset reference
    :func:`~repro.checker.resolution.resolve`. Returns the number of
    resolution steps performed. ``deadline`` (a
    :class:`~repro.checker.memory.Deadline`) is polled once per step so a
    long final derivation honours the caller's wall-clock budget.
    """
    if resolve_fn is None:
        resolve_fn = resolve
    level_zero.check_all_false(start_cid, start_literals)
    if on_use is not None:
        on_use(start_cid)

    clause = start_literals
    resolutions = 0
    budget = len(level_zero) + 1
    while clause:
        if deadline is not None:
            deadline.check()
        if resolutions > budget:
            raise CheckFailure(
                FailureKind.NOT_EMPTY,
                "empty-clause derivation did not terminate within the "
                "level-0 trail length — chronological order violated",
                steps=resolutions,
            )
        # choose_literal: reverse chronological order over the trail.
        pivot_lit = max(clause, key=lambda lit: level_zero.info(abs(lit)).order)
        pivot_var = abs(pivot_lit)
        antecedent_cid = level_zero.info(pivot_var).antecedent
        antecedent = get_clause(antecedent_cid)
        level_zero.check_antecedent(antecedent_cid, antecedent, pivot_var)
        clause = resolve_fn(clause, antecedent, cid_a=start_cid, cid_b=antecedent_cid)
        resolutions += 1
        if on_use is not None:
            on_use(antecedent_cid)
    return resolutions
