"""The clausal checkers: RUP with a RAT fallback, forward or backward.

DRAT extends DRUP by accepting clauses that are *resolution asymmetric
tautologies* (Cruz-Filipe et al., "Efficient Certified RAT Verification"):
clause C is RAT on its first literal p iff for every clause D in the
current database containing -p, the resolvent (C \\ {p}) ∪ (D \\ {-p}) is
a tautology or RUP. Every RUP clause is trivially RAT, so the checker
tries the cheap RUP check first and only then enumerates resolution
partners through the propagator's literal-occurrence index — the same
strategy (and deletion semantics) as drat-trim.

:class:`RupChecker` is the same forward pass with the RAT fallback off:
a lemma that is not RUP fails ``BAD_RESOLUTION``, and a DRUP proof must
end in an explicit empty clause.

Two modes:

* **Forward** streams the proof once, verifying every added clause
  against the database built so far. Constant memory over binary proofs
  (mapped batch decoding, nothing materialized).
* **Backward** (``--backward``) is core-first checking: a first pass
  builds the final database without verifying anything, the empty
  clause's conflict is then replayed with dependency tracking, and a
  second pass walks the proof in reverse — un-adding / re-deleting each
  step — verifying only lemmas marked as antecedents of something already
  verified. Dead lemmas (typically a large fraction of a real solver's
  output) are never checked at all; the skip statistics land in
  ``CheckReport.prune``.

Backward soundness: a verified lemma's RUP/RAT check at position i runs
against a database that is a *superset* of what the pruned proof (marked
lemmas only) would provide — extra clauses only add resolution partners,
each of which is itself checked — while every clause the conflict cones
actually use gets marked and therefore verified.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import faults
from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.memory import Deadline
from repro.checker.report import CheckReport
from repro.checker.unitprop import UnitPropagator
from repro.cnf import CnfFormula
from repro.proofs.parser import iter_proof_steps, read_proof

FP_STEP = faults.register_fault_point(
    "proofs.check.step",
    doc="before checking one proof step (key = add|delete)",
)
FP_FINALIZE = faults.register_fault_point(
    "proofs.check.finalize",
    doc="before the DRAT verdict is finalized (key = forward|backward)",
)


def _clause_key(literals: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(literals)))


class DratChecker:
    """Validates a DRAT (or DRUP) proof against the original formula."""

    method = "drat"
    #: ``CheckReport.proof["format"]``, and the name failure messages use.
    proof_format = "drat"
    #: Try RAT on the pivot when the RUP check fails, and accept a proof
    #: whose database propagates to a conflict without an empty clause.
    rat = True

    def __init__(
        self,
        formula: CnfFormula,
        proof_path: str | Path,
        backward: bool = False,
        deadline: Deadline | None = None,
        encoding: str = "auto",
    ):
        self.formula = formula
        self.proof_path = proof_path
        self.backward = backward
        self._deadline = deadline
        self._encoding = encoding
        self._engine: UnitPropagator | None = None
        # Counters surfaced through CheckReport.proof
        self._adds_seen = 0
        self._deletions = 0
        self._checked = 0
        self._rup_steps = 0
        self._rat_steps = 0
        self._rat_resolvents = 0
        self._propagations = 0
        self._implicit_empty = False
        self._prune_info: dict | None = None

    # -- public API -----------------------------------------------------------

    def check(self) -> CheckReport:
        """Run the check; never raises — failures land in the report."""
        start = time.perf_counter()
        failure: CheckFailure | None = None
        verified = False
        try:
            if self._deadline is not None:
                self._deadline.check()
            verified = self._run_backward() if self.backward else self._run_forward()
        except CheckFailure as exc:
            failure = exc
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=self._checked,
            total_learned=self._adds_seen,
            check_time=time.perf_counter() - start,
            resolutions=self._propagations,
            prune=self._prune_info,
            proof={
                "format": self.proof_format,
                "mode": "backward" if self.backward else "forward",
                "adds": self._adds_seen,
                "deletions": self._deletions,
                "checked": self._checked,
                "rup_lemmas": self._rup_steps,
                "rat_lemmas": self._rat_steps,
                "rat_resolvents": self._rat_resolvents,
                "implicit_empty": self._implicit_empty,
            },
        )

    # -- shared pieces --------------------------------------------------------

    def _setup(self) -> tuple[UnitPropagator, dict[tuple[int, ...], list[int]]]:
        engine = UnitPropagator(self.formula.num_vars)
        index_of: dict[tuple[int, ...], list[int]] = {}
        for clause in self.formula:
            index = engine.add_clause(clause.literals)
            index_of.setdefault(_clause_key(clause.literals), []).append(index)
        self._engine = engine
        return engine, index_of

    def _tick(self, ticks: int) -> None:
        if self._deadline is not None and not ticks & 0x3F:
            self._deadline.check()

    def _conflicts(
        self, assumptions: list[int], mark: Callable[[list[int]], None] | None
    ) -> bool:
        """One propagation; in backward mode the conflict cone goes to ``mark``."""
        engine = self._engine
        assert engine is not None
        self._propagations += 1
        if mark is None:
            return engine.propagate(assumptions)
        conflict, used = engine.propagate_tracked(assumptions)
        if conflict:
            mark(used)
        return conflict

    def _verify_lemma(
        self,
        literals: Sequence[int],
        step: int,
        mark: Callable[[list[int]], None] | None = None,
    ) -> None:
        """RUP, then full RAT on the pivot (first literal). Raises on failure.

        Backward mode passes ``mark``: every conflict is then replayed with
        dependency tracking so antecedent lemmas join the marked core.
        """
        engine = self._engine
        assert engine is not None
        unique = list(dict.fromkeys(literals))
        if self._conflicts([-lit for lit in unique], mark):
            self._rup_steps += 1
            return
        if not self.rat:
            raise CheckFailure(
                FailureKind.BAD_RESOLUTION,
                "clause is not RUP: negating it does not propagate to "
                "a conflict",
                step=step,
                literals=list(literals),
            )
        if not literals:
            raise CheckFailure(
                FailureKind.NOT_RAT,
                "the empty clause is not RUP: the database does not "
                "propagate to a conflict",
                step=step,
            )
        pivot = literals[0]
        c_set = set(unique)
        negated_rest = [-lit for lit in unique if lit != pivot]
        resolvents = 0
        for index in list(engine.occurrences(-pivot)):
            clause = engine.clauses[index]
            if clause is None:
                continue
            # Tautological resolvent: some m in D \ {-p} clashes with C.
            if any(m != -pivot and -m in c_set for m in clause):
                continue
            resolvents += 1
            assumptions = negated_rest + [-m for m in clause if m != -pivot]
            if not self._conflicts(assumptions, mark):
                raise CheckFailure(
                    FailureKind.NOT_RAT,
                    "clause is neither RUP nor RAT on its first literal: "
                    "a resolvent is not RUP",
                    step=step,
                    literals=list(literals),
                    pivot=pivot,
                    resolvent_partner=list(clause),
                )
        self._rat_steps += 1
        self._rat_resolvents += resolvents

    def _apply_delete(
        self,
        engine: UnitPropagator,
        index_of: dict[tuple[int, ...], list[int]],
        literals: Sequence[int],
    ) -> int | None:
        """Drat-trim deletion semantics: unknown deletions are tolerated."""
        self._deletions += 1
        indices = index_of.get(_clause_key(literals))
        if not indices:
            return None
        index = indices.pop()
        engine.remove_clause(index)
        return index

    # -- forward mode ---------------------------------------------------------

    def _run_forward(self) -> bool:
        engine, index_of = self._setup()
        step = 0
        for step, (kind, literals) in enumerate(
            iter_proof_steps(self.proof_path, self._encoding), start=1
        ):
            faults.fault_point(FP_STEP, key=kind)
            self._tick(step)
            if kind == "delete":
                self._apply_delete(engine, index_of, literals)
                continue
            if literals:
                self._adds_seen += 1
                self._checked += 1
            # The empty clause is verified too, but only lemma checks count
            # toward clauses_built (so built/total stays a percentage).
            self._verify_lemma(literals, step)
            if not literals:
                faults.fault_point(FP_FINALIZE, key="forward")
                return True
            index = engine.add_clause(literals)
            index_of.setdefault(_clause_key(literals), []).append(index)
        # No explicit empty clause: accept iff the database already
        # propagates to a top-level conflict (drat-trim does the same).
        if self.rat and self._conflicts([], None):
            self._implicit_empty = True
            faults.fault_point(FP_FINALIZE, key="forward")
            return True
        raise CheckFailure(
            FailureKind.NOT_EMPTY,
            f"{self.proof_format.upper()} proof ended without deriving the "
            "empty clause",
            steps=step,
        )

    # -- backward mode --------------------------------------------------------

    def _run_backward(self) -> bool:
        doc = read_proof(self.proof_path, self._encoding)
        engine, index_of = self._setup()
        steps = doc.steps
        self._adds_seen = doc.num_adds

        # Pass 1: build the final database, verifying nothing. Track, per
        # engine index, which add step produced it (formula clauses have
        # no entry) and, per add step, its clause's current index.
        origin: dict[int, int] = {}
        current: dict[int, int | None] = {}
        removed_at: dict[int, int] = {}  # delete-step ordinal -> engine index
        stop = len(steps)
        for ordinal, (kind, literals) in enumerate(steps):
            self._tick(ordinal + 1)
            if kind == "delete":
                index = self._apply_delete(engine, index_of, literals)
                if index is not None:
                    removed_at[ordinal] = index
                    source = origin.get(index)
                    if source is not None:
                        current[source] = None
                continue
            if not literals:
                stop = ordinal
                break
            index = engine.add_clause(literals)
            origin[index] = ordinal
            current[ordinal] = index
            index_of.setdefault(_clause_key(literals), []).append(index)

        marked: set[int] = set()

        def mark(used: list[int]) -> None:
            for index in used:
                source = origin.get(index)
                if source is not None:
                    marked.add(source)

        # The empty clause (explicit or implicit) must be RUP, with its
        # conflict cone recorded: those clauses seed the marking.
        self._implicit_empty = stop == len(steps)
        if not self._conflicts([], mark):
            if self._implicit_empty:
                raise CheckFailure(
                    FailureKind.NOT_EMPTY,
                    "DRAT proof ended without deriving the empty clause",
                    steps=stop,
                )
            raise CheckFailure(
                FailureKind.NOT_EMPTY,
                "the empty clause is not RUP: the database does not "
                "propagate to a conflict",
                step=stop + 1,
            )

        # Pass 2: walk the proof in reverse, undoing each step; verify
        # only marked lemmas, marking their conflict cones in turn.
        for ordinal in range(stop - 1, -1, -1):
            kind, literals = steps[ordinal]
            faults.fault_point(FP_STEP, key=kind)
            self._tick(ordinal + 1)
            if kind == "delete":
                index = removed_at.get(ordinal)
                if index is None:
                    continue
                # Undo the deletion; the clause instance keeps the
                # identity of the add step that created it.
                new_index = engine.add_clause(literals)
                source = origin.pop(index, None)
                if source is not None:
                    origin[new_index] = source
                    current[source] = new_index
                continue
            index = current.get(ordinal)
            if index is not None:
                engine.remove_clause(index)
                origin.pop(index, None)
            if ordinal not in marked:
                continue
            self._checked += 1
            self._verify_lemma(literals, ordinal + 1, mark)

        total = doc.num_adds
        self._prune_info = {
            "mode": "backward",
            "total_adds": total,
            "verified_adds": self._checked,
            "skipped": total - self._checked,
            "dead_fraction": (total - self._checked) / total if total else 0.0,
        }
        faults.fault_point(FP_FINALIZE, key="backward")
        return True


class RupChecker(DratChecker):
    """Validates a DRUP proof: the forward DRAT pass with RAT off."""

    method = "rup"
    proof_format = "drup"
    rat = False

    def __init__(
        self,
        formula: CnfFormula,
        proof_path: str | Path,
        deadline: Deadline | None = None,
    ):
        super().__init__(formula, proof_path, deadline=deadline)
