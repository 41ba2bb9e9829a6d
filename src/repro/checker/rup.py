"""Reverse-unit-propagation (RUP) proof checking — "other applications".

The paper's resolution traces are the direct ancestor of today's clausal
proof formats (RUP, DRUP, DRAT). This module closes the loop: the solver
can additionally log each learned clause's *literals* in the textbook DRUP
format, and :class:`RupChecker` validates the claim without any resolve
sources — clause C is accepted iff unit propagation on the current database
plus the negation of C yields a conflict.

DRUP file format (ASCII, one clause per line):

    l1 l2 ... 0        add a learned clause
    d l1 l2 ... 0      delete a clause
    0                  the derived empty clause (end of proof)
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.memory import Deadline
from repro.checker.report import CheckReport
from repro.checker.unitprop import UnitPropagator
from repro.cnf import CnfFormula
from repro.proofs.parser import iter_proof_steps, read_proof


class DrupWriter:
    """Logs learned-clause literals (and deletions) in DRUP format.

    Attach to the solver via ``Solver`` 's ``drup_writer`` argument. The
    writer is orthogonal to the resolution trace writer — both can be
    active at once. For the binary DRAT encoding use
    :func:`repro.proofs.open_proof_writer` (same interface).
    """

    def __init__(self, path: str | Path):
        self._handle: IO[str] = open(path, "w", encoding="ascii")
        self._closed = False

    def add_clause(self, literals: Sequence[int]) -> None:
        self._handle.write(" ".join(map(str, literals)) + " 0\n")

    def delete_clause(self, literals: Sequence[int]) -> None:
        self._handle.write("d " + " ".join(map(str, literals)) + " 0\n")

    def finish_unsat(self) -> None:
        self._handle.write("0\n")

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "DrupWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_drup(path: str | Path) -> Iterator[tuple[str, list[int]]]:
    """Yield ("add" | "delete", literals) steps from a DRUP/DRAT file.

    Thin compatibility wrapper over :func:`repro.proofs.iter_proof_steps`
    — proof tokenizing lives in :mod:`repro.proofs.parser` now, which also
    understands the binary DRAT encoding (auto-detected). Tokenizer errors
    carry ``FailureKind.MALFORMED_PROOF``.
    """
    return iter_proof_steps(path)


class RupChecker:
    """Validates a DRUP proof against the original formula."""

    method = "rup"

    def __init__(
        self,
        formula: CnfFormula,
        proof_path: str | Path,
        deadline: Deadline | None = None,
        prune_plan=None,
    ):
        self.formula = formula
        self.proof_path = proof_path
        self._deadline = deadline
        # Core-first pruning. DRUP identifies lemmas by position, not ID,
        # so the plan's ``skip_ordinals`` only apply when the proof's add
        # steps align 1:1 with the trace's learned records (preprocessing
        # resolvents are traced but not DRUP-logged, breaking alignment);
        # otherwise the check silently runs unpruned. Skipping a dead lemma
        # preserves RUP-ness of every kept one: a kept clause's trivial
        # resolution chain lies entirely inside the kept cone.
        self._plan = prune_plan
        self._prune_applied = False
        self._pruned_steps = 0

    def check(self) -> CheckReport:
        """Run the check; never raises — failures land in the report."""
        start = time.perf_counter()
        failure: CheckFailure | None = None
        verified = False
        steps = 0
        try:
            verified, steps = self._run()
        except CheckFailure as exc:
            failure = exc
        prune_info = None
        if self._plan is not None:
            prune_info = self._plan.to_dict()
            prune_info["applied"] = self._prune_applied
            prune_info["steps_skipped"] = self._pruned_steps
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=steps,
            total_learned=steps + self._pruned_steps,
            check_time=time.perf_counter() - start,
            resolutions=steps,
            prune=prune_info,
        )

    def _proof_steps(self) -> tuple[Iterable[tuple[str, list[int]]], frozenset[int]]:
        """The proof's step stream plus the add-step ordinals to skip.

        Unpruned checks stream the proof file directly (constant memory).
        With a prune plan the proof is materialized in *one* pass —
        :func:`repro.proofs.read_proof` folds the add-step count needed
        for the plan's alignment guard into that same pass, so the file
        is never read twice.
        """
        if self._plan is None or not self._plan.skip_ordinals:
            return iter_proof_steps(self.proof_path), frozenset()
        doc = read_proof(self.proof_path)
        if doc.num_adds != self._plan.total_learned:
            return doc.steps, frozenset()  # not 1:1 with the trace: unpruned
        self._prune_applied = True
        return doc.steps, self._plan.skip_ordinals

    def _run(self) -> tuple[bool, int]:
        engine = UnitPropagator(self.formula.num_vars)
        index_of: dict[tuple[int, ...], list[int]] = {}
        for clause in self.formula:
            index = engine.add_clause(clause.literals)
            key = tuple(sorted(set(clause.literals)))
            index_of.setdefault(key, []).append(index)

        proof_steps, skip_ordinals = self._proof_steps()
        # Deletions of skipped clauses must consume a skip credit instead of
        # removing an identical *kept* clause from the database.
        skipped_pool: dict[tuple[int, ...], int] = {}
        ordinal = 0
        steps = 0
        deadline = self._deadline
        if deadline is not None:
            deadline.check()
        position = 0
        for position, (kind, literals) in enumerate(proof_steps, start=1):
            if deadline is not None and not position & 0x3F:
                deadline.check()
            if kind == "delete":
                key = tuple(sorted(set(literals)))
                credit = skipped_pool.get(key, 0)
                if credit:
                    skipped_pool[key] = credit - 1
                    continue
                indices = index_of.get(key)
                if indices:
                    engine.remove_clause(indices.pop())
                # Deleting an unknown clause is tolerated (drat-trim does too).
                continue
            if literals:
                this_ordinal = ordinal
                ordinal += 1
                if this_ordinal in skip_ordinals:
                    self._pruned_steps += 1
                    key = tuple(sorted(set(literals)))
                    skipped_pool[key] = skipped_pool.get(key, 0) + 1
                    continue  # statically dead: neither checked nor added
            steps += 1
            if not engine.propagate([-lit for lit in literals]):
                raise CheckFailure(
                    FailureKind.BAD_RESOLUTION,
                    "clause is not RUP: negating it does not propagate to "
                    "a conflict",
                    step=position,
                    literals=literals,
                )
            if not literals:
                return True, steps  # the empty clause: proof complete
            index = engine.add_clause(literals)
            index_of.setdefault(tuple(sorted(set(literals))), []).append(index)

        raise CheckFailure(
            FailureKind.NOT_EMPTY,
            "DRUP proof ended without deriving the empty clause",
            steps=position,
        )
