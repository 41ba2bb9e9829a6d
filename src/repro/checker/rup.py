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
from typing import IO, Iterator, Sequence

from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.memory import Deadline
from repro.checker.report import CheckReport
from repro.checker.unitprop import UnitPropagator
from repro.cnf import CnfFormula
from repro.proofs.parser import iter_proof_steps


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
    ):
        self.formula = formula
        self.proof_path = proof_path
        self._deadline = deadline

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
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=steps,
            total_learned=steps,
            check_time=time.perf_counter() - start,
            resolutions=steps,
        )

    def _run(self) -> tuple[bool, int]:
        engine = UnitPropagator(self.formula.num_vars)
        index_of: dict[tuple[int, ...], list[int]] = {}
        for clause in self.formula:
            index = engine.add_clause(clause.literals)
            key = tuple(sorted(set(clause.literals)))
            index_of.setdefault(key, []).append(index)

        proof_steps = iter_proof_steps(self.proof_path)
        steps = 0
        deadline = self._deadline
        if deadline is not None:
            deadline.check()
        position = 0
        for position, (kind, literals) in enumerate(proof_steps, start=1):
            if deadline is not None and not position & 0x3F:
                deadline.check()
            if kind == "delete":
                indices = index_of.get(tuple(sorted(set(literals))))
                if indices:
                    engine.remove_clause(indices.pop())
                # Deleting an unknown clause is tolerated (drat-trim does too).
                continue
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
