"""Structured check failures.

The paper: "If such checks fail, the solver (or its trace generation) is
buggy. The checker can also provide as much information as possible about
the failure to help debug the solver." Every failure therefore carries a
machine-readable kind plus the clause IDs / literals involved.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence, Sized


class FailureKind(enum.Enum):
    """What went wrong during checking."""

    UNKNOWN_CLAUSE = "unknown-clause"  # trace references an undefined clause ID
    BAD_RESOLUTION = "bad-resolution"  # not exactly one clashing variable
    BAD_ANTECEDENT = "bad-antecedent"  # clause is not unit for the variable
    BAD_FINAL_CONFLICT = "bad-final-conflict"  # clause not falsified at level 0
    BAD_LEVEL_ZERO = "bad-level-zero"  # inconsistent level-0 trail
    NOT_EMPTY = "not-empty"  # derivation finished without an empty clause
    MEMORY_OUT = "memory-out"  # checker exceeded its memory budget
    BAD_STATUS = "bad-status"  # trace does not claim UNSAT
    CYCLIC_TRACE = "cyclic-trace"  # clause (transitively) resolves from itself
    STATIC_PRECHECK = "static-precheck"  # the lint pre-pass rejected the trace
    BAD_HEADER = "bad-header"  # trace has no (usable) header record
    MALFORMED_TRACE = "malformed-trace"  # record stream unparseable mid-check
    TIMEOUT = "timeout"  # checker exceeded its wall-clock deadline
    WORKER_CRASH = "worker-crash"  # the check attempt or its worker process crashed
    MALFORMED_PROOF = "malformed-proof"  # DRUP/DRAT proof stream unparseable
    NOT_RAT = "not-rat"  # clause is neither RUP nor RAT on its pivot


def _rebuild_failure(cls: type, kind: FailureKind, message: str, context: dict) -> "CheckFailure":
    """Reconstruct a (subclass of) CheckFailure from its pickled state.

    Subclasses such as ``MemoryLimitExceeded(used, limit)`` have
    constructor signatures that differ from the state actually stored, so
    unpickling must bypass ``cls.__init__`` and restore the shared
    ``CheckFailure`` state directly — this keeps every failure type safe to
    ship across a ``multiprocessing`` boundary.
    """
    exc = CheckFailure.__new__(cls)
    CheckFailure.__init__(exc, kind, message, **context)
    return exc


class CheckFailure(Exception):
    """A failed validity check, with debugging context.

    ``context`` holds whatever helps debug the solver: clause IDs, literal
    lists, variable numbers. Rendered into the message for humans and kept
    structured for tooling.
    """

    def __init__(self, kind: FailureKind, message: str, **context: Any):
        self.kind = kind
        self.message = message
        self.context = context
        detail = ", ".join(f"{key}={value!r}" for key, value in context.items())
        super().__init__(f"[{kind.value}] {message}" + (f" ({detail})" if detail else ""))

    def __reduce__(self):
        return (_rebuild_failure, (type(self), self.kind, self.message, self.context))


# -- trace checks every resolution-trace checker shares ------------------------


def check_clause_count(formula_clauses: int, trace_clauses: int) -> None:
    """Fail when a trace header's original-clause count is not the formula's."""
    if formula_clauses != trace_clauses:
        raise CheckFailure(
            FailureKind.UNKNOWN_CLAUSE,
            "formula / trace disagree on the number of original clauses",
            formula_clauses=formula_clauses,
            trace_clauses=trace_clauses,
        )


def check_headers(formula_clauses: int, headers: Sequence[tuple[int, int]]) -> int:
    """Check a trace's ``(num_vars, num_original_clauses)`` headers.

    Fails when there is none or one disagrees with the formula; returns
    the last header's original-clause count.
    """
    if not headers:
        raise CheckFailure(FailureKind.BAD_HEADER, "trace has no header")
    for _num_vars, num_original in headers:
        check_clause_count(formula_clauses, num_original)
    return num_original


def check_unsat_claim(status: str, final_conflicts: Sized) -> None:
    """Fail unless the trace claims UNSAT and records a final conflict."""
    if status != "UNSAT":
        raise CheckFailure(
            FailureKind.BAD_STATUS,
            "trace does not claim UNSAT; nothing to check",
            status=status,
        )
    if not final_conflicts:
        raise CheckFailure(
            FailureKind.BAD_FINAL_CONFLICT,
            "trace has no final conflicting clause",
        )


def check_sources(cid: int, sources: Sequence[int]) -> None:
    """Fail a learned record with no sources or a source not below ``cid``.

    Each checker calls it only behind a cheaper per-record test of its
    own, so it runs at most once per check, to raise.
    """
    if not sources:
        # Normal parsing rejects zero-source records, but a hand-built
        # Trace can smuggle one in; fail the report, don't IndexError.
        raise CheckFailure(
            FailureKind.MALFORMED_TRACE,
            "learned clause record has no resolve sources",
            cid=cid,
        )
    for source in sources:
        if source >= cid:
            raise CheckFailure(
                FailureKind.CYCLIC_TRACE,
                "learned clause resolves from a clause with an ID not "
                "smaller than its own",
                cid=cid,
                source=source,
            )
