"""Human-readable ASCII trace format.

Line-oriented, one record per line:

    T <num_vars> <num_original_clauses>     header
    CL <cid> <src1> <src2> ...              learned clause + resolve sources
    D <cid>                                 advisory clause deletion
    V <var> <0|1> <antecedent_cid>          level-0 trail entry
    CONF <cid>                              final conflicting clause
    R SAT|UNSAT                             solver claim

The paper notes this style of format favours debuggability over space; see
``binary_format`` for the compact encoding.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator

from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    Trace,
    TraceError,
    TraceHeader,
    TraceRecord,
    TraceResult,
    assemble_trace,
)


class AsciiTraceWriter:
    """Streams trace records to a text file as they are produced."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._handle: IO[str] = open(self._path, "w", encoding="ascii")
        self._closed = False

    def header(self, num_vars: int, num_original_clauses: int) -> None:
        self._handle.write(f"T {num_vars} {num_original_clauses}\n")

    def learned_clause(self, cid: int, sources: list[int] | tuple[int, ...]) -> None:
        self._handle.write(f"CL {cid} " + " ".join(map(str, sources)) + "\n")

    def clause_deletion(self, cid: int) -> None:
        self._handle.write(f"D {cid}\n")

    def level_zero(self, var: int, value: bool, antecedent: int) -> None:
        self._handle.write(f"V {var} {1 if value else 0} {antecedent}\n")

    def final_conflict(self, cid: int) -> None:
        self._handle.write(f"CONF {cid}\n")

    def result(self, status: str) -> None:
        self._handle.write(f"R {status}\n")

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "AsciiTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_ascii_records(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records from an ASCII trace file (constant memory).

    A byte outside ASCII is a :class:`TraceError` naming the path.
    """
    with open(path, "r", encoding="ascii") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                tag = fields[0]
                record: TraceRecord | None = None
                try:
                    if tag == "T":
                        record = TraceHeader(int(fields[1]), int(fields[2]))
                    elif tag == "CL":
                        record = LearnedClause(int(fields[1]), tuple(map(int, fields[2:])))
                    elif tag == "D":
                        record = ClauseDeletion(int(fields[1]))
                    elif tag == "V":
                        record = LevelZeroAssignment(
                            int(fields[1]), fields[2] == "1", int(fields[3])
                        )
                    elif tag == "CONF":
                        record = FinalConflict(int(fields[1]))
                    elif tag == "R":
                        record = TraceResult(fields[1])
                except (IndexError, ValueError) as exc:
                    raise TraceError(f"line {lineno}: malformed record {line!r}") from exc
                if record is None:
                    raise TraceError(f"line {lineno}: unknown record tag {tag!r}")
                yield record
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: {exc}") from None


def read_ascii_trace(path: str | Path) -> Trace:
    """Load a full ASCII trace into memory."""
    return assemble_trace(iter_ascii_records(path))
