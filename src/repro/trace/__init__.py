"""Resolution traces: the solver -> checker interface of the paper (§3.1).

A trace records exactly the three things the paper requires:

1. For each learned clause: its ID and the IDs of its *resolve sources* —
   the conflicting clause followed by the antecedent clauses, in the order
   they were resolved during conflict analysis.
2. The ID of the final conflicting clause (the clause found conflicting at
   decision level 0).
3. The decision-level-0 trail: every variable assigned at level 0, its
   value, its antecedent clause ID, in chronological order.

Two wire formats are provided: a human-readable ASCII format and a compact
varint binary format (the paper remarks a 2-3x compaction is easy to get).
"""

from repro.trace.records import (
    TraceHeader,
    LearnedClause,
    LevelZeroAssignment,
    FinalConflict,
    TraceResult,
    ClauseDeletion,
    Trace,
    TraceError,
)
from repro.trace.ascii_format import AsciiTraceWriter, read_ascii_trace, iter_ascii_records
from repro.trace.binary_format import BinaryTraceWriter, read_binary_trace, iter_binary_records
from repro.trace.io import (
    open_trace_writer,
    load_trace,
    iter_trace_records,
    InMemoryTraceWriter,
)
from repro.trace.fingerprint import sha256_file, sha256_text, trace_content_hash
from repro.trace.stats import TraceStatistics, analyze_trace
from repro.trace.trim import TrimResult, trim_trace, write_trimmed

__all__ = [
    "TraceHeader",
    "LearnedClause",
    "LevelZeroAssignment",
    "FinalConflict",
    "TraceResult",
    "ClauseDeletion",
    "Trace",
    "TraceError",
    "AsciiTraceWriter",
    "read_ascii_trace",
    "iter_ascii_records",
    "BinaryTraceWriter",
    "read_binary_trace",
    "iter_binary_records",
    "open_trace_writer",
    "load_trace",
    "iter_trace_records",
    "InMemoryTraceWriter",
    "sha256_file",
    "sha256_text",
    "trace_content_hash",
    "TraceStatistics",
    "analyze_trace",
    "TrimResult",
    "trim_trace",
    "write_trimmed",
]
