"""On-disk per-clause use counts and record spools, shared by the BF and
streaming checkers.

The paper's counting pre-pass (§3.3) records, for every learned clause,
how many times it is used as a resolve source — written to a temporary
file because "even one in-memory counter per learned clause may not
fit". Both :class:`~repro.checker.breadth_first.BreadthFirstChecker` and
:class:`~repro.checker.streaming.StreamingWindowChecker` consume that
file through the block-cached :class:`CountsReader` here; the writers
share :func:`new_counts_file` / :func:`write_count_range`.

Counts layout: one little-endian ``uint64`` per learned clause ID,
densely packed from ``first_learned`` (= num_original + 1) upward.

The counts come from a binary scanner
(:func:`~repro.trace.binary_format.scan_binary_learned`,
:func:`~repro.trace.binary_format.scan_mapped_learned`), from
:func:`count_records` on a decoded record stream (ASCII files, in-memory
traces, BF's chunked counting), or from a prune plan
(:func:`write_plan_counts`).

When the counting pass decodes a binary trace, it also writes every
record it decodes to a *spool* (:class:`SpoolWriter`), and the checking
pass replays the spool (:func:`iter_spool`) instead of decoding the
trace's varints a second time. Spool layout: a sequence of blocks, each
one native ``int64`` entry count followed by that many entries. The
entries spell the trace's records in stream order, every record kept,
each as its binary trace tag followed by its fields:

    learned         tag, cid, n, source_1 ... source_n
    header          tag, num_vars, num_original_clauses
    level zero      tag, 2 * var + value, antecedent
    final conflict  tag, cid
    deletion        tag, cid
    result          tag

A block holds whole records only, so a reader keeps one block resident.
"""

from __future__ import annotations

import os
import struct
import tempfile
from array import array
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence

from repro.checker.errors import CheckFailure, FailureKind, check_clause_count

# Spool entries reuse the binary trace's record tags.
from repro.trace.binary_format import (
    _RESULT_TAGS,
    _TAG_DELETION,
    _TAG_FINAL_CONFLICT,
    _TAG_HEADER,
    _TAG_LEARNED,
    _TAG_LEVEL_ZERO,
)
from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    TraceError,
    TraceHeader,
    TraceRecord,
    TraceResult,
)

if TYPE_CHECKING:
    from repro.analysis.graph import PrunePlan
    from repro.checker.memory import Deadline

COUNT_FORMAT = "<Q"
COUNT_SIZE = struct.calcsize(COUNT_FORMAT)
COUNT_BLOCK = 1024  # count entries per cached read block

SPOOL_FORMAT = "q"  # array typecode of one spool entry: int64
SPOOL_BLOCK = 1 << 12  # entries per spool block, rounded up to a record
_RESULT_STATUS = {tag: status for status, tag in _RESULT_TAGS.items()}


@contextmanager
def new_counts_file(
    tmp_dir: str | None = None, prefix: str = "bfcheck-counts-"
) -> Iterator[tuple[str, BinaryIO]]:
    """Yield ``(path, writable handle)`` for a fresh temp file.

    The file is unlinked if the body raises — the caller owns (and must
    eventually unlink) the path only on success.
    """
    fd, path = tempfile.mkstemp(prefix=prefix, dir=tmp_dir)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield path, handle
    except BaseException:
        os.unlink(path)
        raise


def write_count_range(
    handle: BinaryIO,
    low: int,
    high: int,
    get_count: Callable[[int, int], int],
) -> None:
    """Append the dense counts for clause IDs ``[low, high)`` to ``handle``.

    ``get_count`` is typically ``dict.get``; missing IDs are written as 0.
    """
    array(COUNT_FORMAT[1], (get_count(cid, 0) for cid in range(low, high))).tofile(
        handle
    )


def count_records(
    records: Iterable[TraceRecord],
    formula_clauses: int,
    count_range: tuple[int, int] | None = None,
    track_last_use: bool = False,
    deadline: Deadline | None = None,
) -> tuple[list[tuple[int, int]], int, int, dict[int, int], dict[int, int]]:
    """The counting pass over a decoded record stream.

    Returns what the binary scanners return: ``(headers, max_learned_cid,
    num_learned, counts, last_use)``. ``counts`` maps a clause ID to its
    references (learned-clause sources, level-zero antecedents and final
    conflicts), for the IDs in ``count_range`` (``[low, high)``), or
    without one for every ID past the header's original clauses: only
    learned clauses go to the counts file. With ``track_last_use``,
    ``last_use`` maps each counted ID to the stream position of its last
    reference; otherwise it is empty. Each header is checked against
    ``formula_clauses`` as it arrives, so a mismatch fails before the
    rest of the trace is read. ``deadline`` is polled every 1024 records.
    """
    headers: list[tuple[int, int]] = []
    max_cid = 0
    num_learned = 0
    counts: dict[int, int] = {}
    counts_get = counts.get
    last_use: dict[int, int] = {}
    low, high = count_range if count_range is not None else (0, 1 << 62)
    position = 0
    for record in records:
        position += 1
        if deadline is not None and not position & 0x3FF:
            deadline.check()
        if isinstance(record, LearnedClause):
            num_learned += 1
            if record.cid > max_cid:
                max_cid = record.cid
            refs: Sequence[int] = record.sources
        elif isinstance(record, TraceHeader):
            check_clause_count(formula_clauses, record.num_original_clauses)
            headers.append((record.num_vars, record.num_original_clauses))
            if count_range is None:
                low = record.num_original_clauses + 1
            continue
        elif isinstance(record, LevelZeroAssignment):
            refs = (record.antecedent,)
        elif isinstance(record, FinalConflict):
            refs = (record.cid,)
        else:
            continue  # deletions and results reference nothing
        for ref in refs:
            if low <= ref < high:
                counts[ref] = counts_get(ref, 0) + 1
                if track_last_use:
                    last_use[ref] = position
    return headers, max_cid, num_learned, counts, last_use


def write_plan_counts(
    plan: PrunePlan, formula_clauses: int, tmp_dir: str | None, prefix: str
) -> str:
    """Write a prune plan's use counts as a counts file; returns its path.

    The plan stands in for the counting pass: it carries the trace's
    extent and the use counts restricted to the proof cone.
    """
    check_clause_count(formula_clauses, plan.num_original)
    with new_counts_file(tmp_dir, prefix) as (path, handle):
        write_count_range(
            handle, plan.num_original + 1, plan.max_cid + 1, plan.needed_counts.get
        )
    return path


def reading(decode: Callable[[str | Path], Iterable], path: str | Path) -> Iterator:
    """Yield ``decode(path)``'s records; an ``OSError`` is a :class:`TraceError`.

    Wraps opening and reading the trace only, so an ``OSError`` from a
    counts, spool, spill or checkpoint file keeps its own class.
    """
    try:
        yield from decode(path)
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from None


class CountsReader:
    """Block-cached random access into a counts file.

    Checking passes look counts up in ascending clause-ID order, so
    buffering one ``COUNT_BLOCK``-entry block turns the per-clause
    seek+read+unpack into one file read per block.
    """

    __slots__ = ("_file", "_first_learned", "_block", "_block_index")

    def __init__(self, counts_file: BinaryIO, first_learned: int):
        self._file = counts_file
        self._first_learned = first_learned
        self._block: Sequence[int] = ()
        self._block_index = -1

    def read(self, cid: int) -> int:
        """Fetch one use count; fails the check for IDs past the counted range."""
        entry = cid - self._first_learned
        block, index = divmod(entry, COUNT_BLOCK)
        if block != self._block_index:
            self._file.seek(block * COUNT_BLOCK * COUNT_SIZE)
            blob = self._file.read(COUNT_BLOCK * COUNT_SIZE)
            blob = blob[: len(blob) - len(blob) % COUNT_SIZE]
            self._block = array(COUNT_FORMAT[1], blob)
            self._block_index = block
        cached = self._block
        if index >= len(cached):
            raise CheckFailure(
                FailureKind.UNKNOWN_CLAUSE,
                "clause ID outside the counted range",
                cid=cid,
            )
        return cached[index]


class SpoolWriter:
    """Collects a scanner's decoded records and writes them as spool blocks.

    The scanner appends each record's entries to :attr:`entries` and, at a
    record boundary, calls :meth:`flush` once they reach
    :attr:`block_size`, and once more at the end of the trace. A value
    outside int64 (only a corrupt trace holds one) cannot be spooled: the
    writer then sets :attr:`overflowed` and writes nothing more, and the
    checking pass decodes the trace instead.
    """

    __slots__ = ("entries", "block_size", "overflowed", "path", "_handle")

    def __init__(self, handle: BinaryIO):
        self.entries: list[int] = []
        self.block_size = SPOOL_BLOCK
        self.overflowed = False
        self.path: str | None = None  # set by new_spool once the spool is whole
        self._handle = handle

    def flush(self) -> None:
        """Write the collected entries as one block and start the next."""
        entries = self.entries
        if entries and not self.overflowed:
            block = array(SPOOL_FORMAT, (len(entries),))
            try:
                block.fromlist(entries)
            except OverflowError:
                self.overflowed = True
            else:
                block.tofile(self._handle)
        # Cleared in place: the scanner holds bound methods of this list.
        entries.clear()


@contextmanager
def new_spool(
    tmp_dir: str | None = None, prefix: str = "spool-"
) -> Iterator[SpoolWriter]:
    """Yield a :class:`SpoolWriter` on a fresh temp file.

    Afterwards ``spool.path`` names the finished spool, which the caller
    must eventually unlink, or is ``None`` when the spool overflowed (its
    file is gone already). The file is unlinked if the body raises.
    """
    with new_counts_file(tmp_dir, prefix) as (path, handle):
        spool = SpoolWriter(handle)
        yield spool
    if spool.overflowed:
        os.unlink(path)
    else:
        spool.path = path


def open_spool(path: str | None) -> AbstractContextManager[BinaryIO | None]:
    """Open a finished spool for replay; without one, yield ``None``."""
    return open(path, "rb") if path is not None else nullcontext()


def iter_spool(handle: BinaryIO) -> Iterator[TraceRecord | tuple[int, list[int]]]:
    """Replay a spool's records in stream order, one block resident at a time.

    Learned clauses come back as bare ``(cid, sources)`` tuples and every
    other record as its record object: the stream
    :func:`~repro.trace.binary_format.iter_binary_records_raw` decodes
    from the trace itself.
    """
    while True:
        size = array(SPOOL_FORMAT)
        try:
            size.fromfile(handle, 1)
        except EOFError:
            return
        block = array(SPOOL_FORMAT)
        block.fromfile(handle, size[0])
        entries = block.tolist()
        pos = 0
        end = len(entries)
        while pos < end:
            tag = entries[pos]
            if tag == _TAG_LEARNED:
                start = pos + 3
                pos = start + entries[pos + 2]
                yield entries[start - 2], entries[start:pos]
            elif tag == _TAG_LEVEL_ZERO:
                packed = entries[pos + 1]
                yield LevelZeroAssignment(packed >> 1, bool(packed & 1), entries[pos + 2])
                pos += 3
            elif tag == _TAG_FINAL_CONFLICT:
                yield FinalConflict(entries[pos + 1])
                pos += 2
            elif tag == _TAG_HEADER:
                yield TraceHeader(entries[pos + 1], entries[pos + 2])
                pos += 3
            elif tag == _TAG_DELETION:
                yield ClauseDeletion(entries[pos + 1])
                pos += 2
            else:
                yield TraceResult(_RESULT_STATUS[tag])
                pos += 1
