"""Compact binary trace format.

Implements the paper's remark that switching from ASCII to a binary
encoding buys a 2-3x size reduction and faster parsing. Layout:

    magic  b"RTB1"
    records, each:  1 tag byte + LEB128 varint payload

Clause IDs inside a ``CL`` record are delta-encoded against the learned
clause's own ID (sources are always smaller than the learned ID), which
keeps most varints short on real traces.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import IO, Callable, Iterator

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

MAGIC = b"RTB1"

_TAG_HEADER = 0x01
_TAG_LEARNED = 0x02
_TAG_LEVEL_ZERO = 0x03
_TAG_FINAL_CONFLICT = 0x04
_TAG_RESULT_SAT = 0x05
_TAG_RESULT_UNSAT = 0x06
_TAG_RESULT_UNKNOWN = 0x07  # added after v1; old readers never see it from old files
_TAG_DELETION = 0x08  # advisory clause deletion; added with the graph analyzer

_RESULT_TAGS = {
    "SAT": _TAG_RESULT_SAT,
    "UNSAT": _TAG_RESULT_UNSAT,
    "UNKNOWN": _TAG_RESULT_UNKNOWN,
}


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class BinaryTraceWriter:
    """Streams trace records to a compact binary file."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._handle: IO[bytes] = open(self._path, "wb")
        self._handle.write(MAGIC)
        self._closed = False

    def header(self, num_vars: int, num_original_clauses: int) -> None:
        self._handle.write(
            bytes([_TAG_HEADER])
            + encode_varint(num_vars)
            + encode_varint(num_original_clauses)
        )

    def learned_clause(self, cid: int, sources: list[int] | tuple[int, ...]) -> None:
        parts = [bytes([_TAG_LEARNED]), encode_varint(cid), encode_varint(len(sources))]
        for src in sources:
            # Sources always precede the learned clause, so cid - src > 0.
            delta = cid - src
            if delta <= 0:
                raise TraceError(
                    f"learned clause {cid} lists source {src} with id >= its own"
                )
            parts.append(encode_varint(delta))
        self._handle.write(b"".join(parts))

    def clause_deletion(self, cid: int) -> None:
        self._handle.write(bytes([_TAG_DELETION]) + encode_varint(cid))

    def level_zero(self, var: int, value: bool, antecedent: int) -> None:
        self._handle.write(
            bytes([_TAG_LEVEL_ZERO])
            + encode_varint(var * 2 + (1 if value else 0))
            + encode_varint(antecedent)
        )

    def final_conflict(self, cid: int) -> None:
        self._handle.write(bytes([_TAG_FINAL_CONFLICT]) + encode_varint(cid))

    def result(self, status: str) -> None:
        tag = _RESULT_TAGS.get(status)
        if tag is None:
            raise TraceError(
                f"cannot encode result status {status!r}; "
                f"expected one of {sorted(_RESULT_TAGS)}"
            )
        self._handle.write(bytes([tag]))

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


DEFAULT_CHUNK_SIZE = 1 << 18


def _decode_batched(
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    raw_learned: bool = False,
) -> Iterator[TraceRecord | tuple[int, list[int]]]:
    """Batched decoder: inline varint parsing over large buffered chunks.

    Reads the file in ``chunk_size`` blocks and decodes records with
    direct ``buffer[pos]`` indexing — no per-byte method calls. Records
    may straddle a chunk boundary; decoding past the end of the buffer
    raises ``IndexError``, at which point we rewind to the start of the
    torn record, splice in the next chunk, and retry. A record therefore
    decodes at most twice, and the common case is a single pass over each
    chunk.

    With ``raw_learned`` the dominant record type is yielded as a plain
    ``(cid, sources)`` tuple instead of a :class:`LearnedClause` — frozen
    dataclass construction costs more than decoding the record does, and
    a checker hot loop needs only the two fields.
    """
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise TraceError(f"{path}: not a binary trace (bad magic)")
        buffer = handle.read(chunk_size)
        pos = 0
        exhausted = not buffer
        while True:
            if pos >= len(buffer):
                if exhausted:
                    return
                buffer = handle.read(chunk_size)
                pos = 0
                if not buffer:
                    return
                exhausted = len(buffer) < chunk_size
            record_start = pos
            try:
                tag = buffer[pos]
                pos += 1
                if tag == _TAG_LEARNED:
                    # Inline fast path for the dominant record type: the
                    # varint loops are unrolled in place — no function
                    # calls per byte or per varint.
                    cid = buffer[pos]
                    pos += 1
                    if cid & 0x80:
                        cid &= 0x7F
                        shift = 7
                        while True:
                            byte = buffer[pos]
                            pos += 1
                            cid |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    count = buffer[pos]
                    pos += 1
                    if count & 0x80:
                        count &= 0x7F
                        shift = 7
                        while True:
                            byte = buffer[pos]
                            pos += 1
                            count |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    sources = []
                    append = sources.append
                    for _ in range(count):
                        delta = buffer[pos]
                        pos += 1
                        if delta & 0x80:
                            delta &= 0x7F
                            shift = 7
                            while True:
                                byte = buffer[pos]
                                pos += 1
                                delta |= (byte & 0x7F) << shift
                                if not byte & 0x80:
                                    break
                                shift += 7
                                if shift > 63:
                                    raise TraceError("varint too long")
                        append(cid - delta)
                    if raw_learned:
                        yield cid, sources
                    else:
                        yield LearnedClause(cid, tuple(sources))
                elif tag == _TAG_HEADER:
                    num_vars, pos = _varint_at(buffer, pos)
                    num_clauses, pos = _varint_at(buffer, pos)
                    yield TraceHeader(num_vars, num_clauses)
                elif tag == _TAG_LEVEL_ZERO:
                    packed, pos = _varint_at(buffer, pos)
                    antecedent, pos = _varint_at(buffer, pos)
                    yield LevelZeroAssignment(packed >> 1, bool(packed & 1), antecedent)
                elif tag == _TAG_FINAL_CONFLICT:
                    cid, pos = _varint_at(buffer, pos)
                    yield FinalConflict(cid)
                elif tag == _TAG_DELETION:
                    cid, pos = _varint_at(buffer, pos)
                    yield ClauseDeletion(cid)
                elif tag == _TAG_RESULT_SAT:
                    yield TraceResult("SAT")
                elif tag == _TAG_RESULT_UNSAT:
                    yield TraceResult("UNSAT")
                elif tag == _TAG_RESULT_UNKNOWN:
                    yield TraceResult("UNKNOWN")
                else:
                    raise TraceError(f"unknown binary record tag {tag:#x}")
            except IndexError:
                # Torn record at the chunk boundary: keep its prefix,
                # append the next chunk, decode it again from the top.
                if exhausted:
                    raise TraceError("unexpected end of binary trace") from None
                tail = handle.read(chunk_size)
                if not tail:
                    raise TraceError("unexpected end of binary trace") from None
                exhausted = len(tail) < chunk_size
                buffer = buffer[record_start:] + tail
                pos = 0


def _spool_sink(spool) -> tuple[list[int], Callable[[], None], int]:
    """``(entries, flush, block_size)`` of a scanner's spool.

    Without a spool the entries are cleared at every record boundary: the
    chunked scanner still reads a torn record's committed sources there.
    """
    if spool is None:
        entries: list[int] = []
        return entries, entries.clear, 0
    return spool.entries, spool.flush, spool.block_size


def _read(handle: IO[bytes], path: str | Path, size: int) -> bytes:
    """Read from a trace file; a read error is a :class:`TraceError`."""
    try:
        return handle.read(size)
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from None


def scan_binary_learned(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE, spool=None
) -> tuple[list[tuple[int, int]], int, int, dict[int, int]]:
    """One low-level pass over a binary trace: extent plus source-use counts.

    The breadth-first checker's first two passes (find the clause-ID
    extent; count how often each clause is used as a resolve source) need
    only this arithmetic, not the record objects — so this scan decodes
    the varints in place and never constructs a record. Returns
    ``(headers, max_learned_cid, num_learned, counts)`` where ``headers``
    is every header's ``(num_vars, num_original_clauses)`` in stream
    order and ``counts`` maps a clause ID to the number of times it is
    referenced (learned-clause sources, level-zero antecedents and final
    conflicts — the same references the checker's counting pass charges).
    Like :func:`~repro.checker.counts.count_records`, only IDs past the
    header's original clauses are counted: only learned clauses go to
    the counts file.

    With ``spool`` (a :class:`~repro.checker.counts.SpoolWriter`) every
    decoded record is also appended to the spool, so the checking pass
    can replay it instead of decoding the trace again.

    Raises :class:`TraceError` on a malformed, torn or unreadable trace,
    like the record decoders; a read error's message names the path.
    """
    headers: list[tuple[int, int]] = []
    max_cid = 0
    num_learned = 0
    counts: dict[int, int] = {}
    counts_get = counts.get
    low = 0  # the first counted ID: past the originals once a header arrives
    entries, flush, block_size = _spool_sink(spool)
    put = entries.append
    extend = entries.extend
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise TraceError(f"{path}: {exc}") from None
    with handle:
        if _read(handle, path, len(MAGIC)) != MAGIC:
            raise TraceError(f"{path}: not a binary trace (bad magic)")
        buffer = _read(handle, path, chunk_size)
        pos = 0
        exhausted = not buffer
        while True:
            if pos >= len(buffer):
                if exhausted:
                    break
                buffer = _read(handle, path, chunk_size)
                pos = 0
                if not buffer:
                    break
                exhausted = len(buffer) < chunk_size
            record_start = pos
            mark = len(entries)
            if mark >= block_size:
                flush()
                mark = 0
            try:
                tag = buffer[pos]
                pos += 1
                if tag == _TAG_LEARNED:
                    cid = buffer[pos]
                    pos += 1
                    if cid & 0x80:
                        cid &= 0x7F
                        shift = 7
                        while True:
                            byte = buffer[pos]
                            pos += 1
                            cid |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    count = buffer[pos]
                    pos += 1
                    if count & 0x80:
                        count &= 0x7F
                        shift = 7
                        while True:
                            byte = buffer[pos]
                            pos += 1
                            count |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    extend((tag, cid, count))
                    for _ in range(count):
                        delta = buffer[pos]
                        pos += 1
                        if delta & 0x80:
                            delta &= 0x7F
                            shift = 7
                            while True:
                                byte = buffer[pos]
                                pos += 1
                                delta |= (byte & 0x7F) << shift
                                if not byte & 0x80:
                                    break
                                shift += 7
                                if shift > 63:
                                    raise TraceError("varint too long")
                        src = cid - delta
                        if src >= low:
                            counts[src] = counts_get(src, 0) + 1
                        put(src)
                    num_learned += 1
                    if cid > max_cid:
                        max_cid = cid
                elif tag == _TAG_HEADER:
                    num_vars, pos = _varint_at(buffer, pos)
                    num_clauses, pos = _varint_at(buffer, pos)
                    headers.append((num_vars, num_clauses))
                    low = num_clauses + 1
                    extend((tag, num_vars, num_clauses))
                elif tag == _TAG_LEVEL_ZERO:
                    packed, pos = _varint_at(buffer, pos)
                    antecedent, pos = _varint_at(buffer, pos)
                    if antecedent >= low:
                        counts[antecedent] = counts_get(antecedent, 0) + 1
                    extend((tag, packed, antecedent))
                elif tag == _TAG_FINAL_CONFLICT:
                    cid, pos = _varint_at(buffer, pos)
                    if cid >= low:
                        counts[cid] = counts_get(cid, 0) + 1
                    extend((tag, cid))
                elif tag == _TAG_DELETION:
                    # Advisory only: deletions never contribute use counts.
                    cid, pos = _varint_at(buffer, pos)
                    extend((tag, cid))
                elif tag in (_TAG_RESULT_SAT, _TAG_RESULT_UNSAT, _TAG_RESULT_UNKNOWN):
                    put(tag)
                else:
                    raise TraceError(f"unknown binary record tag {tag:#x}")
            except IndexError:
                if exhausted:
                    raise TraceError("unexpected end of binary trace") from None
                tail = _read(handle, path, chunk_size)
                if not tail:
                    raise TraceError("unexpected end of binary trace") from None
                # The torn record is about to be re-parsed from scratch, so
                # what its prefix committed must be rolled back first. Only
                # the learned branch commits mid-record: its tag, cid and
                # count entries, then each source, counted if learned.
                # Tears happen at most once per chunk, so this stays off
                # the hot path.
                for torn_src in entries[mark + 3 :]:
                    if torn_src < low:
                        continue
                    remaining = counts[torn_src] - 1
                    if remaining:
                        counts[torn_src] = remaining
                    else:
                        del counts[torn_src]
                del entries[mark:]
                exhausted = len(tail) < chunk_size
                buffer = buffer[record_start:] + tail
                pos = 0
    flush()
    return headers, max_cid, num_learned, counts


def iter_binary_records_raw(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[TraceRecord | tuple[int, list[int]]]:
    """Batched record stream with learned clauses as ``(cid, sources)``.

    The breadth-first checking pass runs on this: learned-clause records —
    the overwhelming majority — arrive as bare tuples, every other record
    as its normal record object.
    """
    return _decode_batched(path, chunk_size, raw_learned=True)


def _varint_at(buffer: bytes, pos: int) -> tuple[int, int]:
    """Decode one LEB128 varint at ``buffer[pos]``; returns (value, pos)."""
    byte = buffer[pos]
    pos += 1
    if not byte & 0x80:
        return byte, pos
    return _varint_tail(buffer, pos, byte)


def _varint_tail(buffer: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a multi-byte varint whose first byte was ``first``."""
    result = first & 0x7F
    shift = 7
    while True:
        byte = buffer[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceError("varint too long")


def iter_binary_records(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[TraceRecord]:
    """Stream records from a binary trace file (constant memory), decoded
    in buffered batches."""
    return _decode_batched(path, chunk_size)


def read_binary_trace(path: str | Path) -> Trace:
    """Load a full binary trace into memory."""
    return assemble_trace(iter_binary_records(path))


# -- mmap zero-copy decoding ---------------------------------------------------
#
# The chunked decoders above copy the file into Python bytes objects and
# splice torn records across chunk boundaries. Mapping the file instead
# gives one contiguous read-only buffer: records decode with direct
# ``view[pos]`` indexing against the page cache, no copies and no tears,
# and a checker can hold a byte *cursor* into the proof — the foundation
# of the shifting-window checker (:mod:`repro.checker.streaming`).


class MappedBinaryTrace:
    """A zero-copy ``mmap`` view of a binary trace file.

    ``view`` is a :class:`memoryview` over the whole mapping; record
    payloads start at ``payload_start`` (past the magic). Decoding works
    on ``view`` slices without materializing the file — resident memory
    is whatever pages the OS keeps cached, not the trace size.
    """

    __slots__ = ("path", "_file", "_map", "view", "size", "payload_start")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file: IO[bytes] | None = open(self.path, "rb")
        try:
            self._map: mmap.mmap | None = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (ValueError, OSError) as exc:
            self._file.close()
            self._file = None
            self._map = None
            raise TraceError(f"{path}: cannot map binary trace ({exc})") from None
        self.view: memoryview | None = memoryview(self._map)
        self.size = len(self.view)
        if bytes(self.view[: len(MAGIC)]) != MAGIC:
            self.close()
            raise TraceError(f"{path}: not a binary trace (bad magic)")
        self.payload_start = len(MAGIC)

    def close(self) -> None:
        if self.view is not None:
            self.view.release()
            self.view = None
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MappedBinaryTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def decode_mapped_batch(
    view: memoryview,
    pos: int,
    max_records: int,
    raw_learned: bool = True,
) -> tuple[list, int]:
    """Decode up to ``max_records`` records from a mapped trace at ``pos``.

    Returns ``(items, new_pos)``; an empty ``items`` means end of trace.
    The buffer is the whole mapping, so — unlike the chunked decoders —
    there are no torn records to rewind: running off the end of the view
    is simply a truncated trace (:class:`TraceError`). With
    ``raw_learned`` the dominant record type comes back as a bare
    ``(cid, sources)`` tuple, exactly like
    :func:`iter_binary_records_raw`.
    """
    items: list = []
    append = items.append
    end = len(view)
    remaining = max_records
    try:
        while remaining > 0 and pos < end:
            tag = view[pos]
            pos += 1
            if tag == _TAG_LEARNED:
                cid = view[pos]
                pos += 1
                if cid & 0x80:
                    cid &= 0x7F
                    shift = 7
                    while True:
                        byte = view[pos]
                        pos += 1
                        cid |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise TraceError("varint too long")
                count = view[pos]
                pos += 1
                if count & 0x80:
                    count &= 0x7F
                    shift = 7
                    while True:
                        byte = view[pos]
                        pos += 1
                        count |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise TraceError("varint too long")
                sources = []
                src_append = sources.append
                for _ in range(count):
                    delta = view[pos]
                    pos += 1
                    if delta & 0x80:
                        delta &= 0x7F
                        shift = 7
                        while True:
                            byte = view[pos]
                            pos += 1
                            delta |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    src_append(cid - delta)
                if raw_learned:
                    append((cid, sources))
                else:
                    append(LearnedClause(cid, tuple(sources)))
            elif tag == _TAG_HEADER:
                num_vars, pos = _varint_at(view, pos)
                num_clauses, pos = _varint_at(view, pos)
                append(TraceHeader(num_vars, num_clauses))
            elif tag == _TAG_LEVEL_ZERO:
                packed, pos = _varint_at(view, pos)
                antecedent, pos = _varint_at(view, pos)
                append(LevelZeroAssignment(packed >> 1, bool(packed & 1), antecedent))
            elif tag == _TAG_FINAL_CONFLICT:
                cid, pos = _varint_at(view, pos)
                append(FinalConflict(cid))
            elif tag == _TAG_DELETION:
                cid, pos = _varint_at(view, pos)
                append(ClauseDeletion(cid))
            elif tag == _TAG_RESULT_SAT:
                append(TraceResult("SAT"))
            elif tag == _TAG_RESULT_UNSAT:
                append(TraceResult("UNSAT"))
            elif tag == _TAG_RESULT_UNKNOWN:
                append(TraceResult("UNKNOWN"))
            else:
                raise TraceError(f"unknown binary record tag {tag:#x}")
            remaining -= 1
    except IndexError:
        raise TraceError("unexpected end of binary trace") from None
    return items, pos


def scan_mapped_learned(
    view: memoryview,
    count_range: tuple[int, int] | None = None,
    track_last_use: bool = False,
    spool=None,
) -> tuple[list[tuple[int, int]], int, int, dict[int, int], dict[int, int]]:
    """Extent + use counts in one zero-copy pass over a mapped trace.

    The mmap sibling of :func:`scan_binary_learned`: decodes varints in
    place off the view, never constructs record objects, and — because
    the buffer is the whole file — needs no torn-record rollback at all.
    Returns ``(headers, max_learned_cid, num_learned, counts, last_use)``.

    ``counts`` holds the IDs past the header's original clauses, or with
    ``count_range`` the IDs in ``[low, high)`` (the chunked-counting
    mode). ``last_use`` maps each counted clause ID to the stream
    position (a running record ordinal, every record counted) of its
    *last* reference — what the shifting-window checker keys its
    evictions by; empty unless ``track_last_use``. ``spool`` is a
    :class:`~repro.checker.counts.SpoolWriter` that receives every
    decoded record, as in :func:`scan_binary_learned`.
    """
    headers: list[tuple[int, int]] = []
    max_cid = 0
    num_learned = 0
    counts: dict[int, int] = {}
    counts_get = counts.get
    last_use: dict[int, int] = {}
    low, high = count_range if count_range is not None else (0, 1 << 62)
    entries, flush, block_size = _spool_sink(spool)
    put = entries.append
    extend = entries.extend
    pos = len(MAGIC)
    end = len(view)
    position = 0  # running record ordinal, the last_use clock
    try:
        while pos < end:
            if len(entries) >= block_size:
                flush()
            tag = view[pos]
            pos += 1
            position += 1
            if tag == _TAG_LEARNED:
                cid = view[pos]
                pos += 1
                if cid & 0x80:
                    cid &= 0x7F
                    shift = 7
                    while True:
                        byte = view[pos]
                        pos += 1
                        cid |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise TraceError("varint too long")
                count = view[pos]
                pos += 1
                if count & 0x80:
                    count &= 0x7F
                    shift = 7
                    while True:
                        byte = view[pos]
                        pos += 1
                        count |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise TraceError("varint too long")
                extend((tag, cid, count))
                for _ in range(count):
                    delta = view[pos]
                    pos += 1
                    if delta & 0x80:
                        delta &= 0x7F
                        shift = 7
                        while True:
                            byte = view[pos]
                            pos += 1
                            delta |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise TraceError("varint too long")
                    src = cid - delta
                    if low <= src < high:
                        counts[src] = counts_get(src, 0) + 1
                        if track_last_use:
                            last_use[src] = position
                    put(src)
                num_learned += 1
                if cid > max_cid:
                    max_cid = cid
            elif tag == _TAG_HEADER:
                num_vars, pos = _varint_at(view, pos)
                num_clauses, pos = _varint_at(view, pos)
                headers.append((num_vars, num_clauses))
                if count_range is None:
                    low = num_clauses + 1
                extend((tag, num_vars, num_clauses))
            elif tag == _TAG_LEVEL_ZERO:
                packed, pos = _varint_at(view, pos)
                antecedent, pos = _varint_at(view, pos)
                if low <= antecedent < high:
                    counts[antecedent] = counts_get(antecedent, 0) + 1
                    if track_last_use:
                        last_use[antecedent] = position
                extend((tag, packed, antecedent))
            elif tag == _TAG_FINAL_CONFLICT:
                cid, pos = _varint_at(view, pos)
                if low <= cid < high:
                    counts[cid] = counts_get(cid, 0) + 1
                    if track_last_use:
                        last_use[cid] = position
                extend((tag, cid))
            elif tag == _TAG_DELETION:
                # Advisory only: deletions never contribute use counts.
                cid, pos = _varint_at(view, pos)
                extend((tag, cid))
            elif tag in (_TAG_RESULT_SAT, _TAG_RESULT_UNSAT, _TAG_RESULT_UNKNOWN):
                put(tag)
            else:
                raise TraceError(f"unknown binary record tag {tag:#x}")
    except IndexError:
        raise TraceError("unexpected end of binary trace") from None
    flush()
    return headers, max_cid, num_learned, counts, last_use
