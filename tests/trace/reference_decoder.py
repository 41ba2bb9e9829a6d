"""The byte-at-a-time binary trace decoder, kept as a test-only reference.

This is the decoder :func:`repro.trace.binary_format.iter_binary_records`
replaced: every byte goes through a ``next_byte()`` method call and every
varint through :func:`decode_varint`. It is slow but has no chunk
boundaries to tear a record across, which makes it the oracle the parity
tests (``test_decoder_parity.py``) hold the batched decoder, the fused
scan and the raw iterator to.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator

from repro.trace.binary_format import (
    _TAG_DELETION,
    _TAG_FINAL_CONFLICT,
    _TAG_HEADER,
    _TAG_LEARNED,
    _TAG_LEVEL_ZERO,
    _TAG_RESULT_SAT,
    _TAG_RESULT_UNKNOWN,
    _TAG_RESULT_UNSAT,
    MAGIC,
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


def decode_varint(read: "_ByteReader") -> int:
    """Decode one LEB128 varint from a byte reader."""
    shift = 0
    result = 0
    while True:
        byte = read.next_byte()
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise TraceError("varint too long")


class _ByteReader:
    """Buffered byte-at-a-time reader over a binary stream."""

    def __init__(self, handle: IO[bytes], chunk_size: int = 1 << 16):
        self._handle = handle
        self._chunk_size = chunk_size
        self._buffer = b""
        self._pos = 0

    def next_byte(self) -> int:
        if self._pos >= len(self._buffer):
            self._buffer = self._handle.read(self._chunk_size)
            self._pos = 0
            if not self._buffer:
                raise TraceError("unexpected end of binary trace")
        byte = self._buffer[self._pos]
        self._pos += 1
        return byte

    def at_eof(self) -> bool:
        if self._pos < len(self._buffer):
            return False
        self._buffer = self._handle.read(self._chunk_size)
        self._pos = 0
        return not self._buffer


def iter_binary_records_unbatched(path: str | Path) -> Iterator[TraceRecord]:
    """Stream records from a binary trace file, one byte call at a time."""
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise TraceError(f"{path}: not a binary trace (bad magic)")
        reader = _ByteReader(handle)
        while not reader.at_eof():
            tag = reader.next_byte()
            if tag == _TAG_HEADER:
                yield TraceHeader(decode_varint(reader), decode_varint(reader))
            elif tag == _TAG_LEARNED:
                cid = decode_varint(reader)
                count = decode_varint(reader)
                sources = tuple(cid - decode_varint(reader) for _ in range(count))
                yield LearnedClause(cid, sources)
            elif tag == _TAG_LEVEL_ZERO:
                packed = decode_varint(reader)
                yield LevelZeroAssignment(packed >> 1, bool(packed & 1), decode_varint(reader))
            elif tag == _TAG_FINAL_CONFLICT:
                yield FinalConflict(decode_varint(reader))
            elif tag == _TAG_DELETION:
                yield ClauseDeletion(decode_varint(reader))
            elif tag == _TAG_RESULT_SAT:
                yield TraceResult("SAT")
            elif tag == _TAG_RESULT_UNSAT:
                yield TraceResult("UNSAT")
            elif tag == _TAG_RESULT_UNKNOWN:
                yield TraceResult("UNKNOWN")
            else:
                raise TraceError(f"unknown binary record tag {tag:#x}")
