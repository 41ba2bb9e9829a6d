"""The record spool: the counting pass's decoded records, replayed.

BF and the streaming checker decode a binary trace once. The counting
pass spools every record it decodes (:class:`SpoolWriter`), and the
checking pass replays the spool (:func:`iter_spool`). The replay must be
the stream the raw decoders yield, in any block layout; a resumed BF run
must skip into the middle of a block; and no spool or counts file may
outlive a check.
"""

from __future__ import annotations

import io
import os
from array import array
from pathlib import Path

import pytest

from repro.checker import BreadthFirstChecker, FailureKind, StreamingWindowChecker, load_checkpoint
from repro.checker import breadth_first, counts, streaming
from repro.checker.counts import SPOOL_FORMAT, SpoolWriter, iter_spool
from repro.solver import Solver, SolverConfig
from repro.solver.buggy import BugKind, CorruptingTraceWriter
from repro.trace import BinaryTraceWriter, read_binary_trace
from repro.trace.binary_format import (
    MappedBinaryTrace,
    iter_binary_records_raw,
    scan_binary_learned,
    scan_mapped_learned,
)

from tests.conftest import pigeonhole

ENTRY_SIZE = array(SPOOL_FORMAT).itemsize


@pytest.fixture(scope="module")
def every_record_kind(tmp_path_factory):
    """A binary trace holding every record kind the format has."""
    path = tmp_path_factory.mktemp("spool") / "kinds.rtb"
    with BinaryTraceWriter(path) as writer:
        writer.header(3, 4)
        writer.learned_clause(5, [1])
        writer.learned_clause(6, [5, 4, 3, 2, 1])
        writer.clause_deletion(5)
        writer.level_zero(1, True, 6)
        writer.level_zero(2, False, 300)  # a multi-byte varint
        writer.learned_clause(700, [6, 2])
        writer.final_conflict(700)
        for status in ("SAT", "UNSAT", "UNKNOWN"):
            writer.result(status)
    return str(path)


def _solved_binary(formula, path) -> str:
    writer = BinaryTraceWriter(path)
    assert Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    writer.close()
    return str(path)


@pytest.fixture(scope="module")
def php_binary(tmp_path_factory):
    """php(6,5) and its binary solver trace."""
    formula = pigeonhole(6, 5)
    return formula, _solved_binary(formula, tmp_path_factory.mktemp("spool-php") / "php.rtb")


def _spool(scan) -> bytes:
    """Run ``scan(spool)`` into memory; returns the spool's bytes."""
    buffer = io.BytesIO()
    scan(SpoolWriter(buffer))
    return buffer.getvalue()


def _blocks(data: bytes) -> list[bytes]:
    """Split spool bytes into blocks, each with its entry count in front."""
    blocks, pos = [], 0
    while pos < len(data):
        (size,) = array(SPOOL_FORMAT, data[pos : pos + ENTRY_SIZE])
        end = pos + ENTRY_SIZE * (1 + size)
        blocks.append(data[pos:end])
        pos = end
    assert pos == len(data)
    return blocks


def _scanners(path):
    def chunked(spool, chunk_size=3):
        scan_binary_learned(path, chunk_size=chunk_size, spool=spool)

    def mapped(spool):
        with MappedBinaryTrace(path) as trace:
            scan_mapped_learned(trace.view, track_last_use=True, spool=spool)

    def mapped_extent(spool):
        with MappedBinaryTrace(path) as trace:
            scan_mapped_learned(trace.view, count_range=(0, 0), spool=spool)

    return {"chunked": chunked, "mapped": mapped, "mapped-extent": mapped_extent}


@pytest.mark.parametrize("scanner", ["chunked", "mapped", "mapped-extent"])
@pytest.mark.parametrize("block_size", [1, 2, 3, 5, 8, 13, 1 << 14])
def test_spool_replays_every_record_kind(every_record_kind, monkeypatch, scanner, block_size):
    monkeypatch.setattr(counts, "SPOOL_BLOCK", block_size)
    expected = list(iter_binary_records_raw(every_record_kind))
    data = _spool(_scanners(every_record_kind)[scanner])
    assert list(iter_spool(io.BytesIO(data))) == expected
    blocks = _blocks(data)
    per_block = [list(iter_spool(io.BytesIO(block))) for block in blocks]
    # Every block holds whole records; at block size 1 every record
    # boundary is a block boundary.
    assert [record for block in per_block for record in block] == expected
    if block_size == 1:
        assert [len(block) for block in per_block] == [1] * len(expected)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
def test_torn_records_are_rolled_back_out_of_the_spool(every_record_kind, monkeypatch, chunk_size):
    """Chunk sizes that tear every record shape across a buffer boundary."""
    monkeypatch.setattr(counts, "SPOOL_BLOCK", 4)
    whole = _spool(lambda spool: scan_binary_learned(every_record_kind, spool=spool))
    torn = _spool(
        lambda spool: _scanners(every_record_kind)["chunked"](spool, chunk_size=chunk_size)
    )
    assert torn == whole


def test_a_value_past_int64_leaves_no_spool(tmp_path):
    formula = pigeonhole(4, 3)
    trace = read_binary_trace(_solved_binary(formula, tmp_path / "php.rtb"))
    path = tmp_path / "huge.rtb"
    with BinaryTraceWriter(path) as writer:
        writer.header(trace.header.num_vars, trace.header.num_original_clauses)
        for record in trace.learned.values():
            writer.learned_clause(record.cid, record.sources)
        for entry in trace.level_zero:
            writer.level_zero(entry.var, entry.value, entry.antecedent)
        writer.level_zero(formula.num_vars + 1, True, 1 << 65)
        writer.final_conflict(1 << 66)
        writer.result("UNSAT")
    spool = SpoolWriter(io.BytesIO())
    scan_binary_learned(path, spool=spool)
    assert spool.overflowed and not spool.entries

    # Such a trace is checked by decoding it again, with the same verdict.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    for checker in (BreadthFirstChecker, StreamingWindowChecker):
        from_file = checker(formula, str(path), tmp_dir=scratch).check()
        decoded = checker(formula, read_binary_trace(path)).check()
        assert from_file.failure is not None
        assert from_file.failure.kind == decoded.failure.kind
        assert from_file.failure.message == decoded.failure.message
        assert from_file.failure.context == decoded.failure.context
        assert from_file.clauses_built == decoded.clauses_built
        assert os.listdir(scratch) == []


def test_bf_resumes_from_a_position_inside_a_spool_block(php_binary, monkeypatch, tmp_path):
    formula, path = php_binary
    monkeypatch.setattr(counts, "SPOOL_BLOCK", 64)
    blocks = _blocks(_spool(lambda spool: scan_binary_learned(path, spool=spool)))
    assert len(blocks) > 3
    starts, seen = set(), 0
    for block in blocks:
        starts.add(seen)
        seen += len(list(iter_spool(io.BytesIO(block))))

    ckpt = tmp_path / "bf.ckpt"
    full = BreadthFirstChecker(
        formula, path, checkpoint_path=str(ckpt), checkpoint_every=30
    ).check()
    assert full.verified
    position = load_checkpoint(str(ckpt)).records_consumed
    assert 0 < position < seen and position not in starts

    resumed = BreadthFirstChecker(formula, path, resume_from=str(ckpt))
    report = resumed.check()
    assert resumed.resumed and resumed.resume_error is None
    assert report.verified
    assert report.clauses_built == full.clauses_built
    assert report.resolutions == full.resolutions
    assert report.peak_memory_units == full.peak_memory_units


def _bad_resolution_trace(formula, tmp_path) -> str:
    for seed in range(50):
        path = tmp_path / f"bad-{seed}.rtb"
        inner = BinaryTraceWriter(path)
        writer = CorruptingTraceWriter(inner, BugKind.SWAP_SOURCES, seed=seed)
        Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve()
        inner.close()
        report = BreadthFirstChecker(formula, str(path)).check()
        if report.failure is not None and report.failure.kind is FailureKind.BAD_RESOLUTION:
            return str(path)
    raise AssertionError("no seed produced a bad-resolution trace")


@pytest.mark.parametrize("checker", [BreadthFirstChecker, StreamingWindowChecker])
@pytest.mark.parametrize("case", ["verified", "bad-resolution", "torn"])
def test_no_spool_or_counts_file_outlives_a_check(
    php_binary, tmp_path, monkeypatch, checker, case
):
    formula, path = php_binary
    if case == "bad-resolution":
        path = _bad_resolution_trace(formula, tmp_path)
    elif case == "torn":
        blob = Path(path).read_bytes()
        path = str(tmp_path / "torn.rtb")
        Path(path).write_bytes(blob[: int(len(blob) * 0.6)])
    scratch = tmp_path / "scratch"
    scratch.mkdir()

    during = []
    module = breadth_first if checker is BreadthFirstChecker else streaming

    def spy(handle):
        during.append(sorted(name.split("-")[1] for name in os.listdir(scratch)))
        return iter_spool(handle)

    monkeypatch.setattr(module, "iter_spool", spy)
    report = checker(formula, path, tmp_dir=scratch).check()
    expected = {
        "verified": None,
        "bad-resolution": FailureKind.BAD_RESOLUTION,
        "torn": FailureKind.MALFORMED_TRACE,
    }[case]
    assert (report.failure.kind if report.failure else None) is expected
    # The checking pass replayed a spool, except when the scan tore.
    assert during == ([] if case == "torn" else [["counts", "spool"]])
    assert os.listdir(scratch) == []
