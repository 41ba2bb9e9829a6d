"""Round-trip and validation tests for the trace formats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace import (
    AsciiTraceWriter,
    BinaryTraceWriter,
    FinalConflict,
    InMemoryTraceWriter,
    LearnedClause,
    LevelZeroAssignment,
    TraceError,
    TraceHeader,
    TraceResult,
    iter_trace_records,
    load_trace,
    open_trace_writer,
    read_ascii_trace,
    read_binary_trace,
)
from repro.trace.binary_format import encode_varint
from repro.trace.records import assemble_trace

from tests.trace.reference_decoder import decode_varint


def _write_sample(writer):
    writer.header(4, 3)
    writer.learned_clause(4, [3, 1])
    writer.learned_clause(5, [4, 2, 1])
    writer.clause_deletion(4)
    writer.level_zero(1, True, 4)
    writer.level_zero(2, False, 5)
    writer.final_conflict(3)
    writer.result("UNSAT")
    writer.close()


def _check_sample(trace):
    assert trace.header == TraceHeader(4, 3)
    assert trace.learned[4].sources == (3, 1)
    assert trace.learned[5].sources == (4, 2, 1)
    assert trace.deletions == {5: [4]}  # anchored to the last learned cid
    assert trace.level_zero == [
        LevelZeroAssignment(1, True, 4),
        LevelZeroAssignment(2, False, 5),
    ]
    assert trace.final_conflicts == [3]
    assert trace.status == "UNSAT"


def test_ascii_roundtrip(tmp_path):
    path = tmp_path / "t.trace"
    _write_sample(AsciiTraceWriter(path))
    _check_sample(read_ascii_trace(path))


def test_binary_roundtrip(tmp_path):
    path = tmp_path / "t.rtb"
    _write_sample(BinaryTraceWriter(path))
    _check_sample(read_binary_trace(path))


def test_autodetect_both_formats(tmp_path):
    ascii_path = tmp_path / "a.trace"
    binary_path = tmp_path / "b.rtb"
    _write_sample(AsciiTraceWriter(ascii_path))
    _write_sample(BinaryTraceWriter(binary_path))
    _check_sample(load_trace(ascii_path))
    _check_sample(load_trace(binary_path))


def test_in_memory_writer():
    writer = InMemoryTraceWriter()
    _write_sample(writer)
    assert writer.closed
    _check_sample(writer.to_trace())


def test_open_trace_writer_dispatch(tmp_path):
    assert isinstance(open_trace_writer(tmp_path / "x", "ascii"), AsciiTraceWriter)
    assert isinstance(open_trace_writer(tmp_path / "y", "binary"), BinaryTraceWriter)
    with pytest.raises(ValueError):
        open_trace_writer(tmp_path / "z", "json")


def test_binary_is_smaller_than_ascii(tmp_path):
    ascii_path = tmp_path / "a.trace"
    binary_path = tmp_path / "b.rtb"
    with AsciiTraceWriter(ascii_path) as aw, BinaryTraceWriter(binary_path) as bw:
        for writer in (aw, bw):
            writer.header(1000, 5000)
            for cid in range(5001, 6001):
                writer.learned_clause(cid, [cid - 1, cid - 2, cid - 3, 17])
            writer.final_conflict(42)
            writer.result("UNSAT")
    ascii_size = ascii_path.stat().st_size
    binary_size = binary_path.stat().st_size
    assert binary_size * 2 < ascii_size  # the paper's "2-3x compaction"


def test_ascii_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("T 1 1\nXYZ 3\n")
    with pytest.raises(TraceError):
        list(iter_trace_records(path))


def test_ascii_unknown_tag_keeps_its_own_message(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("T 1 2\nXX 3\nR UNSAT\n")
    with pytest.raises(TraceError) as excinfo:
        list(iter_trace_records(path))
    assert str(excinfo.value) == "line 2: unknown record tag 'XX'"


def test_ascii_rejects_truncated_record(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("T 1\n")
    with pytest.raises(TraceError) as excinfo:
        list(iter_trace_records(path))
    assert str(excinfo.value) == "line 1: malformed record 'T 1'"


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rtb"
    path.write_bytes(b"NOPE")
    with pytest.raises(TraceError):
        list(read_binary_trace(path).records())


def test_binary_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.rtb"
    good = tmp_path / "good.rtb"
    _write_sample(BinaryTraceWriter(good))
    data = good.read_bytes()
    path.write_bytes(data[:6])  # header record cut mid-payload
    with pytest.raises(TraceError):
        list(read_binary_trace(path).records())


def test_binary_rejects_forward_source_reference(tmp_path):
    writer = BinaryTraceWriter(tmp_path / "f.rtb")
    writer.header(1, 1)
    with pytest.raises(TraceError):
        writer.learned_clause(5, [5])
    writer.close()


def test_assemble_rejects_duplicate_learned_id():
    records = [TraceHeader(2, 2), LearnedClause(3, (1, 2)), LearnedClause(3, (2, 1))]
    with pytest.raises(TraceError):
        assemble_trace(iter(records))


def test_assemble_rejects_learned_id_colliding_with_original():
    records = [TraceHeader(2, 5), LearnedClause(3, (1, 2))]
    with pytest.raises(TraceError):
        assemble_trace(iter(records))


def test_assemble_rejects_record_before_header():
    with pytest.raises(TraceError):
        assemble_trace(iter([LearnedClause(3, (1, 2))]))


def test_assemble_rejects_empty():
    with pytest.raises(TraceError):
        assemble_trace(iter([]))


def test_learned_clause_requires_sources():
    with pytest.raises(TraceError):
        LearnedClause(10, ())


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_deletion_positions_roundtrip(tmp_path, fmt):
    """Deletions keep their stream position: before any learned record
    (anchor 0), mid-stream, and several under one anchor."""
    path = tmp_path / f"d.{fmt}"
    writer = open_trace_writer(path, fmt)
    writer.header(4, 3)
    writer.clause_deletion(2)  # deleting an original clause, pre-learning
    writer.learned_clause(4, [3, 1])
    writer.clause_deletion(4)
    writer.learned_clause(5, [4, 2, 1])
    writer.clause_deletion(4)
    writer.clause_deletion(5)
    writer.final_conflict(5)
    writer.result("UNSAT")
    writer.close()
    trace = load_trace(path)
    assert trace.deletions == {0: [2], 4: [4], 5: [4, 5]}
    # The record stream replays deletions in their original interleaving.
    from repro.trace.records import ClauseDeletion

    kinds = [
        record.cid for record in trace.records() if isinstance(record, ClauseDeletion)
    ]
    assert kinds == [2, 4, 4, 5]


def test_trace_records_replay():
    writer = InMemoryTraceWriter()
    _write_sample(writer)
    trace = writer.to_trace()
    replayed = assemble_trace(trace.records())
    _check_sample(replayed)


def test_antecedent_of():
    writer = InMemoryTraceWriter()
    _write_sample(writer)
    trace = writer.to_trace()
    assert trace.antecedent_of(1) == 4
    assert trace.antecedent_of(2) == 5
    assert trace.antecedent_of(99) is None


@given(st.integers(min_value=0, max_value=2**60))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)

    class OneShot:
        def __init__(self, data):
            self.data = data
            self.pos = 0

        def next_byte(self):
            byte = self.data[self.pos]
            self.pos += 1
            return byte

    assert decode_varint(OneShot(encoded)) == value


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        encode_varint(-1)


learned_ids = st.integers(min_value=10, max_value=10_000)


@given(
    st.lists(
        st.tuples(learned_ids, st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)),
        min_size=1,
        max_size=30,
        unique_by=lambda t: t[0],
    )
)
def test_binary_roundtrip_property(tmp_path_factory_entries):
    import tempfile
    import os

    entries = tmp_path_factory_entries
    fd, path = tempfile.mkstemp(suffix=".rtb")
    os.close(fd)
    try:
        writer = BinaryTraceWriter(path)
        writer.header(100, 9)
        for cid, sources in entries:
            writer.learned_clause(cid, sources)
        writer.result("UNSAT")
        writer.close()
        trace = read_binary_trace(path)
        assert trace.num_learned == len(entries)
        for cid, sources in entries:
            assert trace.learned[cid].sources == tuple(sources)
    finally:
        os.unlink(path)
