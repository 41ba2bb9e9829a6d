"""Batched decoder, fused scan and raw iterator vs the byte-at-a-time reference.

The batched decoder is a pure performance change: for any trace file —
including ones whose records straddle chunk boundaries — it must produce
byte-identical record streams, the fused :func:`scan_binary_learned` must
agree with those records on every derived quantity, and the raw learned
iterator must carry the same payloads without the dataclass wrappers.
Every counting scanner counts learned clauses only, and they all agree.
"""

import pytest

from repro.cnf import CnfFormula
from repro.checker import BreadthFirstChecker
from repro.checker.counts import count_records
from repro.solver import solve_formula
from repro.trace import InMemoryTraceWriter, TraceError
from repro.trace.binary_format import (
    DEFAULT_CHUNK_SIZE,
    MappedBinaryTrace,
    _decode_batched,
    iter_binary_records,
    iter_binary_records_raw,
    scan_binary_learned,
    scan_mapped_learned,
)
from repro.trace.io import iter_trace_records, load_trace, open_trace_writer
from repro.trace.records import LearnedClause, LevelZeroAssignment, TraceHeader

from tests.conftest import pigeonhole
from tests.trace.reference_decoder import iter_binary_records_unbatched


@pytest.fixture(scope="module")
def sample_trace_path(tmp_path_factory):
    """A real solver trace, written in binary: headers, chains, level-zero
    assignments, final conflicts and a result record."""
    formula = pigeonhole(5, 4)
    inner = InMemoryTraceWriter()
    result = solve_formula(formula, trace_writer=inner)
    assert result.is_unsat
    trace = inner.to_trace()
    path = tmp_path_factory.mktemp("decoder") / "sample.rtb"
    with open_trace_writer(path, fmt="binary") as writer:
        writer.header(trace.header.num_vars, trace.header.num_original_clauses)
        for record in trace.learned.values():
            writer.learned_clause(record.cid, record.sources)
        for entry in trace.level_zero:
            writer.level_zero(entry.var, entry.value, entry.antecedent)
        for cid in trace.final_conflicts:
            writer.final_conflict(cid)
        writer.result(trace.status)
    return path


def test_batched_matches_unbatched_record_stream(sample_trace_path):
    batched = list(iter_binary_records(sample_trace_path))
    legacy = list(iter_binary_records_unbatched(sample_trace_path))
    assert batched == legacy
    assert any(isinstance(rec, LearnedClause) for rec in batched)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, DEFAULT_CHUNK_SIZE])
def test_batched_is_chunk_size_invariant(sample_trace_path, chunk_size):
    # Tiny chunks force every record shape to straddle a buffer boundary.
    sliced = list(_decode_batched(sample_trace_path, chunk_size=chunk_size))
    assert sliced == list(iter_binary_records_unbatched(sample_trace_path))


def test_raw_iterator_matches_learned_records(sample_trace_path):
    records = list(iter_binary_records(sample_trace_path))
    raw = list(iter_binary_records_raw(sample_trace_path))
    assert len(raw) == len(records)
    for rec, raw_rec in zip(records, raw):
        if isinstance(rec, LearnedClause):
            assert type(raw_rec) is tuple
            cid, sources = raw_rec
            assert cid == rec.cid
            assert tuple(sources) == rec.sources
        else:
            assert raw_rec == rec


@pytest.mark.parametrize("chunk_size", [3, DEFAULT_CHUNK_SIZE])
def test_fused_scan_agrees_with_record_stream(sample_trace_path, chunk_size):
    headers, max_cid, num_learned, counts = scan_binary_learned(
        sample_trace_path, chunk_size=chunk_size
    )
    records = list(iter_binary_records_unbatched(sample_trace_path))
    learned = [rec for rec in records if isinstance(rec, LearnedClause)]

    assert headers == [
        (rec.num_vars, rec.num_original_clauses)
        for rec in records
        if hasattr(rec, "num_original_clauses")
    ]
    assert num_learned == len(learned)
    assert max_cid == max(rec.cid for rec in learned)

    # Only learned clauses are counted: IDs past the header's originals.
    (num_original,) = {num for _, num in headers}
    expected: dict[int, int] = {}

    def tally(cid):
        if cid > num_original:
            expected[cid] = expected.get(cid, 0) + 1

    for rec in learned:
        for src in rec.sources:
            tally(src)
    for rec in records:
        if isinstance(rec, LevelZeroAssignment):
            tally(rec.antecedent)
    for rec in records:
        if hasattr(rec, "cid") and not isinstance(rec, LearnedClause):
            tally(rec.cid)
    assert counts == expected


def _reference_tally(path):
    """Learned-clause use counts and last uses, tallied from the records."""
    counts: dict[int, int] = {}
    last_use: dict[int, int] = {}
    num_original = None
    for position, rec in enumerate(iter_binary_records_unbatched(path), start=1):
        if isinstance(rec, TraceHeader):
            num_original = rec.num_original_clauses
            continue
        if isinstance(rec, LearnedClause):
            refs = rec.sources
        elif isinstance(rec, LevelZeroAssignment):
            refs = (rec.antecedent,)
        else:
            refs = (rec.cid,) if hasattr(rec, "cid") else ()
        for ref in refs:
            if ref > num_original:
                counts[ref] = counts.get(ref, 0) + 1
                last_use[ref] = position
    return num_original, counts, last_use


def _ascii_copy(path, tmp_path):
    ascii_path = tmp_path / "sample.trace"
    with open_trace_writer(ascii_path, fmt="ascii") as writer:
        for rec in iter_binary_records(path):
            if isinstance(rec, TraceHeader):
                writer.header(rec.num_vars, rec.num_original_clauses)
            elif isinstance(rec, LearnedClause):
                writer.learned_clause(rec.cid, rec.sources)
            elif isinstance(rec, LevelZeroAssignment):
                writer.level_zero(rec.var, rec.value, rec.antecedent)
            elif hasattr(rec, "cid"):
                writer.final_conflict(rec.cid)
            else:
                writer.result(rec.status)
    return ascii_path


@pytest.mark.parametrize(
    "scanner",
    ["chunked-1", "chunked-3", "chunked-7", "chunked-default", "mapped", "ascii", "in-memory"],
)
def test_every_scanner_counts_learned_clauses_only(sample_trace_path, tmp_path, scanner):
    """Counts and last uses agree across the scanners and hold learned IDs
    only. Chunk sizes 1, 3 and 7 tear records inside their sources, so the
    chunked scanner must roll back exactly what it counted."""
    num_original, expected_counts, expected_last_use = _reference_tally(sample_trace_path)
    assert min(expected_counts) > num_original
    last_use = None
    if scanner.startswith("chunked-"):
        size = scanner.removeprefix("chunked-")
        chunk_size = DEFAULT_CHUNK_SIZE if size == "default" else int(size)
        _, _, _, counts = scan_binary_learned(sample_trace_path, chunk_size=chunk_size)
    elif scanner == "mapped":
        with MappedBinaryTrace(sample_trace_path) as mapped:
            *_, counts, last_use = scan_mapped_learned(mapped.view, track_last_use=True)
    else:
        ascii_path = _ascii_copy(sample_trace_path, tmp_path)
        records = (
            iter_trace_records(ascii_path)
            if scanner == "ascii"
            else load_trace(ascii_path).records()
        )
        *_, counts, last_use = count_records(
            records, num_original, track_last_use=True
        )
    assert counts == expected_counts
    if last_use is not None:
        assert last_use == expected_last_use


def test_fused_scan_rejects_truncated_trace(sample_trace_path, tmp_path):
    blob = sample_trace_path.read_bytes()
    torn = tmp_path / "torn.rtb"
    # Cut inside the very first record (the header's varints) so the tear
    # cannot land on a record boundary.
    torn.write_bytes(blob[:5])
    with pytest.raises(TraceError):
        scan_binary_learned(torn)
    with pytest.raises(TraceError):
        scan_binary_learned(torn, chunk_size=2)


def test_bf_report_identical_across_decoder_paths(sample_trace_path):
    formula = pigeonhole(5, 4)
    from repro.trace.binary_format import read_binary_trace

    fast = BreadthFirstChecker(formula, sample_trace_path).check()
    as_object = BreadthFirstChecker(formula, read_binary_trace(sample_trace_path)).check()
    # Chunked counting takes the generic record-streaming passes over the
    # same file instead of the fused scan and the raw iterator.
    record_passes = BreadthFirstChecker(
        formula, sample_trace_path, count_chunk_size=7
    ).check()

    for report in (as_object, record_passes):
        assert report.verified == fast.verified
        assert report.clauses_built == fast.clauses_built
        assert report.total_learned == fast.total_learned
        assert report.resolutions == fast.resolutions
    assert fast.verified
