"""Regression tests for checker-contract and trace round-trip bugs.

Each test pins one historical bug:

* ``BinaryTraceWriter.result`` encoded every non-SAT status — including
  UNKNOWN — as the UNSAT tag, so an inconclusive trace round-tripped as a
  false UNSAT claim.
* a zero-source learned record crashed ``check()`` (IndexError /
  TraceError) even though ``check()`` documents "never raises".
* a trace with no header was misreported as ``BAD_LEVEL_ZERO``.
* with multiple FinalConflict records the BF checker verified only the
  first but the counting pass charged every conflict reference, leaving
  clauses resident forever and inflating ``peak_memory_units``.
* an unreadable trace path escaped ``check()`` as ``FileNotFoundError``
  from the BF and hybrid checkers and from the supervisor's DF loader,
  and from the static precheck of BF, hybrid and streaming.
* an unreadable proof path escaped the RUP and DRAT checkers the same way.
* a read error partway through a trace escaped the BF checker as an
  ``OSError``: only opening the trace was converted; the streaming
  checker let it escape from an ASCII trace until it shared BF's wrapper.
* a non-ASCII byte in an ASCII trace escaped every trace checker and the
  supervisor as ``UnicodeDecodeError``.
* a non-positive ``count_chunk_size`` failed a valid proof: -1 counted
  nothing (``unknown-clause``) and 0 raised ``range() arg 3 must not be
  zero`` out of the streaming checker's ``check()``.
* option values were checked only when a rung that reads them was built:
  ``count_chunk_size=-1`` passed a DF ladder unread, or escaped as a
  ``ValueError`` mid-ladder once DF ran out of memory, and a negative
  ``memory_window`` ran the streaming checker with a negative budget.
* a failed counting pass reported ``total_learned`` 0 from a binary trace
  but the full count from an ASCII or in-memory one.

The trace checks the checkers share (header, clause count, UNSAT claim)
must fail with the same kind, message and context in every checker.
"""

from __future__ import annotations

import errno
from pathlib import Path

import pytest

from repro.checker import (
    BreadthFirstChecker,
    CheckSupervisor,
    DepthFirstChecker,
    FailureKind,
    HybridChecker,
    StreamingWindowChecker,
    supervised_check,
)
from repro.checker.supervisor import OPTION_MINIMUMS
from repro.cnf import CnfFormula
from repro.trace import (
    AsciiTraceWriter,
    BinaryTraceWriter,
    LearnedClause,
    Trace,
    TraceError,
    TraceHeader,
    read_binary_trace,
)
from repro.trace.binary_format import MAGIC
from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LevelZeroAssignment,
    TraceResult,
    assemble_trace,
)


# -- bug 1: binary result round-trip --------------------------------------------


class TestBinaryResultRoundTrip:
    def _roundtrip_status(self, tmp_path, status: str) -> str:
        path = tmp_path / "status.rtb"
        with BinaryTraceWriter(path) as writer:
            writer.header(3, 2)
            writer.result(status)
        return read_binary_trace(path).status

    @pytest.mark.parametrize("status", ["SAT", "UNSAT", "UNKNOWN"])
    def test_every_status_roundtrips(self, tmp_path, status):
        # Before the fix UNKNOWN came back as "UNSAT": a solver that gave
        # up was silently rewritten into claiming unsatisfiability.
        assert self._roundtrip_status(tmp_path, status) == status

    def test_unrecognized_status_is_rejected_at_write_time(self, tmp_path):
        with BinaryTraceWriter(tmp_path / "bogus.rtb") as writer:
            writer.header(3, 2)
            with pytest.raises(TraceError):
                writer.result("MAYBE")

    def test_reader_stays_backward_compatible_with_two_tag_files(self, tmp_path):
        # A file produced by the old writer: header tag + old UNSAT tag only.
        path = tmp_path / "old.rtb"
        path.write_bytes(MAGIC + bytes([0x01, 3, 2]) + bytes([0x06]))
        assert read_binary_trace(path).status == "UNSAT"
        path.write_bytes(MAGIC + bytes([0x01, 3, 2]) + bytes([0x05]))
        assert read_binary_trace(path).status == "SAT"


# -- bug 2: zero-source learned records must not escape check() ------------------


def _trivially_unsat_formula() -> CnfFormula:
    return CnfFormula(1, [[1], [-1]])


def _empty_sources_record(cid: int) -> LearnedClause:
    # The record type rejects zero sources at construction, exactly like a
    # buggy solver's file does at parse time — bypass it the way a corrupted
    # in-memory pipeline would.
    record = LearnedClause.__new__(LearnedClause)
    object.__setattr__(record, "cid", cid)
    object.__setattr__(record, "sources", ())
    return record


def _trace_with_empty_sources() -> Trace:
    trace = Trace(TraceHeader(1, 2))
    trace.learned[3] = _empty_sources_record(3)
    trace.level_zero.append(LevelZeroAssignment(1, True, 1))
    trace.final_conflicts.append(3)
    trace.status = "UNSAT"
    return trace


@pytest.mark.parametrize("checker_cls", [BreadthFirstChecker, DepthFirstChecker, HybridChecker])
def test_empty_sources_record_lands_in_the_report(checker_cls):
    formula = _trivially_unsat_formula()
    report = checker_cls(formula, _trace_with_empty_sources()).check()  # must not raise
    assert not report.verified
    assert report.failure is not None
    assert report.failure.kind is FailureKind.MALFORMED_TRACE


@pytest.mark.parametrize("checker_cls", [BreadthFirstChecker, HybridChecker])
def test_empty_sources_file_lands_in_the_report(tmp_path, checker_cls):
    """The file-level shape of the same fault: 'CL 3' with no sources raises
    TraceError mid-stream; check() must convert it, not propagate it."""
    path = tmp_path / "empty.trace"
    path.write_text("T 1 2\nCL 3\nV 1 1 1\nCONF 3\nR UNSAT\n")
    formula = _trivially_unsat_formula()
    report = checker_cls(formula, path).check()
    assert not report.verified
    assert report.failure is not None
    assert report.failure.kind is FailureKind.MALFORMED_TRACE


# -- bug 3: missing header must be reported as BAD_HEADER ------------------------

_CHECKERS = ["BreadthFirstChecker", "HybridChecker", "StreamingWindowChecker", "supervised-df"]


def _check(checker: str, formula, source):
    if checker == "supervised-df":
        return supervised_check(formula, source, method="df", policy="strict")
    checker_cls = {
        "BreadthFirstChecker": BreadthFirstChecker,
        "HybridChecker": HybridChecker,
        "StreamingWindowChecker": StreamingWindowChecker,
    }[checker]
    return checker_cls(formula, source).check()


def _php_records():
    from repro.solver import Solver, SolverConfig
    from repro.trace import InMemoryTraceWriter

    from tests.conftest import pigeonhole

    formula = pigeonhole(4, 3)
    writer = InMemoryTraceWriter()
    assert Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    return formula, writer.records


def _sources(tmp_path, records) -> dict:
    """``records`` as an ASCII trace file, a binary one and a ``Trace``."""
    sources: dict = {}
    for fmt, writer_cls in (("ascii", AsciiTraceWriter), ("binary", BinaryTraceWriter)):
        path = tmp_path / f"trace.{fmt}"
        with writer_cls(path) as writer:
            for record in records:
                if isinstance(record, TraceHeader):
                    writer.header(record.num_vars, record.num_original_clauses)
                elif isinstance(record, LearnedClause):
                    writer.learned_clause(record.cid, record.sources)
                elif isinstance(record, ClauseDeletion):
                    writer.clause_deletion(record.cid)
                elif isinstance(record, LevelZeroAssignment):
                    writer.level_zero(record.var, record.value, record.antecedent)
                elif isinstance(record, FinalConflict):
                    writer.final_conflict(record.cid)
                else:
                    writer.result(record.status)
        sources[fmt] = str(path)
    if isinstance(records[0], TraceHeader):
        sources["in-memory"] = assemble_trace(records)
    else:
        # Parsing rejects a trace without a header; a hand-built one lacks it.
        sources["in-memory"] = assemble_trace([TraceHeader(0, 0), *records])
        sources["in-memory"].header = None
    return sources


@pytest.mark.parametrize("checker", _CHECKERS)
def test_headerless_trace_reports_bad_header(tmp_path, checker):
    formula, records = _php_records()
    for name, source in _sources(tmp_path, records[1:]).items():
        if checker != "supervised-df":
            expected = (FailureKind.BAD_HEADER, "trace has no header", {})
        elif name == "in-memory":
            continue  # DF reads its trace's header on construction
        else:
            # DF loads the whole trace before checking it, and loading
            # rejects a record ahead of the header.
            expected = (FailureKind.MALFORMED_TRACE, "trace record before header", {})
        failure = _check(checker, formula, source).failure
        assert (failure.kind, failure.message, failure.context) == expected, name


@pytest.mark.parametrize("fault", ["count-mismatch", "sat-claim", "no-final-conflict"])
def test_trace_claim_failures_agree_across_checkers(tmp_path, fault):
    formula, records = _php_records()
    assert isinstance(records[0], TraceHeader)
    if fault == "count-mismatch":
        trace_clauses = formula.num_clauses
        formula = CnfFormula(
            formula.num_vars, [list(c.literals) for c in formula.clauses] + [[1, 2]]
        )
        expected = (
            FailureKind.UNKNOWN_CLAUSE,
            "formula / trace disagree on the number of original clauses",
            {"formula_clauses": trace_clauses + 1, "trace_clauses": trace_clauses},
        )
    elif fault == "sat-claim":
        records = [TraceResult("SAT") if isinstance(r, TraceResult) else r for r in records]
        expected = (
            FailureKind.BAD_STATUS,
            "trace does not claim UNSAT; nothing to check",
            {"status": "SAT"},
        )
    else:
        records = [r for r in records if not isinstance(r, FinalConflict)]
        expected = (FailureKind.BAD_FINAL_CONFLICT, "trace has no final conflicting clause", {})
    for name, source in _sources(tmp_path, records).items():
        for checker in _CHECKERS:
            failure = _check(checker, formula, source).failure
            assert (failure.kind, failure.message, failure.context) == expected, (name, checker)


# -- bug 4: unused final conflicts must not pin clauses resident -----------------


def _conflict_trace(extra_conflict: bool) -> Trace:
    """c1=[1], c2=[-1]; CONF 2 proves UNSAT. Learned clause 3 (the empty
    resolvent of c1,c2) is referenced only by a redundant second CONF."""
    trace = Trace(TraceHeader(1, 2))
    trace.level_zero.append(LevelZeroAssignment(1, True, 1))
    trace.final_conflicts.append(2)
    if extra_conflict:
        trace.learned[3] = LearnedClause(3, (1, 2))
        trace.final_conflicts.append(3)
    trace.status = "UNSAT"
    return trace


def test_unused_final_conflicts_are_released():
    formula = _trivially_unsat_formula()

    baseline = BreadthFirstChecker(formula, _conflict_trace(extra_conflict=False))
    assert baseline.check().verified
    extra = BreadthFirstChecker(formula, _conflict_trace(extra_conflict=True))
    assert extra.check().verified

    # Before the fix, learned clause 3 (referenced only by the unused second
    # CONF) stayed resident forever; its units showed up in meter.current.
    assert extra.meter.current == baseline.meter.current


def test_multi_conflict_accounting_drains_on_real_traces():
    """Appending a duplicate CONF for the real final conflict must not leave
    the final clause resident after the check."""
    from repro.solver import Solver, SolverConfig
    from repro.trace import InMemoryTraceWriter

    from tests.conftest import pigeonhole

    formula = pigeonhole(5, 4)
    writer = InMemoryTraceWriter()
    assert Solver(formula, SolverConfig(), trace_writer=writer).solve().is_unsat

    baseline = BreadthFirstChecker(formula, writer.to_trace())
    assert baseline.check().verified

    final_cid = writer.to_trace().final_conflicts[0]
    duplicated = writer.to_trace()
    duplicated.final_conflicts.append(final_cid)
    dup_checker = BreadthFirstChecker(formula, duplicated)
    assert dup_checker.check().verified
    assert dup_checker.meter.current == baseline.meter.current


# -- bug 5: an unreadable trace path must not escape check() ---------------------


@pytest.mark.parametrize("precheck", [False, True])
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("method", ["bf", "hybrid", "streaming", "df"])
def test_unreadable_trace_path_is_a_malformed_trace_when_supervised(
    tmp_path, method, prune, precheck
):
    from repro.checker import supervised_check

    missing = tmp_path / "missing.trace"
    report = supervised_check(
        _trivially_unsat_formula(),
        str(missing),
        method=method,
        policy="strict",
        prune=prune,
        precheck=precheck,
    )
    assert not report.verified
    assert report.failure.kind is FailureKind.MALFORMED_TRACE
    assert str(missing) in report.failure.message


@pytest.mark.parametrize(
    "build",
    [
        lambda f, p: BreadthFirstChecker(f, p),
        lambda f, p: BreadthFirstChecker(f, p, count_chunk_size=2),
        lambda f, p: HybridChecker(f, p),
    ],
    ids=["bf", "bf-chunked", "hybrid"],
)
def test_unreadable_trace_path_lands_in_the_report(tmp_path, build):
    missing = tmp_path / "missing.trace"
    report = build(_trivially_unsat_formula(), missing).check()  # must not raise
    assert not report.verified
    assert report.failure.kind is FailureKind.MALFORMED_TRACE
    assert str(missing) in report.failure.message


# -- bug 6: an unreadable proof path must not escape check() ---------------------


@pytest.mark.parametrize("supervised", [False, True], ids=["direct", "supervised"])
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
@pytest.mark.parametrize("method,backward", [("rup", False), ("drat", False), ("drat", True)])
def test_unreadable_proof_path_is_a_malformed_proof(
    tmp_path, method, backward, unreadable, supervised
):
    from repro.checker import DratChecker, RupChecker, supervised_check

    path = tmp_path / "missing.drup" if unreadable == "missing" else tmp_path
    formula = _trivially_unsat_formula()
    if supervised:
        report = supervised_check(
            formula, str(path), method=method, backward=backward, policy="strict"
        )
    elif method == "rup":
        report = RupChecker(formula, path).check()
    else:
        report = DratChecker(formula, path, backward=backward).check()
    assert not report.verified
    assert report.failure.kind is FailureKind.MALFORMED_PROOF
    assert report.failure.message.startswith(f"{path}: ")


# -- bug 7: a read error partway through a trace must not escape BF ----------


class _FailingReads:
    """A file whose reads fail after ``good`` successful ones."""

    def __init__(self, handle, good: int):
        self._handle = handle
        self._good = good

    def _next_read(self) -> None:
        if self._good == 0:
            raise OSError(errno.EIO, "Input/output error")
        self._good -= 1

    def read(self, *args):
        self._next_read()
        return self._handle.read(*args)

    def __iter__(self):
        for line in self._handle:
            self._next_read()
            yield line

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _solved_trace(tmp_path, fmt: str, pigeons: int = 5):
    from repro.solver import Solver, SolverConfig

    from tests.conftest import pigeonhole

    formula = pigeonhole(pigeons, pigeons - 1)
    path = tmp_path / ("php.rtb" if fmt == "binary" else "php.trace")
    writer = BinaryTraceWriter(path) if fmt == "binary" else AsciiTraceWriter(path)
    assert Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    writer.close()
    return formula, str(path)


@pytest.mark.parametrize(
    "checker_cls,fmt,options,good",
    [
        (BreadthFirstChecker, "binary", {}, 1),  # the fused scan's first chunk read
        (BreadthFirstChecker, "binary", {"count_chunk_size": 7}, 1),  # the record sweeps
        (BreadthFirstChecker, "binary", {"prune": True}, 1),  # the pruned checking pass
        (BreadthFirstChecker, "ascii", {}, 40),
        (BreadthFirstChecker, "ascii", {"prune": True}, 40),
        (StreamingWindowChecker, "ascii", {}, 40),
        (StreamingWindowChecker, "ascii", {"prune": True}, 40),
    ],
    ids=[
        "binary-scan",
        "binary-chunked",
        "binary-pruned",
        "ascii",
        "ascii-pruned",
        "streaming-ascii",
        "streaming-ascii-pruned",
    ],
)
def test_a_read_error_mid_trace_is_a_malformed_trace(
    tmp_path, monkeypatch, checker_cls, fmt, options, good
):
    import builtins

    from repro.analysis.graph import compute_prune_plan
    from repro.trace import ascii_format, binary_format

    formula, path = _solved_trace(tmp_path, fmt)
    if options.pop("prune", False):
        options["prune_plan"] = compute_prune_plan(path)
        assert options["prune_plan"] is not None
    module = binary_format if fmt == "binary" else ascii_format
    monkeypatch.setattr(
        module,
        "open",
        lambda *args, **kwargs: _FailingReads(builtins.open(*args, **kwargs), good),
        raising=False,
    )
    report = checker_cls(formula, path, **options).check()  # must not raise
    assert report.failure.kind is FailureKind.MALFORMED_TRACE
    assert report.failure.message == f"{path}: [Errno {errno.EIO}] Input/output error"


def test_counts_and_checkpoint_file_errors_keep_their_class(tmp_path, monkeypatch):
    from repro import faults

    formula, path = _solved_trace(tmp_path, "binary")
    _, ascii_path = _solved_trace(tmp_path, "ascii")
    with pytest.raises(FileNotFoundError):
        BreadthFirstChecker(formula, path, tmp_dir=tmp_path / "absent").check()
    for source in (path, ascii_path):  # spool and counts file, counts file
        with pytest.raises(FileNotFoundError):
            StreamingWindowChecker(formula, source, tmp_dir=tmp_path / "absent").check()

    def full_disk(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(StreamingWindowChecker, "_spill_file", full_disk)
        with pytest.raises(OSError) as excinfo:
            StreamingWindowChecker(formula, ascii_path, memory_budget=1).check()
    assert excinfo.value.errno == errno.ENOSPC
    faults.install_plan("point=checkpoint.write,kind=enospc")
    try:
        with pytest.raises(OSError) as excinfo:
            BreadthFirstChecker(
                formula, path, checkpoint_path=str(tmp_path / "ckpt"), checkpoint_every=1
            ).check()
    finally:
        faults.reset()
    assert excinfo.value.errno == errno.ENOSPC


# -- bug 8: a non-ASCII byte in an ASCII trace must not escape check() ----------


@pytest.mark.parametrize(
    "run",
    [
        "bf",
        "streaming",
        "hybrid",
        "supervised-df",
        "supervised-bf",
        "supervised-hybrid",
        "supervised-streaming",
        "analyzer",
    ],
)
def test_a_non_ascii_byte_is_a_malformed_trace(tmp_path, run):
    from repro.analysis import analyze_trace

    formula, path = _solved_trace(tmp_path, "ascii", pigeons=4)
    lines = Path(path).read_bytes().split(b"\n")
    lines[5] += b"\xff"
    Path(path).write_bytes(b"\n".join(lines))
    if run == "analyzer":
        assert "T012" in {d.rule_id for d in analyze_trace(path).errors}
        return
    if run.startswith("supervised-"):
        method = run.removeprefix("supervised-")
        report = supervised_check(formula, path, method=method, policy="strict")
    else:
        checker_cls = {
            "bf": BreadthFirstChecker,
            "streaming": StreamingWindowChecker,
            "hybrid": HybridChecker,
        }[run]
        report = checker_cls(formula, path).check()  # must not raise
    assert report.failure.kind is FailureKind.MALFORMED_TRACE
    assert report.failure.message.startswith(f"{path}: ")
    assert "can't decode byte 0xff" in report.failure.message


# -- bug 9: a non-positive count_chunk_size must be rejected up front -----------


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_a_non_positive_count_chunk_size_is_rejected(tmp_path, chunk_size):
    formula, path = _solved_trace(tmp_path, "binary")
    for checker_cls in (BreadthFirstChecker, StreamingWindowChecker):
        with pytest.raises(ValueError, match="count_chunk_size must be positive"):
            checker_cls(formula, path, count_chunk_size=chunk_size)
    for method in ("bf", "streaming"):
        with pytest.raises(ValueError, match="count_chunk_size must be positive"):
            supervised_check(formula, path, method=method, count_chunk_size=chunk_size)


def test_a_count_chunk_size_of_one_still_verifies(tmp_path):
    formula, path = _solved_trace(tmp_path, "binary")
    for checker_cls in (BreadthFirstChecker, StreamingWindowChecker):
        assert checker_cls(formula, path, count_chunk_size=1).check().verified
    for method in ("bf", "streaming"):
        assert supervised_check(formula, path, method=method, count_chunk_size=1).verified


# -- bug 10: option values are checked before any rung runs ----------------------


@pytest.mark.parametrize(
    "options,message",
    [
        (
            {"method": "df", "policy": "fallback", "count_chunk_size": -1},
            "count_chunk_size must be positive, got -1",
        ),
        (
            {"method": "df", "policy": "fallback", "count_chunk_size": -1, "memory_limit": 10},
            "count_chunk_size must be positive, got -1",
        ),
        ({"method": "streaming", "memory_window": -5}, "memory_window must be non-negative, got -5"),
    ],
    ids=["df-fallback", "df-memory-out", "streaming"],
)
def test_an_out_of_range_option_fails_before_any_rung_runs(
    tmp_path, monkeypatch, options, message
):
    formula, path = _solved_trace(tmp_path, "binary")
    built: list[str] = []
    monkeypatch.setattr(CheckSupervisor, "_build_checker", lambda self, method: built.append(method))
    with pytest.raises(ValueError) as excinfo:
        supervised_check(formula, path, **options)
    assert str(excinfo.value) == message
    assert built == []


@pytest.mark.parametrize("name", sorted(OPTION_MINIMUMS))
def test_every_option_minimum_is_enforced_by_the_supervisor(tmp_path, name):
    formula, path = _solved_trace(tmp_path, "binary")
    minimum = OPTION_MINIMUMS[name]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        CheckSupervisor(formula, path, method="bf", **{name: minimum - 1})
    CheckSupervisor(formula, path, method="bf", **{name: minimum})  # accepted


def test_a_negative_memory_budget_is_rejected(tmp_path):
    formula, path = _solved_trace(tmp_path, "binary")
    with pytest.raises(ValueError, match="memory_budget must be non-negative, got -5"):
        StreamingWindowChecker(formula, path, memory_budget=-5)
    assert StreamingWindowChecker(formula, path, memory_budget=0).check().verified


# -- bug 11: a failed counting pass reports no learned clauses in any encoding ---


@pytest.mark.parametrize("encoding", ["binary", "ascii", "in-memory"])
@pytest.mark.parametrize(
    "checker", ["BreadthFirstChecker", "HybridChecker", "StreamingWindowChecker"]
)
def test_a_failed_counting_pass_reports_no_learned_clauses(tmp_path, checker, encoding):
    formula, records = _php_records()
    source = _sources(tmp_path, records[1:])[encoding]
    report = _check(checker, formula, source)
    assert report.failure.kind is FailureKind.BAD_HEADER
    assert report.total_learned == 0
