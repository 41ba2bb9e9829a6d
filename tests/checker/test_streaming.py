"""The constant-memory streaming checker: parity, budgets, the ladder.

The streaming tier's contract has two halves, each pinned here:

* **Verdict parity** — on any trace (clean or corrupted, pruned or not,
  in-memory or mmap'd binary) the streaming checker must agree with
  breadth-first byte for byte: same verdict, same failure kind, message
  and context, same build/resolution counts on the clean path.
* **Bounded residency** — ``memory_budget`` caps the resident clause set;
  overflow spills instead of failing, so it is the one checker that can
  never memory-out (which is why the fallback ladder swaps it in for BF
  on big traces).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tools.gen_trace import generate

from repro.checker import (
    BreadthFirstChecker,
    CheckReport,
    StreamingWindowChecker,
)
from repro.checker.supervisor import CheckSupervisor, SupervisorConfig
from repro.cnf import parse_dimacs_file
from repro.solver.buggy import BugKind, make_buggy_solver
from repro.trace import InMemoryTraceWriter
from repro.trace.binary_format import (
    BinaryTraceWriter,
    MappedBinaryTrace,
    decode_mapped_batch,
    iter_binary_records,
    read_binary_trace,
    scan_mapped_learned,
)
from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    TraceError,
    TraceResult,
)

from tests.conftest import pigeonhole

TRACE_BUGS = [
    BugKind.DROP_SOURCE,
    BugKind.SWAP_SOURCES,
    BugKind.WRONG_ANTECEDENT,
    BugKind.OMIT_LEVEL_ZERO,
    BugKind.WRONG_FINAL_CONFLICT,
]


def solved_trace(formula):
    writer = InMemoryTraceWriter()
    from repro.solver import Solver

    result = Solver(formula, trace_writer=writer).solve()
    assert result.is_unsat
    return writer.to_trace()


def corrupted_trace(formula, bug, seed=0):
    """Solve with an injected trace bug; returns the trace iff the bug fired."""
    inner = InMemoryTraceWriter()
    solver, wrapper = make_buggy_solver(formula, bug, inner, seed=seed)
    result = solver.solve()
    assert result.is_unsat
    if wrapper is not None and not wrapper.corrupted:
        return None
    return inner.to_trace()


def dump_binary(trace, path):
    """Replay an in-memory trace into the binary format, record by record.

    Returns False when the trace cannot be encoded (a corruption produced
    a forward source reference, which the writer rejects by design).
    """
    try:
        with BinaryTraceWriter(path) as writer:
            writer.header(trace.header.num_vars, trace.header.num_original_clauses)
            for record in trace.records():
                if isinstance(record, LearnedClause):
                    writer.learned_clause(record.cid, record.sources)
                elif isinstance(record, LevelZeroAssignment):
                    writer.level_zero(record.var, record.value, record.antecedent)
                elif isinstance(record, FinalConflict):
                    writer.final_conflict(record.cid)
                elif isinstance(record, ClauseDeletion):
                    writer.clause_deletion(record.cid)
                elif isinstance(record, TraceResult):
                    writer.result(record.status)
    except TraceError:
        return False
    return True


def dump_ascii(trace, path, first_source=None):
    """Replay an in-memory trace into the ASCII format. ``first_source``,
    when given, replaces the first learned clause's first resolve source."""
    from repro.trace.io import open_trace_writer

    writer = open_trace_writer(path, fmt="ascii")
    writer.header(trace.header.num_vars, trace.header.num_original_clauses)
    for record in trace.records():
        if isinstance(record, LearnedClause):
            sources = tuple(record.sources)
            if first_source is not None:
                sources = (first_source,) + sources[1:]
                first_source = None
            writer.learned_clause(record.cid, sources)
        elif isinstance(record, LevelZeroAssignment):
            writer.level_zero(record.var, record.value, record.antecedent)
        elif isinstance(record, FinalConflict):
            writer.final_conflict(record.cid)
        elif isinstance(record, TraceResult):
            writer.result(record.status)
    writer.close()


# -- verdict parity -----------------------------------------------------------


def test_clean_parity_with_breadth_first_in_memory_and_mmap(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    bf = BreadthFirstChecker(formula, trace).check()
    assert bf.verified

    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    for source in (trace, path):
        report = StreamingWindowChecker(formula, source).check()
        assert report.verified
        assert report.clauses_built == bf.clauses_built
        assert report.resolutions == bf.resolutions


@pytest.mark.parametrize("budget", [None, 500, 50])
def test_budgeted_runs_keep_the_verdict(tmp_path, budget):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    baseline = BreadthFirstChecker(formula, path).check()
    report = StreamingWindowChecker(formula, path, memory_budget=budget).check()
    assert report.verified
    assert report.clauses_built == baseline.clauses_built
    assert report.resolutions == baseline.resolutions


@pytest.mark.parametrize("bug", TRACE_BUGS)
def test_fault_matrix_parity_with_breadth_first(tmp_path, bug):
    """Every corrupted trace BF rejects, streaming rejects too — with the
    same failure kind, message and context, on both the in-memory and the
    mmap'd path, bounded or not."""

    def same_failure(report, bf):
        assert report.verified == bf.verified
        if not bf.verified:
            assert report.failure is not None
            assert report.failure.kind == bf.failure.kind
            assert report.failure.message == bf.failure.message
            assert report.failure.context == bf.failure.context

    fired = 0
    for seed in range(8):
        formula = pigeonhole(6, 5)
        trace = corrupted_trace(formula, bug, seed=seed)
        if trace is None:
            continue
        fired += 1
        bf = BreadthFirstChecker(formula, trace).check()
        for budget in (None, 100):
            same_failure(
                StreamingWindowChecker(formula, trace, memory_budget=budget).check(), bf
            )

        path = str(tmp_path / f"{bug.name}_{seed}.rtb")
        if dump_binary(trace, path):
            same_failure(
                StreamingWindowChecker(formula, path, memory_budget=100).check(), bf
            )
    assert fired > 0, f"bug {bug} never fired in 8 seeds"


def _level_zero_trace(num_vars, num_original, trail, final_cid):
    writer = InMemoryTraceWriter()
    writer.header(num_vars, num_original)
    for var, value, antecedent in trail:
        writer.level_zero(var, value, antecedent)
    writer.final_conflict(final_cid)
    writer.result("UNSAT")
    return writer.to_trace()


@pytest.mark.parametrize(
    "clauses, trail, final_cid, literal",
    [
        # Final conflict (-2 -3) with neither literal false: both offend.
        ([[-2, -3]], [], 1, -3),
        # Antecedent (2 4 -3) of var 2: 4 is unassigned, -3 is falsified
        # only later. The formula's order meets 4 first, sorted order -3.
        ([[1], [2, 4, -3], [3], [-2]], [(1, True, 1), (2, True, 2), (3, True, 3)], 4, -3),
    ],
    ids=["final-conflict", "antecedent"],
)
def test_level_zero_failures_on_originals_match_breadth_first(
    clauses, trail, final_cid, literal
):
    """Originals reach the level-zero checks in the formula's literal
    order; a clause with several offending literals must still report the
    literal and message BF reports from its sorted clauses."""
    from repro.cnf import CnfFormula

    formula = CnfFormula(4, clauses)
    trace = _level_zero_trace(4, len(clauses), trail, final_cid)
    bf = BreadthFirstChecker(formula, trace).check()
    assert bf.failure.context["literal"] == literal
    for budget in (None, 1):
        report = StreamingWindowChecker(formula, trace, memory_budget=budget).check()
        assert report.failure.kind == bf.failure.kind
        assert report.failure.message == bf.failure.message
        assert report.failure.context == bf.failure.context


def test_prune_plan_parity(tmp_path):
    from repro.analysis import compute_prune_plan

    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    plan = compute_prune_plan(path)
    assert plan is not None
    unpruned = StreamingWindowChecker(formula, path, memory_budget=200).check()
    pruned = StreamingWindowChecker(
        formula, path, memory_budget=200, prune_plan=plan
    ).check()
    assert unpruned.verified and pruned.verified
    # Pruning may skip statically dead lemmas but never changes the verdict.
    assert pruned.clauses_built <= unpruned.clauses_built
    bf_pruned = BreadthFirstChecker(formula, path, prune_plan=plan).check()
    assert bf_pruned.verified
    assert pruned.clauses_built == bf_pruned.clauses_built


def test_chunked_counting_parity(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    ascii_path = str(tmp_path / "php.trace")
    dump_ascii(trace, ascii_path)
    for source in (path, ascii_path, trace):
        whole = StreamingWindowChecker(formula, source, memory_budget=100).check()
        chunked = StreamingWindowChecker(
            formula, source, memory_budget=100, count_chunk_size=37
        ).check()
        assert whole.verified and chunked.verified
        assert whole.clauses_built == chunked.clauses_built
        assert whole.resolutions == chunked.resolutions


# -- bounded residency --------------------------------------------------------


def test_budget_bounds_residency_and_spills_engage(tmp_path):
    stats = generate(tmp_path / "chain", chain=3000)
    formula = parse_dimacs_file(stats["cnf"])

    unbounded = StreamingWindowChecker(formula, stats["trace"]).check()
    assert unbounded.verified
    free_peak = unbounded.memory["peak_resident_units"]

    budget = 300
    bounded = StreamingWindowChecker(
        formula, stats["trace"], memory_budget=budget
    ).check()
    assert bounded.verified
    memory = bounded.memory
    assert memory["budget_units"] == budget
    # Slack: the in-flight build and the sources it reloads, admitted
    # before the window spills back under the budget.
    assert memory["peak_resident_units"] <= budget + 64
    assert memory["peak_resident_units"] < free_peak
    assert memory["spilled_clauses"] > 0
    assert memory["reloaded_clauses"] == memory["spilled_clauses"]
    assert memory["peak_unique_clauses"] < unbounded.memory["peak_unique_clauses"]
    # Same proof replayed, spills notwithstanding.
    assert bounded.clauses_built == unbounded.clauses_built
    assert bounded.resolutions == unbounded.resolutions


def test_originals_occupy_no_window_units(tmp_path):
    """Unbounded, the window holds what BF's meter counts or less: learned
    clauses only, never the formula's originals."""
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    for source in (trace, path):
        bf = BreadthFirstChecker(formula, source).check()
        streaming = StreamingWindowChecker(formula, source).check()
        assert bf.verified and streaming.verified
        assert streaming.memory["peak_resident_units"] <= bf.peak_memory_units


def test_budget_below_the_formula_materializes_only_reloads(tmp_path, monkeypatch):
    """A budget smaller than the originals alone still verifies, and the
    only clauses the checker materializes are spilled learned clauses
    coming back: originals are read from the formula, never rebuilt."""
    from repro.checker.kernel import KernelEngine
    from repro.checker.memory import MemoryMeter

    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)
    meter = MemoryMeter()
    original_units = sum(meter.clause_units(len(clause)) for clause in formula)
    assert original_units == 342
    budget = 20
    calls = []
    materialize = KernelEngine.materialize

    def counting(self, literals):
        calls.append(1)
        return materialize(self, literals)

    monkeypatch.setattr(KernelEngine, "materialize", counting)
    report = StreamingWindowChecker(formula, path, memory_budget=budget).check()
    assert report.verified
    assert report.memory["reloaded_clauses"] > 0
    assert len(calls) == report.memory["reloaded_clauses"]


def hub_trace(path):
    """A proof with one hub clause used by every step until the very end.

    Originals: ``(x | z)``, ``(-z)``, ``(-x | y_i)`` for i = 1..60 and
    ``(-y_1 | ... | -y_60 | -x)``. Learned: the hub ``H = (x)`` from the
    first two, ``L_i = (y_i)`` from ``(-x | y_i)`` and ``H``, and
    ``F = (-x)`` from the last original and every ``L_i``. A level-zero
    record assigns ``x`` with antecedent ``H``, the final conflict is
    ``F``. Each ``L_i`` is used once, by ``F``; ``H`` is used 61 times and
    last of all, so it has the latest last use but the shortest expected
    gap to its next use. Returns ``(formula, trace, hub_cid)``.
    """
    from repro.cnf import CnfFormula
    from repro.trace.records import TraceHeader, assemble_trace

    x, z, ys = 1, 2, range(3, 63)
    originals = [[x, z], [-z]] + [[-x, y] for y in ys] + [[-y for y in ys] + [-x]]
    formula = CnfFormula(62, originals)
    hub = len(originals) + 1
    lemmas = [LearnedClause(hub, (1, 2))]
    lemmas += [LearnedClause(hub + i, (2 + i, hub)) for i in range(1, 61)]
    final = hub + 61
    lemmas.append(LearnedClause(final, (len(originals),) + tuple(range(hub + 1, final))))
    records = [TraceHeader(62, len(originals)), *lemmas]
    records += [LevelZeroAssignment(x, True, hub), FinalConflict(final), TraceResult("UNSAT")]
    trace = assemble_trace(records)
    assert dump_binary(trace, path)
    return formula, trace, hub


def test_a_clause_used_until_the_end_stays_resident(tmp_path, monkeypatch):
    """The window spills the clause expected to be needed latest: a hub
    used by every step stays resident, even though its last use is the
    latest of all."""
    path = str(tmp_path / "hub.rtb")
    formula, trace, hub = hub_trace(path)
    assert BreadthFirstChecker(formula, path).check().verified
    spilled = []
    spill = StreamingWindowChecker._spill

    def recording(self, cid, clause):
        spilled.append(cid)
        spill(self, cid, clause)

    monkeypatch.setattr(StreamingWindowChecker, "_spill", recording)
    for source in (path, trace):
        spilled.clear()
        report = StreamingWindowChecker(formula, source, memory_budget=30).check()
        assert report.verified
        assert report.memory["spilled_clauses"] == len(spilled) > 0
        assert spilled.count(hub) <= 1


@pytest.mark.parametrize(
    "call,message", [("pread", "short spill read"), ("pwrite", "short spill write")]
)
def test_a_short_spill_read_or_write_fails_loudly(tmp_path, monkeypatch, call, message):
    """A clause reloaded short would be a stronger clause, which could make
    an invalid proof verify: a short read or write raises instead."""
    import os

    path = str(tmp_path / "hub.rtb")
    formula, _, _ = hub_trace(path)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    real = getattr(os, call)
    if call == "pread":
        monkeypatch.setattr(os, "pread", lambda fd, n, offset: real(fd, n, offset)[:-1])
    else:
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real(fd, data[:-1], offset))
    checker = StreamingWindowChecker(formula, path, memory_budget=30, tmp_dir=scratch)
    with pytest.raises(OSError, match=message):
        checker.check()
    assert os.listdir(scratch) == []


@pytest.mark.parametrize("bad_source", [0, -2])
def test_nonpositive_source_is_an_unknown_clause(tmp_path, bad_source):
    """IDs 0 and below name no original clause: they must not index round
    to the formula's last clauses."""
    from repro.checker import DepthFirstChecker, HybridChecker
    from repro.trace.io import load_trace

    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "bad.trace")
    dump_ascii(trace, path, first_source=bad_source)
    reports = [
        BreadthFirstChecker(formula, path).check(),
        DepthFirstChecker(formula, load_trace(path)).check(),
        HybridChecker(formula, path).check(),
        StreamingWindowChecker(formula, path).check(),
        StreamingWindowChecker(formula, path, memory_budget=50).check(),
    ]
    for report in reports:
        assert not report.verified
        assert report.failure.kind.value == "unknown-clause"
        assert report.failure.context["cid"] == bad_source


def test_window_stats_report_the_shifting_window(tmp_path):
    stats = generate(tmp_path / "chain", chain=1500)
    formula = parse_dimacs_file(stats["cnf"])
    report = StreamingWindowChecker(
        formula, stats["trace"], memory_budget=300, window_records=512
    ).check()
    assert report.verified
    assert report.window_stats, "streaming reports per-window stats"
    for entry in report.window_stats:
        assert entry["records"] <= 512
        assert {"window", "records", "built", "resident_units"} <= set(entry)
    assert report.memory["windows"] == len(report.window_stats)


def test_memory_stats_survive_report_serialization(tmp_path):
    formula = pigeonhole(6, 5)
    report = StreamingWindowChecker(
        formula, solved_trace(formula), memory_budget=100
    ).check()
    assert report.memory is not None
    round_tripped = CheckReport.from_json(report.to_json())
    assert round_tripped.memory == report.memory
    assert round_tripped.window_stats == report.window_stats


def test_other_checkers_report_memory_high_water_too():
    from repro.checker import DepthFirstChecker, HybridChecker

    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    for checker in (
        BreadthFirstChecker(formula, trace),
        DepthFirstChecker(formula, trace),
        HybridChecker(formula, trace),
    ):
        report = checker.check()
        assert report.verified
        assert report.memory is not None
        assert report.memory["peak_unique_clauses"] > 0


def test_live_clause_count_matches_the_clauses_still_held():
    """Every kernel clause a checker frees is released exactly once: after
    a verified check, the engine's live count is the number of kernel
    clauses the checker and its engine still hold."""
    from repro.checker import HybridChecker
    from repro.checker.kernel import FrozenClause

    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    checkers = [
        BreadthFirstChecker(formula, trace),
        HybridChecker(formula, trace),
        StreamingWindowChecker(formula, trace),
        StreamingWindowChecker(formula, trace, memory_budget=50),
    ]
    reports = [checker.check() for checker in checkers]
    for checker, report in zip(checkers, reports):
        assert report.verified
        engine = checker._engine
        held = list(checker._resident.values()) + list(engine._originals.values())
        held_ids = {id(clause) for clause in held if type(clause) is FrozenClause}
        # Releasing a clause the kernel did not freeze is a no-op.
        engine.release((1, 2))
        engine.release(frozenset({1, 2}))
        assert engine.kernel.live == len(held_ids), checker.method
    assert reports[0].memory["peak_unique_clauses"] == 111


# -- the degradation ladder ---------------------------------------------------


def ladder_config(**overrides):
    defaults = dict(
        method="df",
        policy="fallback",
        memory_limit=400,
        streaming_threshold_bytes=0,
    )
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def test_fallback_ladder_lands_on_streaming(tmp_path):
    stats = generate(tmp_path / "chain", chain=2000)
    formula = parse_dimacs_file(stats["cnf"])
    report = CheckSupervisor(formula, stats["trace"], config=ladder_config()).check()
    assert report.verified
    assert report.method == "streaming"
    methods = [attempt["method"] for attempt in report.degradation]
    assert methods[-1] == "streaming"
    assert "breadth-first" not in methods  # streaming replaced BF as the last rung
    assert any(
        attempt["outcome"] == "memory-out" for attempt in report.degradation[:-1]
    )
    # Attempt records carry the memory high-water marks.
    final = report.degradation[-1]
    assert final["memory"]["peak_resident_units"] <= 400 + 64


def test_threshold_gates_the_streaming_rung(tmp_path):
    stats = generate(tmp_path / "chain", chain=2000)
    formula = parse_dimacs_file(stats["cnf"])
    # Far above the file size: the classic ladder stays, ends at BF, and
    # the starving memory limit makes the whole check fail as before.
    config = ladder_config(streaming_threshold_bytes=1 << 40)
    report = CheckSupervisor(formula, stats["trace"], config=config).check()
    assert not report.verified
    assert [a["method"] for a in report.degradation] == [
        "depth-first",
        "hybrid",
        "breadth-first",
    ]
    # Disabled entirely behaves the same way.
    config = ladder_config(streaming_threshold_bytes=None)
    report = CheckSupervisor(formula, stats["trace"], config=config).check()
    assert not report.verified
    assert "streaming" not in [a["method"] for a in report.degradation]


def test_strict_policy_never_grows_a_ladder(tmp_path):
    stats = generate(tmp_path / "chain", chain=1000)
    formula = parse_dimacs_file(stats["cnf"])
    config = ladder_config(policy="strict", memory_limit=200)
    report = CheckSupervisor(formula, stats["trace"], config=config).check()
    assert not report.verified
    assert [a["method"] for a in report.degradation] == ["depth-first"]


def test_streaming_as_requested_method(tmp_path):
    stats = generate(tmp_path / "chain", chain=1000)
    formula = parse_dimacs_file(stats["cnf"])
    config = SupervisorConfig(method="streaming", memory_window=300)
    report = CheckSupervisor(formula, stats["trace"], config=config).check()
    assert report.verified
    assert report.method == "streaming"
    assert report.memory["budget_units"] == 300


# -- mmap zero-copy decoding --------------------------------------------------


def test_mapped_batches_match_the_record_decoder(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)

    expected = [
        (r.cid, tuple(r.sources))
        for r in iter_binary_records(path)
        if isinstance(r, LearnedClause)
    ]
    got = []
    with MappedBinaryTrace(path) as mapped:
        pos = mapped.payload_start
        while True:
            items, pos = decode_mapped_batch(mapped.view, pos, 64)
            if not items:
                break
            got.extend(
                (item[0], tuple(item[1]))
                for item in items
                if isinstance(item, tuple)
            )
    assert got == expected


def test_mapped_scan_counts_match_a_manual_tally(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.rtb")
    assert dump_binary(trace, path)

    manual = {}
    learned = []
    num_original = trace.header.num_original_clauses

    def tally(cid):
        # Only learned clauses are counted: IDs past the header's originals.
        if cid > num_original:
            manual[cid] = manual.get(cid, 0) + 1

    for record in iter_binary_records(path):
        if isinstance(record, LearnedClause):
            learned.append(record.cid)
            for src in record.sources:
                tally(src)
        elif isinstance(record, LevelZeroAssignment):
            tally(record.antecedent)
        elif isinstance(record, FinalConflict):
            tally(record.cid)

    with MappedBinaryTrace(path) as mapped:
        headers, max_cid, num_learned, counts, last_use = scan_mapped_learned(
            mapped.view, track_last_use=True
        )
    assert num_learned == len(learned)
    assert max_cid == max(learned)
    assert counts == manual
    # The last-use clock is monotone in stream position: every recorded
    # use position is positive, and a clause used later has a later mark.
    assert last_use, "track_last_use fills the retirement signal"
    assert set(last_use) == set(manual)
    assert all(position > 0 for position in last_use.values())


def test_truncated_mapped_trace_raises_trace_error(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = tmp_path / "php.rtb"
    assert dump_binary(trace, str(path))
    blob = path.read_bytes()
    torn = tmp_path / "torn.rtb"
    torn.write_bytes(blob[: len(blob) - 7])
    with MappedBinaryTrace(str(torn)) as mapped:
        with pytest.raises(TraceError):
            pos = mapped.payload_start
            while True:
                items, pos = decode_mapped_batch(mapped.view, pos, 64)
                if not items:
                    break


def test_truncated_trace_is_a_structured_verdict_not_a_crash(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = tmp_path / "php.rtb"
    assert dump_binary(trace, str(path))
    blob = path.read_bytes()
    torn = tmp_path / "torn.rtb"
    torn.write_bytes(blob[: int(len(blob) * 0.6)])
    report = StreamingWindowChecker(formula, str(torn)).check()
    assert not report.verified
    assert report.failure is not None


def test_streaming_reads_ascii_traces_through_the_generic_path(tmp_path):
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    path = str(tmp_path / "php.trace")
    dump_ascii(trace, path)
    report = StreamingWindowChecker(formula, path, memory_budget=150).check()
    bf = BreadthFirstChecker(formula, path).check()
    assert report.verified and bf.verified
    assert report.clauses_built == bf.clauses_built


def test_generated_binary_round_trips_through_read_binary_trace(tmp_path):
    # The generator writes records the stock decoder agrees with.
    stats = generate(tmp_path / "chain", chain=500)
    trace = read_binary_trace(stats["trace"])
    assert trace.header.num_original_clauses == stats["num_original"]
    assert len(trace.learned) == stats["num_learned"]


# -- wiring: CLI and service options ------------------------------------------


def test_cli_stream_flag_routes_to_streaming(tmp_path, capsys):
    from repro.cli import check_main

    stats = generate(tmp_path / "chain", chain=400)
    rc = check_main(
        [stats["cnf"], stats["trace"], "--stream", "--memory-window", "200"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[streaming]" in out


def test_cli_stream_flag_conflicts(tmp_path):
    from repro.cli import check_main

    stats = generate(tmp_path / "chain", chain=400)
    with pytest.raises(SystemExit):
        check_main([stats["cnf"], stats["trace"], "--stream", "--method", "bf"])
    with pytest.raises(SystemExit):
        check_main(
            [stats["cnf"], stats["trace"], "--memory-window", "100"]
        )  # needs --stream or --policy fallback
    with pytest.raises(SystemExit):
        check_main(
            [stats["cnf"], stats["trace"], "--streaming-threshold", "0"]
        )  # needs --policy fallback


def test_streaming_options_are_service_addressable():
    from repro.service.fingerprint import KEYED_OPTIONS, fingerprint_options
    from repro.service.scheduler import ALLOWED_JOB_OPTIONS

    assert {"memory_window", "window_records"} <= ALLOWED_JOB_OPTIONS
    assert "memory_window" in KEYED_OPTIONS
    assert "window_records" in KEYED_OPTIONS
    base = fingerprint_options({"method": "streaming"})
    keyed = fingerprint_options({"method": "streaming", "memory_window": 4096})
    assert base != keyed
