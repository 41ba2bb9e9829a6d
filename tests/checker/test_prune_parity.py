"""Core-first pruning must never change a verdict.

The gate for the whole prune-plan feature: every checking strategy, run
pruned and unpruned over the same input, must return the same verdict —
on clean traces AND across the fault-injection matrix. The one principled
exception: a semantic fault inside a statically *dead* lemma. An unpruned
breadth-first replay builds dead clauses and trips over it; a pruned run
(like the depth-first checker, which never built dead clauses to begin
with) legitimately does not. A fault anywhere inside the cone must fail
identically in both runs — pruning may never mask it.
"""

import pytest

from repro.analysis import compute_prune_plan
from repro.checker import (
    BreadthFirstChecker,
    DepthFirstChecker,
    HybridChecker,
    StreamingWindowChecker,
)
from repro.solver import SolverConfig, solve_formula
from repro.solver.buggy import BugKind, make_buggy_solver
from repro.trace import InMemoryTraceWriter

from tests.conftest import pigeonhole, random_3sat

ALL_BUGS = sorted(BugKind, key=lambda b: b.value)


def solved_trace(formula, **kwargs):
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, SolverConfig(**kwargs), trace_writer=writer)
    assert result.is_unsat
    return writer.to_trace()


def run_all_strategies(formula, source, plan):
    """Reports from the four resolution strategies, pruned and unpruned.

    ``source`` is a Trace or a trace file path; the depth-first checker
    only participates for in-memory traces (it cannot load a stream the
    assembler rejects, and neither could any caller hand it one).
    """
    from repro.trace.records import Trace

    strategies = [
        ("bf", lambda p: BreadthFirstChecker(formula, source, prune_plan=p)),
        ("hybrid", lambda p: HybridChecker(formula, source, prune_plan=p)),
        ("streaming", lambda p: StreamingWindowChecker(formula, source, prune_plan=p)),
    ]
    if isinstance(source, Trace):
        strategies.insert(
            0, ("df", lambda p: DepthFirstChecker(formula, source, prune_plan=p))
        )
    return {name: (build(None).check(), build(plan).check())
            for name, build in strategies}


def verdict(report):
    if report.verified:
        return ("verified",)
    return (report.failure.kind.value, report.failure.message)


def assert_parity(unpruned, pruned, plan, label):
    """Same verdict, modulo the documented dead-lemma exception."""
    if verdict(unpruned) == verdict(pruned):
        return
    # The only tolerated divergence: the unpruned failure lives in a
    # statically dead lemma the pruned run never builds.
    assert not unpruned.verified and pruned.verified, (
        label, verdict(unpruned), verdict(pruned),
    )
    assert plan is not None, label
    cid = unpruned.failure.context.get("cid")
    assert cid is not None and cid in plan.skip, (
        label, verdict(unpruned), verdict(pruned), cid,
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: pigeonhole(6, 5), id="php65"),
        pytest.param(lambda: random_3sat(16, 80, seed=3), id="r3sat"),
    ],
)
def test_clean_traces_verify_identically_pruned_and_unpruned(make):
    formula = make()
    trace = solved_trace(formula)
    plan = compute_prune_plan(trace)
    assert plan is not None
    for name, (unpruned, pruned) in run_all_strategies(formula, trace, plan).items():
        assert unpruned.verified, (name, unpruned.failure)
        assert pruned.verified, (name, pruned.failure)
        assert pruned.prune is not None and unpruned.prune is None
        assert pruned.prune["skipped"] == len(plan.skip)
        # The pruned run builds exactly the cone (df builds it regardless,
        # hybrid computes it itself when no plan is handed in).
        if name in ("bf", "hybrid", "streaming"):
            assert pruned.clauses_built == len(plan.keep)
        if name in ("bf", "streaming"):
            assert unpruned.clauses_built == plan.total_learned
        if name == "hybrid":
            assert unpruned.clauses_built == len(plan.keep)


def test_pruned_bf_builds_only_the_cone():
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    plan = compute_prune_plan(trace)
    report = BreadthFirstChecker(formula, trace, prune_plan=plan).check()
    assert report.verified
    assert report.clauses_built == len(plan.keep)
    assert report.total_learned == plan.total_learned


@pytest.mark.parametrize("bug", ALL_BUGS)
def test_fault_matrix_verdict_parity(bug, tmp_path):
    """Every injectable bug: pruning must not change any strategy's verdict
    (structurally corrupt traces produce no plan at all and run unpruned
    on both sides, which is parity by construction)."""
    checked = 0
    for seed in range(6):
        formula = pigeonhole(6, 5)
        if bug is BugKind.EMPTY_SOURCES:
            # The in-memory record type rejects zero-source clauses, so
            # this bug only exists through file-backed writers.
            from repro.trace import AsciiTraceWriter

            path = tmp_path / f"{bug.value}_{seed}.trace"
            inner = AsciiTraceWriter(path)
            solver, wrapper = make_buggy_solver(formula, bug, inner, seed=seed)
            result = solver.solve()
            inner.close()
            if not result.is_unsat or (wrapper is not None and not wrapper.corrupted):
                continue
            source = str(path)
            plan = compute_prune_plan(source)
            checked += 1
            for name, (unpruned, pruned) in run_all_strategies(
                formula, source, plan
            ).items():
                assert_parity(unpruned, pruned, plan, (bug, seed, name))
            continue
        inner = InMemoryTraceWriter()
        solver, wrapper = make_buggy_solver(formula, bug, inner, seed=seed)
        result = solver.solve()
        if not result.is_unsat:
            continue
        if wrapper is not None and not wrapper.corrupted:
            continue
        try:
            source = inner.to_trace()
        except Exception:
            # Assembly rejects the stream (e.g. duplicate IDs); the
            # streaming checkers still see it through a file.
            path = tmp_path / f"{bug.value}_{seed}.trace"
            _write_records_ascii(path, inner.records)
            source = str(path)
        plan = compute_prune_plan(source)
        checked += 1
        for name, (unpruned, pruned) in run_all_strategies(
            formula, source, plan
        ).items():
            assert_parity(unpruned, pruned, plan, (bug, seed, name))
    assert checked > 0, f"bug {bug} never produced a checkable trace"


def _write_records_ascii(path, records):
    from repro.trace import AsciiTraceWriter
    from repro.trace.records import (
        ClauseDeletion,
        FinalConflict,
        LearnedClause,
        LevelZeroAssignment,
        TraceHeader,
        TraceResult,
    )

    writer = AsciiTraceWriter(path)
    for record in records:
        if isinstance(record, TraceHeader):
            writer.header(record.num_vars, record.num_original_clauses)
        elif isinstance(record, LearnedClause):
            writer.learned_clause(record.cid, record.sources)
        elif isinstance(record, LevelZeroAssignment):
            writer.level_zero(record.var, record.value, record.antecedent)
        elif isinstance(record, FinalConflict):
            writer.final_conflict(record.cid)
        elif isinstance(record, TraceResult):
            writer.result(record.status)
        elif isinstance(record, ClauseDeletion):
            writer.clause_deletion(record.cid)
    writer.close()


def test_fault_inside_the_cone_still_fails_pruned():
    """Corrupt a kept clause's chain directly: the pruned run must fail with
    the same verdict as the unpruned one — pruning never masks a cone bug."""
    formula = pigeonhole(6, 5)
    trace = solved_trace(formula)
    plan = compute_prune_plan(trace)
    # Pick a kept learned clause with >2 sources and drop one mid-chain.
    victim = next(
        cid for cid in sorted(plan.keep)
        if len(trace.learned[cid].sources) > 2
    )
    from repro.trace.records import LearnedClause

    broken = trace.learned[victim]
    trace.learned[victim] = LearnedClause(
        victim, broken.sources[:1] + broken.sources[2:]
    )
    plan = compute_prune_plan(trace)  # re-plan: structure is still clean
    assert plan is not None and victim in plan.keep
    for name, (unpruned, pruned) in run_all_strategies(formula, trace, plan).items():
        assert not unpruned.verified, name
        assert not pruned.verified, name
        assert verdict(unpruned) == verdict(pruned), name


def test_checkpoint_fingerprints_separate_pruned_and_unpruned(tmp_path):
    """A BF checkpoint written pruned must not resume an unpruned run."""
    formula = pigeonhole(6, 5)
    writer = InMemoryTraceWriter()
    assert solve_formula(formula, trace_writer=writer).is_unsat
    trace = writer.to_trace()
    plan = compute_prune_plan(trace)
    assert plan is not None

    pruned = BreadthFirstChecker(formula, trace, prune_plan=plan)
    unpruned = BreadthFirstChecker(formula, trace)
    pruned.check()
    unpruned.check()
    assert pruned._trace_fingerprint() != unpruned._trace_fingerprint()


# -- hybrid: BF over the analyzer's cone ----------------------------------------

# c1=[1] c2=[-1] c3=[1 2] c4=[-2 1]: the final conflict c2 resolves against
# the level-0 antecedent c1 to the empty clause; (3, 4) resolves to [1].
_FOUR_CLAUSES = [[1], [-1], [1, 2], [-2, 1]]

_VETOED_TRACES = {
    # Two dead learned clauses with non-monotonic IDs.
    "non-monotonic-dead": "T 2 4\nCL 6 3 4\nCL 5 3 4\nV 1 1 1\nCONF 2\nR UNSAT\n",
    # An undefined level-0 antecedent for a variable no resolution touches.
    "undefined-antecedent": "T 2 4\nCL 5 3 4\nV 1 1 1\nV 2 1 99\nCONF 2\nR UNSAT\n",
}


def _outcome(report):
    if report.verified:
        return ("verified",)
    failure = report.failure
    return (failure.kind.value, failure.message, failure.context)


@pytest.mark.parametrize("text", list(_VETOED_TRACES.values()), ids=list(_VETOED_TRACES))
def test_hybrid_follows_bf_on_traces_the_analyzer_vetoes(text, tmp_path):
    from repro.cnf import CnfFormula

    formula = CnfFormula(2, _FOUR_CLAUSES)
    path = tmp_path / "vetoed.trace"
    path.write_text(text)
    assert compute_prune_plan(str(path)) is None
    bf = BreadthFirstChecker(formula, path).check()
    hybrid = HybridChecker(formula, path).check()
    assert _outcome(hybrid) == _outcome(bf)


class _TimeoutFromCall:
    """A deadline double that expires from its ``k``-th poll on."""

    def __init__(self, k):
        self.k = k
        self.calls = 0

    def check(self):
        from repro.checker.memory import CheckTimeout

        self.calls += 1
        if self.calls >= self.k:
            raise CheckTimeout(0.0, 0.0)


@pytest.mark.parametrize("k", [2, 3])
def test_hybrid_graph_pass_polls_the_deadline(k):
    """The first poll is check()'s own; every later one that can expire
    before the BF pass starts must come from the graph pass."""
    formula = pigeonhole(7, 6)
    trace = solved_trace(formula)
    assert sum(1 for _ in trace.records()) > 3 * 256
    report = HybridChecker(formula, trace, deadline=_TimeoutFromCall(k)).check()
    assert report.failure is not None and report.failure.kind.value == "timeout"
    assert report.clauses_built == 0
