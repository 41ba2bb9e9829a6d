"""The static derivation-graph analyzer: cone, stats, prune plans.

The load-bearing claim is §3.2 turned static: the backward-reachable cone
from the final conflict (plus the level-0 antecedents) is exactly the set
of learned clauses a checker must build. These tests pin that equivalence
against the depth-first checker's dynamic discovery, and pin the safety
valve — no plan for anything structurally suspect.
"""

import pytest

from repro.analysis import analyze_trace, build_graph, compute_prune_plan
from repro.checker import DepthFirstChecker
from repro.solver import SolverConfig, solve_formula
from repro.trace import InMemoryTraceWriter
from repro.trace.records import (
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    TraceHeader,
    TraceResult,
)

from tests.conftest import pigeonhole, random_3sat, xor_chain


def solved_trace(formula, **kwargs):
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, SolverConfig(**kwargs), trace_writer=writer)
    assert result.is_unsat
    return writer.to_trace()


FIXTURES = [
    pytest.param(lambda: pigeonhole(5, 4), id="php54"),
    pytest.param(lambda: pigeonhole(6, 5), id="php65"),
    pytest.param(lambda: xor_chain(12), id="xor12"),
    pytest.param(lambda: random_3sat(16, 80, seed=3), id="r3sat"),
]


@pytest.mark.parametrize("make", FIXTURES)
def test_static_cone_equals_dynamic_df_core(make):
    """The analyzer's cone is exactly what the DF checker builds."""
    formula = make()
    trace = solved_trace(formula)
    graph = build_graph(trace)
    assert not graph.violations

    report = DepthFirstChecker(formula, trace).check()
    assert report.verified
    cone_learned = graph.cone() & set(trace.learned)
    assert report.clauses_built == len(cone_learned)
    # Every dynamically used learned clause is in the static cone, and the
    # original-clause core agrees exactly.
    assert report.learned_used <= cone_learned
    assert set(graph.original_core()) == report.original_core


@pytest.mark.parametrize("make", FIXTURES)
def test_prune_plan_partitions_the_learned_set(make):
    trace = solved_trace(make())
    plan = compute_prune_plan(trace)
    assert plan is not None
    assert plan.keep | plan.skip == set(trace.learned)
    assert not (plan.keep & plan.skip)
    assert plan.total_learned == trace.num_learned
    assert plan.num_original == trace.header.num_original_clauses


def test_plan_digest_is_deterministic_and_content_bound():
    trace = solved_trace(pigeonhole(5, 4))
    plan_a = compute_prune_plan(trace)
    plan_b = compute_prune_plan(trace)
    assert plan_a.digest() == plan_b.digest()
    trace_b = solved_trace(pigeonhole(5, 4), seed=7)
    plan_c = compute_prune_plan(trace_b)
    if plan_c.skip != plan_a.skip:
        assert plan_c.digest() != plan_a.digest()


def test_cone_is_closed_under_sources():
    trace = solved_trace(pigeonhole(6, 5))
    graph = build_graph(trace)
    cone = graph.cone()
    for cid in cone:
        for source in trace.learned[cid].sources:
            if source > trace.header.num_original_clauses:
                assert source in cone


def test_needed_counts_are_breadth_first_exact():
    """Plan counts must match what a kept-only replay consumes: one use per
    source reference from a kept clause, per level-0 antecedent, and per
    final-conflict record citing a kept clause."""
    trace = solved_trace(pigeonhole(6, 5))
    plan = compute_prune_plan(trace)
    num_original = trace.header.num_original_clauses
    expected: dict[int, int] = {}
    for cid in plan.keep:
        for source in trace.learned[cid].sources:
            if source > num_original:
                expected[source] = expected.get(source, 0) + 1
    for entry in trace.level_zero:
        if entry.antecedent > num_original:
            expected[entry.antecedent] = expected.get(entry.antecedent, 0) + 1
    for cid in trace.final_conflicts:
        if cid > num_original and cid in plan.keep:
            expected[cid] = expected.get(cid, 0) + 1
    assert dict(plan.needed_counts) == expected


def _minimal_records(status="UNSAT"):
    return [
        TraceHeader(num_vars=3, num_original_clauses=3),
        LearnedClause(4, (1, 2)),
        LearnedClause(5, (4, 3)),
        LevelZeroAssignment(1, True, 4),
        LevelZeroAssignment(2, False, 5),
        FinalConflict(5),
        TraceResult(status),
    ]


def test_no_plan_for_sat_claim():
    assert compute_prune_plan(_minimal_records("SAT")) is None


def test_no_plan_without_final_conflict():
    records = _minimal_records()
    del records[5]
    assert compute_prune_plan(records) is None


def test_no_plan_for_structural_violations():
    dangling = _minimal_records()
    dangling[2] = LearnedClause(5, (4, 9, 3))  # 9 was never defined
    assert compute_prune_plan(dangling) is None

    forward = _minimal_records()
    forward[1] = LearnedClause(4, (1, 5))
    assert compute_prune_plan(forward) is None

    headless = _minimal_records()[1:]
    assert compute_prune_plan(headless) is None

    nonmono = _minimal_records()
    nonmono[1], nonmono[2] = (
        LearnedClause(5, (1, 2)),
        LearnedClause(4, (1, 3)),
    )
    assert compute_prune_plan(nonmono) is None


def test_no_plan_for_unparseable_file(tmp_path):
    path = tmp_path / "garbage.trace"
    path.write_text("this is not a trace\n")
    assert compute_prune_plan(str(path)) is None


def test_graph_from_file_matches_graph_from_memory(tmp_path):
    from repro.trace import open_trace_writer

    trace = solved_trace(pigeonhole(5, 4))
    for fmt, name in (("ascii", "t.trace"), ("binary", "t.btrace")):
        path = tmp_path / name
        writer = open_trace_writer(path, fmt)
        for record in trace.records():
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
        writer.close()
        from_file = build_graph(str(path))
        assert from_file.cone() == build_graph(trace).cone()
        assert from_file.stats().to_dict() == build_graph(trace).stats().to_dict()


def test_stats_shape():
    trace = solved_trace(pigeonhole(5, 4))
    stats = build_graph(trace).stats()
    assert stats.num_learned == trace.num_learned
    assert stats.core_learned + stats.dead_learned == stats.num_learned
    assert 0.0 <= stats.dead_fraction <= 1.0
    assert stats.depth >= 1
    assert stats.width >= 1
    payload = stats.to_dict()
    assert payload["core_learned"] == stats.core_learned
    assert "depth" in payload and "width" in payload
    assert "core" in stats.summary()


def test_redundant_derivations_detects_identical_chains():
    records = _minimal_records()
    records.insert(3, LearnedClause(6, (1, 2)))  # same chain as cid 4
    graph = build_graph(records)
    assert graph.redundant_derivations() == [(6, 4)]


def test_find_cycle_on_clean_trace_is_none():
    graph = build_graph(_minimal_records())
    assert graph.find_cycle() is None


def test_find_cycle_detects_mutual_dependency():
    records = [
        TraceHeader(num_vars=3, num_original_clauses=3),
        LearnedClause(4, (1, 5)),  # forward: depends on 5
        LearnedClause(5, (4, 2)),  # and 5 depends on 4
        FinalConflict(5),
        TraceResult("UNSAT"),
    ]
    graph = build_graph(records)
    cycle = graph.find_cycle()
    assert cycle is not None
    assert set(cycle) == {4, 5}


def test_analysis_report_carries_graph_stats():
    trace = solved_trace(pigeonhole(5, 4))
    report = analyze_trace(trace.records(), graph=True)
    assert report.graph is not None
    assert report.graph["num_learned"] == trace.num_learned
    assert report.graph["status"] == "UNSAT"
    assert report.graph["prunable"] is True
    payload = report.to_json()
    assert payload["schema_version"] == 1
    assert payload["graph"]["core_learned"] == report.graph["core_learned"]


def test_default_analysis_has_no_graph_payload():
    trace = solved_trace(pigeonhole(5, 4))
    report = analyze_trace(trace.records())
    assert report.graph is None
