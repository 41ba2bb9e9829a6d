"""Unit tests for the lint rule registry, one rule at a time.

Each test hand-builds a minimal record stream that violates exactly one
structural invariant and asserts the rule fires with the right ID — and
that the surrounding clean stream does not trip anything.
"""

import pytest

from repro.analysis import RULE_REGISTRY, Severity, analyze_trace, default_rules
from repro.trace.records import (
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    TraceHeader,
    TraceResult,
)


def valid_records():
    """A tiny structurally perfect UNSAT trace: 3 originals, 2 learned."""
    return [
        TraceHeader(num_vars=3, num_original_clauses=3),
        LearnedClause(4, (1, 2)),
        LearnedClause(5, (4, 3)),
        LevelZeroAssignment(1, True, 4),
        LevelZeroAssignment(2, False, 5),
        FinalConflict(5),
        TraceResult("UNSAT"),
    ]


def error_rules(records):
    return {d.rule_id for d in analyze_trace(records).errors}


def test_valid_trace_is_clean():
    report = analyze_trace(valid_records())
    assert report.ok
    assert not report.warnings
    assert report.num_learned == 2
    assert report.records_scanned == 7


def test_registry_covers_documented_catalog():
    ids = {cls.rule_id for cls in default_rules()}
    assert ids == {f"T{i:03d}" for i in range(1, 13)}
    for cls in default_rules():
        assert cls.rationale and cls.name and isinstance(cls.severity, Severity)


def test_t001_dangling_learned_source():
    records = valid_records()
    # 7 is below the learned ID (no forward reference) yet never defined.
    records[2] = LearnedClause(9, (4, 7))
    records[4] = LevelZeroAssignment(2, False, 9)
    records[5] = FinalConflict(9)
    assert "T001" in error_rules(records)


def test_t001_dangling_level_zero_antecedent():
    records = valid_records()
    records[3] = LevelZeroAssignment(1, True, 77)
    assert "T001" in error_rules(records)


def test_t001_dangling_final_conflict():
    records = valid_records()
    records[5] = FinalConflict(123)
    assert "T001" in error_rules(records)


def test_t002_self_and_forward_reference():
    records = valid_records()
    records[1] = LearnedClause(4, (1, 4))  # self
    assert "T002" in error_rules(records)
    records[1] = LearnedClause(4, (1, 5))  # forward
    assert "T002" in error_rules(records)


def test_t003_duplicate_learned_id():
    records = valid_records()
    records[2] = LearnedClause(4, (1, 2))  # 4 defined twice
    assert "T003" in error_rules(records)


def test_t003_collision_with_original_range():
    records = valid_records()
    records[1] = LearnedClause(2, (1, 3))
    assert "T003" in error_rules(records)


def test_t004_variable_out_of_range():
    records = valid_records()
    records[3] = LevelZeroAssignment(9, True, 4)  # header says 3 vars
    assert "T004" in error_rules(records)
    records[3] = LevelZeroAssignment(0, True, 4)
    assert "T004" in error_rules(records)


def test_t005_short_chain():
    records = valid_records()
    records[2] = LearnedClause(5, (4,))
    assert "T005" in error_rules(records)


def test_t006_unreachable_is_info_not_error():
    records = valid_records()
    # Clause 6 hangs off the DAG: nothing references it.
    records.insert(3, LearnedClause(6, (1, 2)))
    report = analyze_trace(records)
    assert report.ok, [str(d) for d in report.errors]
    t006 = [d for d in report.diagnostics if d.rule_id == "T006"]
    assert len(t006) == 1 and t006[0].severity is Severity.INFO
    assert report.reachable_learned == 2
    assert report.reachability_pct == pytest.approx(100.0 * 2 / 3)


def test_t006_skipped_when_disabled():
    records = valid_records()
    records.insert(3, LearnedClause(6, (1, 2)))
    report = analyze_trace(records, compute_reachability=False)
    assert report.reachable_learned is None
    assert "T006" not in report.rule_ids()


def test_t007_unsat_without_final_conflict():
    records = [r for r in valid_records() if not isinstance(r, FinalConflict)]
    assert "T007" in error_rules(records)


def test_t007_multiple_final_conflicts_is_warning():
    records = valid_records()
    records.insert(5, FinalConflict(4))
    report = analyze_trace(records)
    assert report.ok
    assert any(d.rule_id == "T007" for d in report.warnings)


def test_t008_missing_header():
    records = valid_records()[1:]
    assert "T008" in error_rules(records)


def test_t008_duplicate_header():
    records = valid_records()
    records.insert(1, TraceHeader(3, 3))
    assert "T008" in error_rules(records)


def test_t009_missing_result():
    records = valid_records()[:-1]
    assert "T009" in error_rules(records)


def test_t009_unknown_result_is_warning():
    records = valid_records()[:-1] + [TraceResult("UNKNOWN")]
    # An UNKNOWN trace legitimately has no CONF either; strip it too.
    records = [r for r in records if not isinstance(r, FinalConflict)]
    report = analyze_trace(records)
    assert report.ok
    assert any(d.rule_id == "T009" for d in report.warnings)


def test_t010_non_monotonic_learned_ids():
    records = [
        TraceHeader(3, 3),
        LearnedClause(6, (1, 2)),
        LearnedClause(4, (1, 3)),  # goes backwards without duplicating
        LevelZeroAssignment(1, True, 6),
        FinalConflict(4),
        TraceResult("UNSAT"),
    ]
    fired = error_rules(records)
    assert "T010" in fired
    assert "T003" not in fired  # not a duplicate, strictly an ordering issue


def test_t011_conflicting_trail_assignment():
    records = valid_records()
    records.insert(4, LevelZeroAssignment(1, False, 5))
    assert "T011" in error_rules(records)


def test_t011_repeated_identical_assignment_is_warning():
    records = valid_records()
    records.insert(4, LevelZeroAssignment(1, True, 5))
    report = analyze_trace(records)
    assert report.ok
    assert any(d.rule_id == "T011" for d in report.warnings)


def test_rule_filter_runs_only_selected_rules():
    records = valid_records()
    records[2] = LearnedClause(5, (4,))  # T005 violation
    records[3] = LevelZeroAssignment(9, True, 4)  # T004 violation
    report = analyze_trace(records, rules=["T004"])
    assert report.rule_ids() == {"T004"}


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        analyze_trace(valid_records(), rules=["T999"])


def test_diagnostics_carry_structured_context():
    records = valid_records()
    records[2] = LearnedClause(9, (4, 7))
    records[4] = LevelZeroAssignment(2, False, 9)
    records[5] = FinalConflict(9)
    report = analyze_trace(records)
    diag = next(d for d in report.errors if d.rule_id == "T001")
    assert diag.record_index == 2
    assert 7 in diag.cids and 9 in diag.cids
    assert diag.context["source"] == 7
    payload = diag.to_dict()
    assert payload["rule"] == "T001" and payload["severity"] == "error"
    assert "T001" in str(diag)


def test_registry_is_extensible():
    from repro.analysis import Rule, register_rule

    class CustomRule(Rule):
        rule_id = "X900"
        name = "custom"
        severity = Severity.WARNING
        rationale = "test-only"

        def finish(self, state):
            self.report("custom rule ran")

    register_rule(CustomRule)
    try:
        report = analyze_trace(valid_records(), rules=["X900"])
        assert report.rule_ids() == {"X900"}
    finally:
        del RULE_REGISTRY["X900"]


def test_t006_walks_the_cone_from_the_first_final_conflict_only():
    """A later final conflict seeds nothing: the checkers and the graph tier
    derive the empty clause from the first one, so T006 must agree with
    T013 and the graph's core count on the same report."""
    records = [
        TraceHeader(num_vars=2, num_original_clauses=4),
        LearnedClause(5, (3, 4)),
        LevelZeroAssignment(1, True, 1),
        FinalConflict(2),
        FinalConflict(5),
        TraceResult("UNSAT"),
    ]
    report = analyze_trace(records, graph=True)
    t006 = [d for d in report.diagnostics if d.rule_id == "T006"]
    assert len(t006) == 1 and t006[0].context["unreachable"] == 1
    t013 = [d for d in report.diagnostics if d.rule_id == "T013"]
    assert [d.cids for d in t013] == [(5,)]
    assert report.reachable_learned == report.graph["core_learned"] == 0
