"""Kernel vs reference engine: identical verdicts under fault injection.

Every checker runs with ``use_kernel=True`` by default; the frozenset
oracle stays selectable with ``use_kernel=False``. Whatever the trace —
clean or corrupted by any of the injected solver bugs — the two engines
must return the same verdict, the same failure kind, and the same derived
statistics through the breadth-first and depth-first checkers.
"""

import pytest

from repro.checker import BreadthFirstChecker, DepthFirstChecker
from repro.solver.buggy import BugKind, make_buggy_solver
from repro.trace import InMemoryTraceWriter
from repro.trace.io import open_trace_writer

from tests.conftest import pigeonhole

TRACE_BUGS = [
    BugKind.DROP_SOURCE,
    BugKind.SWAP_SOURCES,
    BugKind.WRONG_ANTECEDENT,
    BugKind.OMIT_LEVEL_ZERO,
    BugKind.WRONG_FINAL_CONFLICT,
]


def _corrupted_trace(formula, bug, seed=0):
    inner = InMemoryTraceWriter()
    solver, wrapper = make_buggy_solver(formula, bug, inner, seed=seed)
    assert solver.solve().is_unsat
    if wrapper is not None and not wrapper.corrupted:
        return None
    return inner.to_trace()


def _write_binary(trace, path):
    with open_trace_writer(path, fmt="binary") as writer:
        writer.header(trace.header.num_vars, trace.header.num_original_clauses)
        for record in trace.learned.values():
            writer.learned_clause(record.cid, record.sources)
        for entry in trace.level_zero:
            writer.level_zero(entry.var, entry.value, entry.antecedent)
        for cid in trace.final_conflicts:
            writer.final_conflict(cid)
        writer.result(trace.status)
    return str(path)


def _assert_reports_match(kernel_report, reference_report, context):
    assert kernel_report.verified == reference_report.verified, context
    if not kernel_report.verified:
        assert kernel_report.failure is not None and reference_report.failure is not None
        assert kernel_report.failure.kind == reference_report.failure.kind, context
    assert kernel_report.clauses_built == reference_report.clauses_built, context
    assert kernel_report.total_learned == reference_report.total_learned, context
    assert kernel_report.resolutions == reference_report.resolutions, context


@pytest.mark.parametrize("bug", TRACE_BUGS)
def test_breadth_first_engine_parity_under_faults(bug, tmp_path):
    fired = 0
    for seed in range(6):
        formula = pigeonhole(6, 5)
        trace = _corrupted_trace(formula, bug, seed=seed)
        if trace is None:
            continue
        fired += 1
        path = _write_binary(trace, tmp_path / f"bf-{bug.name}-{seed}.rtb")
        kernel = BreadthFirstChecker(formula, path, use_kernel=True).check()
        reference = BreadthFirstChecker(formula, path, use_kernel=False).check()
        _assert_reports_match(kernel, reference, (bug, seed))
    assert fired > 0, f"bug {bug} never fired"


@pytest.mark.parametrize("bug", TRACE_BUGS)
def test_depth_first_engine_parity_under_faults(bug):
    fired = 0
    for seed in range(6):
        formula = pigeonhole(6, 5)
        trace = _corrupted_trace(formula, bug, seed=seed)
        if trace is None:
            continue
        fired += 1
        kernel = DepthFirstChecker(formula, trace, use_kernel=True).check()
        reference = DepthFirstChecker(formula, trace, use_kernel=False).check()
        _assert_reports_match(kernel, reference, (bug, seed))
    assert fired > 0, f"bug {bug} never fired"


def test_clean_trace_engine_parity_all_checkers(tmp_path):
    formula = pigeonhole(6, 5)
    inner = InMemoryTraceWriter()
    solver, _ = make_buggy_solver(formula, None, inner, seed=0)
    assert solver.solve().is_unsat
    trace = inner.to_trace()
    path = _write_binary(trace, tmp_path / "clean.rtb")

    bf_k = BreadthFirstChecker(formula, path, use_kernel=True).check()
    bf_r = BreadthFirstChecker(formula, path, use_kernel=False).check()
    _assert_reports_match(bf_k, bf_r, "bf clean")
    assert bf_k.verified

    df_k = DepthFirstChecker(formula, trace, use_kernel=True).check()
    df_r = DepthFirstChecker(formula, trace, use_kernel=False).check()
    _assert_reports_match(df_k, df_r, "df clean")
    assert df_k.verified
