"""Trace trimming: smaller proofs that still check everywhere."""

import pytest

from repro.checker import BreadthFirstChecker, DepthFirstChecker, HybridChecker
from repro.cnf import CnfFormula
from repro.solver import SolverConfig, solve_formula
from repro.trace import InMemoryTraceWriter, load_trace
from repro.trace.trim import trim_trace, write_trimmed

from tests.conftest import pigeonhole, random_3sat


def _solve_traced(formula, **kwargs):
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, SolverConfig(**kwargs), trace_writer=writer)
    assert result.is_unsat
    return writer.to_trace()


@pytest.fixture(scope="module")
def r3sat():
    # A shifter-equivalence miter: about a third of its learned clauses
    # are dead weight for the final proof, so trimming has work to do.
    from repro.circuits import miter_to_cnf, shifter_equivalence_miter

    formula = miter_to_cnf(shifter_equivalence_miter(8))
    return formula, _solve_traced(formula)


def test_trim_drops_unneeded_clauses(r3sat):
    formula, trace = r3sat
    result = trim_trace(formula, trace)
    assert result.kept_learned + result.dropped_learned == trace.num_learned
    assert result.dropped_learned > 0  # this instance has dead learned clauses
    assert 0 < result.kept_fraction <= 1.0


def test_trimmed_trace_checks_with_every_strategy(r3sat):
    formula, trace = r3sat
    trimmed = trim_trace(formula, trace).trace
    assert DepthFirstChecker(formula, trimmed).check().verified
    assert BreadthFirstChecker(formula, trimmed).check().verified
    assert HybridChecker(formula, trimmed).check().verified


def test_trimming_is_idempotent(r3sat):
    formula, trace = r3sat
    once = trim_trace(formula, trace)
    twice = trim_trace(formula, once.trace)
    assert twice.dropped_learned == 0
    assert twice.kept_learned == once.kept_learned


def test_df_builds_everything_in_a_trimmed_trace(r3sat):
    formula, trace = r3sat
    trimmed = trim_trace(formula, trace).trace
    report = DepthFirstChecker(formula, trimmed).check()
    # Nearly all clauses kept are needed; allow the level-0-antecedent
    # closure margin (kept for the streaming checkers).
    assert report.clauses_built >= trimmed.num_learned * 0.9


def test_trim_preserves_core(r3sat):
    formula, trace = r3sat
    result = trim_trace(formula, trace)
    report = DepthFirstChecker(formula, result.trace).check()
    assert report.original_core <= result.original_core | report.original_core


def test_trim_rejects_invalid_trace():
    formula = CnfFormula(2, [[1, 2]])  # SAT: no valid UNSAT trace exists
    writer = InMemoryTraceWriter()
    solve_formula(formula, trace_writer=writer)
    with pytest.raises(Exception):
        trim_trace(formula, writer.to_trace())


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_write_trimmed_roundtrip(tmp_path, fmt, r3sat):
    formula, trace = r3sat
    path = tmp_path / f"trimmed.{fmt}"
    result = write_trimmed(formula, trace, path, fmt=fmt)
    again = load_trace(path)
    assert again.num_learned == result.kept_learned
    assert BreadthFirstChecker(formula, path).check().verified


def test_trimmed_file_is_smaller(tmp_path, r3sat):
    formula, trace = r3sat
    from repro.trace import AsciiTraceWriter

    full_path = tmp_path / "full.trace"
    writer = AsciiTraceWriter(full_path)
    writer.header(trace.header.num_vars, trace.header.num_original_clauses)
    for record in trace.learned.values():
        writer.learned_clause(record.cid, record.sources)
    for entry in trace.level_zero:
        writer.level_zero(entry.var, entry.value, entry.antecedent)
    for cid in trace.final_conflicts:
        writer.final_conflict(cid)
    writer.result(trace.status)
    writer.close()

    trimmed_path = tmp_path / "trimmed.trace"
    write_trimmed(formula, trace, trimmed_path)
    assert trimmed_path.stat().st_size < full_path.stat().st_size


def test_php_trim_keeps_most(r3sat):
    # Pigeonhole proofs need nearly everything (the Table 2/3 pattern).
    formula = pigeonhole(5, 4)
    trace = _solve_traced(formula)
    result = trim_trace(formula, trace)
    assert result.kept_fraction > 0.9


# -- the static-analyzer rewiring ---------------------------------------------


@pytest.fixture(scope="module")
def deletion_heavy():
    """An aggressive-deletion solve: dead lemmas AND deletion records."""
    formula = pigeonhole(6, 5)
    trace = _solve_traced(formula, seed=1, max_learned_factor=0.05, min_learned_cap=10)
    assert trace.deletions  # the config must actually trigger deletions
    return formula, trace


def test_trim_preserves_header_status_and_trail(r3sat):
    formula, trace = r3sat
    trimmed = trim_trace(formula, trace).trace
    assert trimmed.header == trace.header
    assert trimmed.status == trace.status
    assert trimmed.level_zero == trace.level_zero
    assert trimmed.final_conflicts == trace.final_conflicts[:1]


def test_trim_keeps_exactly_the_prune_plan(r3sat):
    from repro.analysis import compute_prune_plan

    formula, trace = r3sat
    plan = compute_prune_plan(trace)
    result = trim_trace(formula, trace)
    assert set(result.trace.learned) == set(plan.keep)
    assert result.dropped_learned == len(plan.skip)


def test_trim_keeps_deletions_of_kept_clauses_only(deletion_heavy):
    formula, trace = deletion_heavy
    result = trim_trace(formula, trace)
    trimmed = result.trace
    total = sum(len(cids) for cids in trace.deletions.values())
    kept = sum(len(cids) for cids in trimmed.deletions.values())
    assert kept == result.kept_deletions
    assert result.kept_deletions + result.dropped_deletions == total
    assert result.dropped_deletions > 0  # dead clauses had deletions
    for cids in trimmed.deletions.values():
        for cid in cids:
            assert cid in trimmed.learned


def test_trim_reanchors_deletions_to_kept_clauses(deletion_heavy):
    formula, trace = deletion_heavy
    trimmed = trim_trace(formula, trace).trace
    # This fixture drops at least one anchor clause, forcing re-anchoring.
    assert any(
        anchor and anchor not in trimmed.learned for anchor in trace.deletions
    )
    for anchor in trimmed.deletions:
        assert anchor == 0 or anchor in trimmed.learned
    # A re-keyed deletion never moves *later* than where it was recorded.
    for anchor, cids in trimmed.deletions.items():
        for cid in cids:
            original_anchor = next(
                a for a, group in trace.deletions.items() if cid in group
            )
            assert anchor <= original_anchor


def test_verify_mode_accepts_a_valid_trace(r3sat):
    formula, trace = r3sat
    plain = trim_trace(formula, trace)
    verified = trim_trace(formula, trace, verify=True)
    assert set(verified.trace.learned) == set(plain.trace.learned)
    assert verified.original_core  # the DF checker's dynamic core


def test_verify_mode_rejects_a_semantically_broken_trace():
    """Structurally clean but wrong resolution: only verify=True catches it."""
    from repro.checker.errors import CheckFailure
    from repro.trace.records import LearnedClause

    formula = pigeonhole(5, 4)
    trace = _solve_traced(formula)
    plain = trim_trace(formula, trace)
    victim = next(
        cid
        for cid in sorted(plain.trace.learned)
        if len(trace.learned[cid].sources) > 2
    )
    broken = trace.learned[victim]
    trace.learned[victim] = LearnedClause(
        victim, broken.sources[:1] + broken.sources[2:]
    )
    trim_trace(formula, trace)  # static-only trim cannot see the breakage
    with pytest.raises(CheckFailure):
        trim_trace(formula, trace, verify=True)


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_write_trimmed_preserves_deletions(tmp_path, fmt, deletion_heavy):
    formula, trace = deletion_heavy
    path = tmp_path / f"trimmed.{fmt}"
    result = write_trimmed(formula, trace, path, fmt=fmt)
    again = load_trace(path)
    assert sum(len(cids) for cids in again.deletions.values()) == result.kept_deletions
    assert again.learned == result.trace.learned


@pytest.mark.parametrize("use_kernel", [True, False], ids=["kernel", "oracle"])
def test_trimmed_binary_rechecks_under_every_engine(tmp_path, use_kernel, deletion_heavy):
    formula, trace = deletion_heavy
    path = tmp_path / "trimmed.btrace"
    write_trimmed(formula, trace, path, fmt="binary")
    trimmed = load_trace(path)
    reports = [
        DepthFirstChecker(formula, trimmed, use_kernel=use_kernel).check(),
        BreadthFirstChecker(formula, path, use_kernel=use_kernel).check(),
        HybridChecker(formula, path, use_kernel=use_kernel).check(),
    ]
    for report in reports:
        assert report.verified, (report.method, report.failure)
