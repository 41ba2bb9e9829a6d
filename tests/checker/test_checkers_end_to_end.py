"""End-to-end: solve real instances, validate the proofs with every checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import CnfFormula
from repro.checker import (
    BreadthFirstChecker,
    DepthFirstChecker,
    HybridChecker,
    RupChecker,
)
from repro.proofs import TextProofWriter
from repro.solver import SolverConfig, solve_formula
from repro.solver.reference import reference_is_satisfiable
from repro.trace import AsciiTraceWriter, BinaryTraceWriter, InMemoryTraceWriter, load_trace

from tests.conftest import pigeonhole, random_3sat, xor_chain

UNSAT_INSTANCES = [
    ("php32", lambda: pigeonhole(3, 2)),
    ("php54", lambda: pigeonhole(5, 4)),
    ("php65", lambda: pigeonhole(6, 5)),
    ("xor15", lambda: xor_chain(15, parity=True)),
    ("units", lambda: CnfFormula(1, [[1], [-1]])),
    ("r3sat", lambda: random_3sat(25, 180, seed=2)),
]


def _trace_of(formula, **config_kwargs):
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, SolverConfig(**config_kwargs), trace_writer=writer)
    assert result.is_unsat
    return writer.to_trace()


@pytest.mark.parametrize("name,factory", UNSAT_INSTANCES)
def test_depth_first_verifies(name, factory):
    formula = factory()
    report = DepthFirstChecker(formula, _trace_of(formula)).check()
    assert report.verified, report.summary()


@pytest.mark.parametrize("name,factory", UNSAT_INSTANCES)
def test_breadth_first_verifies(name, factory):
    formula = factory()
    report = BreadthFirstChecker(formula, _trace_of(formula)).check()
    assert report.verified, report.summary()


@pytest.mark.parametrize("name,factory", UNSAT_INSTANCES)
def test_hybrid_verifies(name, factory):
    formula = factory()
    report = HybridChecker(formula, _trace_of(formula)).check()
    assert report.verified, report.summary()


@pytest.mark.parametrize("name,factory", UNSAT_INSTANCES)
def test_rup_verifies(name, factory, tmp_path):
    formula = factory()
    proof = tmp_path / "proof.drup"
    result = solve_formula(formula, drup_writer=TextProofWriter(proof))
    assert result.is_unsat
    report = RupChecker(formula, proof).check()
    assert report.verified, report.summary()


@pytest.mark.parametrize("fmt,writer_cls", [("ascii", AsciiTraceWriter), ("binary", BinaryTraceWriter)])
def test_checkers_from_trace_files(fmt, writer_cls, tmp_path):
    formula = pigeonhole(5, 4)
    path = tmp_path / f"t.{fmt}"
    result = solve_formula(formula, trace_writer=writer_cls(path))
    assert result.is_unsat
    assert DepthFirstChecker(formula, load_trace(path)).check().verified
    assert BreadthFirstChecker(formula, path).check().verified
    assert HybridChecker(formula, path).check().verified


def test_bf_chunked_counting_matches_unchunked(tmp_path):
    formula = pigeonhole(6, 5)
    path = tmp_path / "t.trace"
    solve_formula(formula, trace_writer=AsciiTraceWriter(path))
    binary_path = tmp_path / "t.rtb"
    solve_formula(formula, trace_writer=BinaryTraceWriter(binary_path))
    for source in (path, binary_path, load_trace(path)):
        whole = BreadthFirstChecker(formula, source).check()
        chunked = BreadthFirstChecker(formula, source, count_chunk_size=7).check()
        assert whole.verified and chunked.verified
        assert whole.clauses_built == chunked.clauses_built
        assert whole.peak_memory_units == chunked.peak_memory_units


def test_df_and_hybrid_build_nearly_the_same_subset():
    # Hybrid marks every level-0 antecedent as needed up front; DF builds
    # only what the derivation actually touches, so DF <= hybrid <= BF.
    formula = pigeonhole(6, 5)
    trace = _trace_of(formula)
    df = DepthFirstChecker(formula, trace).check()
    hy = HybridChecker(formula, trace).check()
    assert df.clauses_built <= hy.clauses_built <= trace.num_learned
    assert df.learned_used <= hy.learned_used
    assert df.original_core <= hy.original_core


def test_df_builds_subset_bf_builds_all():
    formula = random_3sat(25, 180, seed=2)
    trace = _trace_of(formula)
    df = DepthFirstChecker(formula, trace).check()
    bf = BreadthFirstChecker(formula, trace).check()
    assert df.clauses_built <= bf.clauses_built
    assert bf.clauses_built == trace.num_learned
    assert 0 < df.built_pct <= 100.0


def test_bf_peak_memory_below_df():
    formula = pigeonhole(7, 6)
    trace = _trace_of(formula)
    df = DepthFirstChecker(formula, trace).check()
    bf = BreadthFirstChecker(formula, trace).check()
    assert df.verified and bf.verified
    assert bf.peak_memory_units < df.peak_memory_units


def test_df_memory_limit_reproduces_memory_out():
    formula = pigeonhole(7, 6)
    trace = _trace_of(formula)
    unlimited = DepthFirstChecker(formula, trace).check()
    limited = DepthFirstChecker(formula, trace, memory_limit=unlimited.peak_memory_units // 2).check()
    assert not limited.verified
    assert limited.failure.kind.value == "memory-out"
    # The BF checker fits in the same budget (Table 2's punchline).
    bf = BreadthFirstChecker(formula, trace, memory_limit=unlimited.peak_memory_units // 2).check()
    assert bf.verified


def test_original_core_is_unsatisfiable():
    formula = pigeonhole(5, 4)
    report = DepthFirstChecker(formula, _trace_of(formula)).check()
    core = formula.restrict_to(report.original_core)
    assert not reference_is_satisfiable(core)


def test_core_excludes_padding_clauses():
    # PHP(4,3) plus irrelevant satisfiable padding: the padding must not
    # enter the proof core.
    base = pigeonhole(4, 3)
    clauses = [list(c.literals) for c in base]
    pad_start = base.num_vars + 1
    clauses.append([pad_start, pad_start + 1])
    clauses.append([-pad_start, pad_start + 1])
    formula = CnfFormula(base.num_vars + 2, clauses)
    report = DepthFirstChecker(formula, _trace_of(formula)).check()
    assert report.verified
    padding_ids = {formula.num_clauses - 1, formula.num_clauses}
    assert not (report.original_core & padding_ids)


def test_checker_rejects_sat_trace(small_sat):
    writer = InMemoryTraceWriter()
    solve_formula(small_sat, trace_writer=writer)
    trace = writer.to_trace()
    for checker in (
        DepthFirstChecker(small_sat, trace),
        BreadthFirstChecker(small_sat, trace),
        HybridChecker(small_sat, trace),
    ):
        report = checker.check()
        assert not report.verified
        assert report.failure.kind.value == "bad-status"


def test_checker_rejects_wrong_formula():
    formula = pigeonhole(5, 4)
    trace = _trace_of(formula)
    other = pigeonhole(4, 3)
    report = DepthFirstChecker(other, trace).check()
    assert not report.verified
    assert report.failure.kind.value == "unknown-clause"


def test_all_checkers_with_deletion_and_restarts():
    formula = pigeonhole(7, 6)
    trace = _trace_of(formula, min_learned_cap=20, max_learned_factor=0.0, restart_first=5)
    assert DepthFirstChecker(formula, trace).check().verified
    assert BreadthFirstChecker(formula, trace).check().verified
    assert HybridChecker(formula, trace).check().verified


@settings(max_examples=25, deadline=None)
@given(data=st.data(), num_vars=st.integers(min_value=2, max_value=10))
def test_every_unsat_random_formula_checks(data, num_vars):
    """Soundness property: every UNSAT claim the solver makes must check."""
    lit = st.integers(min_value=-num_vars, max_value=num_vars).filter(lambda x: x != 0)
    clauses = data.draw(
        st.lists(st.lists(lit, min_size=1, max_size=3), min_size=4, max_size=45)
    )
    formula = CnfFormula(num_vars, clauses)
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, trace_writer=writer)
    assert result.is_sat == reference_is_satisfiable(formula)
    if result.is_unsat:
        trace = writer.to_trace()
        assert DepthFirstChecker(formula, trace).check().verified
        assert BreadthFirstChecker(formula, trace).check().verified
        assert HybridChecker(formula, trace).check().verified
