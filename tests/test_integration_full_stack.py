"""Full-stack integration: every solver feature on at once, deep proofs,
and end-to-end pipelines across file formats."""

import sys

import pytest

from repro.checker import (
    BreadthFirstChecker,
    DepthFirstChecker,
    HybridChecker,
    RupChecker,
    check_model,
)
from repro.cnf import CnfFormula, parse_dimacs_file, write_dimacs_file
from repro.proofs import TextProofWriter
from repro.solver import Solver, SolverConfig, solve_formula
from repro.solver.reference import reference_is_satisfiable
from repro.trace import (
    AsciiTraceWriter,
    BinaryTraceWriter,
    InMemoryTraceWriter,
    analyze_trace,
    load_trace,
)
from repro.trace.trim import trim_trace

from tests.conftest import pigeonhole, random_3sat, xor_chain

EVERYTHING_ON = dict(
    minimize_learned=True,
    preprocess_elimination=True,
    preprocess_blocked_clause=True,
    restart_policy="luby",
    luby_unit=8,
    min_learned_cap=30,
    max_learned_factor=0.0,
    random_decision_freq=0.05,
)


@pytest.mark.parametrize("seed", range(10))
def test_all_features_on_random_instances(seed):
    formula = random_3sat(16, 64, seed=seed)
    expected = reference_is_satisfiable(formula)
    writer = InMemoryTraceWriter()
    result = solve_formula(
        formula, SolverConfig(seed=seed, **EVERYTHING_ON), trace_writer=writer
    )
    assert result.is_sat == expected
    if result.is_sat:
        assert check_model(formula, result.model)
    else:
        trace = writer.to_trace()
        assert DepthFirstChecker(formula, trace).check().verified
        assert BreadthFirstChecker(formula, trace).check().verified
        assert HybridChecker(formula, trace).check().verified


def test_all_features_on_php():
    formula = pigeonhole(6, 5)
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, SolverConfig(**EVERYTHING_ON), trace_writer=writer)
    assert result.is_unsat
    trace = writer.to_trace()
    for checker in (
        DepthFirstChecker(formula, trace),
        BreadthFirstChecker(formula, trace),
        HybridChecker(formula, trace),
    ):
        assert checker.check().verified


def test_deep_chain_proof_no_recursion_limit():
    """A long implication chain produces a deep resolution DAG; the
    depth-first checker must be iterative (Python's default recursion
    limit would kill a naive implementation)."""
    length = 3000
    formula = xor_chain(length, parity=True)
    writer = InMemoryTraceWriter()
    result = solve_formula(formula, trace_writer=writer)
    assert result.is_unsat
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        report = DepthFirstChecker(formula, writer.to_trace()).check()
    finally:
        sys.setrecursionlimit(old_limit)
    assert report.verified
    assert report.resolutions >= length - 2  # the chain really was walked


def test_full_file_pipeline(tmp_path):
    """DIMACS in -> solve (binary trace + DRUP) -> all checkers -> trim ->
    re-check -> stats, everything through real files."""
    formula = pigeonhole(5, 4)
    cnf_path = tmp_path / "instance.cnf"
    write_dimacs_file(formula, cnf_path, comment="integration pipeline")
    loaded = parse_dimacs_file(cnf_path)

    trace_path = tmp_path / "proof.rtb"
    drup_path = tmp_path / "proof.drup"
    result = Solver(
        loaded,
        SolverConfig(),
        trace_writer=BinaryTraceWriter(trace_path),
        drup_writer=TextProofWriter(drup_path),
    ).solve()
    assert result.is_unsat

    trace = load_trace(trace_path)
    assert DepthFirstChecker(loaded, trace).check().verified
    assert BreadthFirstChecker(loaded, trace_path).check().verified
    assert HybridChecker(loaded, trace_path).check().verified
    assert RupChecker(loaded, drup_path).check().verified

    stats = analyze_trace(trace_path)
    assert stats.num_learned == result.stats.learned_clauses

    trimmed = trim_trace(loaded, trace)
    assert BreadthFirstChecker(loaded, trimmed.trace).check().verified


def test_scrambled_instance_cross_formats(tmp_path):
    """Scramble an instance, solve with everything on, check from both
    trace encodings."""
    from repro.cnf.transforms import scramble

    formula = scramble(pigeonhole(5, 4), seed=3)
    ascii_path = tmp_path / "t.trace"
    binary_path = tmp_path / "t.rtb"
    for path, writer_cls in ((ascii_path, AsciiTraceWriter), (binary_path, BinaryTraceWriter)):
        result = solve_formula(
            formula, SolverConfig(**EVERYTHING_ON), trace_writer=writer_cls(path)
        )
        assert result.is_unsat
    assert BreadthFirstChecker(formula, ascii_path).check().verified
    assert BreadthFirstChecker(formula, binary_path).check().verified
