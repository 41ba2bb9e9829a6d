"""Unit tests for the RUP machinery: propagation engine, DRUP parsing, checker."""

import pytest

from repro.cnf import CnfFormula
from repro.checker import RupChecker
from repro.checker.errors import CheckFailure
from repro.checker.unitprop import UnitPropagator
from repro.proofs import TextProofWriter, iter_proof_steps


class TestUnitPropagator:
    def test_direct_conflict_in_assumptions(self):
        engine = UnitPropagator(2)
        assert engine.propagate([1, -1])

    def test_chain_propagation_to_conflict(self):
        engine = UnitPropagator(3)
        engine.add_clause([-1, 2])
        engine.add_clause([-2, 3])
        engine.add_clause([-3])
        assert engine.propagate([1])

    def test_no_conflict(self):
        engine = UnitPropagator(3)
        engine.add_clause([-1, 2])
        assert not engine.propagate([1])

    def test_db_unit_clauses_fire(self):
        engine = UnitPropagator(2)
        engine.add_clause([1])
        engine.add_clause([-1, 2])
        engine.add_clause([-2])
        assert engine.propagate([])

    def test_empty_clause_is_immediate_conflict(self):
        engine = UnitPropagator(1)
        engine.add_clause([])
        assert engine.propagate([])

    def test_removed_clause_ignored(self):
        engine = UnitPropagator(2)
        index = engine.add_clause([-1])
        assert engine.propagate([1])
        engine.remove_clause(index)
        assert not engine.propagate([1])
        engine.remove_clause(index)  # double removal is a no-op

    def test_duplicate_literals_deduped(self):
        engine = UnitPropagator(2)
        index = engine.add_clause([1, 1, 2])
        assert engine.clauses[index] == [1, 2]

    def test_grow(self):
        engine = UnitPropagator(2)
        engine.add_clause([5])
        assert engine.num_vars == 5


class TestDrupFormat:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = tmp_path / "p.drup"
        with TextProofWriter(path) as writer:
            writer.add_clause([1, -2])
            writer.delete_clause([1, -2])
            writer.finish_unsat()
        steps = list(iter_proof_steps(path))
        assert steps == [("add", [1, -2]), ("delete", [1, -2]), ("add", [])]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("c comment\n1 2 0\n")
        assert list(iter_proof_steps(path)) == [("add", [1, 2])]

    def test_missing_terminator_rejected(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("1 2\n")
        with pytest.raises(CheckFailure):
            list(iter_proof_steps(path))

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("1 x 0\n")
        with pytest.raises(CheckFailure):
            list(iter_proof_steps(path))


class TestRupChecker:
    def test_handwritten_valid_proof(self, tmp_path):
        # PHP(2,1): (x1)(x2)(-x1 -x2). Proof: the empty clause is RUP.
        formula = CnfFormula(2, [[1], [2], [-1, -2]])
        proof = tmp_path / "p.drup"
        proof.write_text("0\n")
        assert RupChecker(formula, proof).check().verified

    def test_non_rup_clause_rejected(self, tmp_path):
        formula = CnfFormula(2, [[1, 2]])
        proof = tmp_path / "p.drup"
        proof.write_text("1 0\n0\n")  # (x1) is not implied by (x1|x2)
        report = RupChecker(formula, proof).check()
        assert not report.verified
        assert "not RUP" in str(report.failure)

    def test_proof_without_empty_clause_rejected(self, tmp_path):
        formula = CnfFormula(2, [[1], [-1, 2]])
        proof = tmp_path / "p.drup"
        proof.write_text("2 0\n")
        report = RupChecker(formula, proof).check()
        assert not report.verified
        assert report.failure.kind.value == "not-empty"

    def test_deletions_respected(self, tmp_path):
        # Deleting the clause that made step 2 RUP must break the proof.
        formula = CnfFormula(2, [[1], [-1, 2], [-2]])
        proof = tmp_path / "p.drup"
        proof.write_text("d 1 0\nd -1 2 0\nd -2 0\n0\n")
        report = RupChecker(formula, proof).check()
        assert not report.verified

    def test_deleting_unknown_clause_tolerated(self, tmp_path):
        formula = CnfFormula(2, [[1], [-1]])
        proof = tmp_path / "p.drup"
        proof.write_text("d 5 6 0\n0\n")
        assert RupChecker(formula, proof).check().verified

    def test_rup_needs_the_explicit_empty_clause_that_drat_can_skip(self, tmp_path):
        from repro.proofs import DratChecker

        formula = CnfFormula(2, [[1], [-1]])
        proof = tmp_path / "p.drup"
        proof.write_text("d 5 6 0\n")
        report = RupChecker(formula, proof).check()
        assert report.failure.kind.value == "not-empty"
        assert str(report.failure).startswith(
            "[not-empty] DRUP proof ended without deriving the empty clause"
        )
        drat = DratChecker(formula, proof).check()
        assert drat.verified and drat.proof["implicit_empty"]

    def test_verified_report_counts_lemmas_without_the_empty_clause(self, tmp_path):
        # (x1)(x2)(-x1 v -x2 v x3)(-x3): lemma (-x1 v -x2) then the empty clause.
        formula = CnfFormula(3, [[1], [2], [-1, -2, 3], [-3]])
        proof = tmp_path / "p.drup"
        proof.write_text("-1 -2 0\nd -3 0\n-1 0\n0\n")
        report = RupChecker(formula, proof).check()
        assert report.verified, report.failure
        assert report.method == "rup"
        assert report.proof["format"] == "drup"
        assert report.clauses_built == report.total_learned == 2
