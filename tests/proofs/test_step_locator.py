"""One failure locator for every clausal checker.

A failed lemma's ``step`` is its 1-based position in the proof, counting
add and delete steps alike: forward and backward DRAT checking and the
RUP checker all point at the same step of the same proof, in either
encoding. ``docs/proof_formats.md`` states the rule.
"""

from __future__ import annotations

import pytest

from repro.checker import FailureKind, RupChecker
from repro.cnf import CnfFormula
from repro.proofs import DratChecker, open_proof_writer

FORMULA = CnfFormula(2, [[1, 2], [-2]])


def _write(path, fmt: str, steps) -> None:
    writer = open_proof_writer(path, fmt)
    for kind, literals in steps:
        if kind == "delete":
            writer.delete_clause(literals)
        elif literals:
            writer.add_clause(literals)
        else:
            writer.finish_unsat()
    writer.close()


@pytest.mark.parametrize("fmt", ("text", "binary"))
def test_non_rat_lemma_after_deletions_has_one_step_in_every_mode(tmp_path, fmt):
    # Two unknown deletions, then (-1): neither RUP nor RAT on -1, since
    # the resolvent with (1 2) is (2), which propagation cannot refute.
    proof = tmp_path / "p.drat"
    _write(proof, fmt, [("delete", [9]), ("delete", [8]), ("add", [-1]), ("add", [])])
    reports = {
        "forward": DratChecker(FORMULA, proof).check(),
        "backward": DratChecker(FORMULA, proof, backward=True).check(),
        "rup": RupChecker(FORMULA, proof).check(),
    }
    kinds = {mode: report.failure.kind for mode, report in reports.items()}
    assert kinds == {
        "forward": FailureKind.NOT_RAT,
        "backward": FailureKind.NOT_RAT,
        "rup": FailureKind.BAD_RESOLUTION,
    }
    steps = {mode: report.failure.context["step"] for mode, report in reports.items()}
    assert steps == {"forward": 3, "backward": 3, "rup": 3}


def test_failing_empty_clause_is_located_in_both_drat_modes(tmp_path):
    proof = tmp_path / "p.drat"
    proof.write_text("d 2 0\n0\n")
    forward = DratChecker(FORMULA, proof).check()
    backward = DratChecker(FORMULA, proof, backward=True).check()
    assert forward.failure.context["step"] == backward.failure.context["step"] == 2
