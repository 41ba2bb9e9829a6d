"""DratChecker: RAT acceptance, exhaustive flip rejection, backward prune,
drat-trim deletion semantics, corruption matrix and fault probes.

The flip matrix is the subsystem's acceptance bar: for the generated
fixture family (tools/gen_drat.py) *every* single-literal flip of *every*
add step must be rejected by forward checking, and every core flip by
backward checking — in both encodings.
"""

from __future__ import annotations

import copy

import pytest

from repro import faults
from repro.checker import (
    CheckFailure,
    DratChecker,
    FailureKind,
    RupChecker,
    supervised_check,
)
from repro.cnf import CnfFormula

from tools.gen_drat import corruptions, generate

FORMATS = ("text", "binary")


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def _formula(inst) -> CnfFormula:
    return CnfFormula(inst.num_vars, [list(c) for c in inst.clauses])


def _materialize(inst, tmp_path, fmt, tag=""):
    proof = tmp_path / f"proof{tag}.{fmt}"
    inst.write_proof(proof, fmt)
    return proof


@pytest.fixture(scope="module")
def fixture_instance():
    return generate(core=4, dead=8, rat=2)


# -- acceptance ----------------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_rat_proof_accepted(fixture_instance, tmp_path, fmt):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, fmt)
    report = DratChecker(_formula(inst), proof).check()
    assert report.verified, report.failure
    assert report.method == "drat"
    assert report.proof["rat_lemmas"] == inst.rat_lemmas
    assert report.proof["rat_resolvents"] >= inst.rat_lemmas
    assert report.proof["adds"] == inst.num_adds
    assert report.proof["deletions"] == 1
    assert report.proof["mode"] == "forward"
    assert not report.proof["implicit_empty"]


def test_encodings_produce_identical_reports(fixture_instance, tmp_path):
    """Same proof, either encoding: verdict *and* every counter agree."""
    inst = fixture_instance
    stats = {}
    for fmt in FORMATS:
        report = DratChecker(_formula(inst), _materialize(inst, tmp_path, fmt)).check()
        assert report.verified
        stats[fmt] = (
            report.proof,
            report.clauses_built,
            report.total_learned,
            report.resolutions,
        )
    assert stats["text"] == stats["binary"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_deletions_variant_accepted(tmp_path, fmt):
    inst = generate(core=3, dead=6, rat=1, deletions=True)
    proof = _materialize(inst, tmp_path, fmt)
    report = DratChecker(_formula(inst), proof).check()
    assert report.verified, report.failure
    assert report.proof["deletions"] == inst.dead_lemmas + 1


def test_unknown_deletion_tolerated(tmp_path):
    """drat-trim semantics: deleting a clause never added is a no-op."""
    inst = generate(core=2, dead=0, rat=0)
    inst = copy.deepcopy(inst)
    inst.steps.insert(0, ("delete", [997, 998]))
    proof = _materialize(inst, tmp_path, "text")
    report = DratChecker(_formula(inst), proof).check()
    assert report.verified, report.failure


def test_vacuous_rat_accepted(tmp_path):
    """A lemma whose negated pivot has no occurrences is vacuously RAT."""
    formula = CnfFormula(5, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    proof = tmp_path / "p.drat"
    proof.write_text("5 4 0\n1 0\n0\n")  # -5 occurs nowhere
    report = DratChecker(formula, proof).check()
    assert report.verified, report.failure
    assert report.proof["rat_lemmas"] >= 1


def test_implicit_empty_clause_accepted(tmp_path):
    """No explicit 0-line, but the final database conflicts: accepted."""
    formula = CnfFormula(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    proof = tmp_path / "p.drup"
    proof.write_text("1 0\n2 0\n")
    report = DratChecker(formula, proof).check()
    assert report.verified, report.failure
    assert report.proof["implicit_empty"]


# -- rejection -----------------------------------------------------------------


def test_not_empty_rejected(tmp_path):
    formula = CnfFormula(2, [[1, 2], [-1, 2]])
    proof = tmp_path / "p.drup"
    proof.write_text("2 0\n")
    report = DratChecker(formula, proof).check()
    assert not report.verified
    assert report.failure.kind == FailureKind.NOT_EMPTY


def test_bogus_empty_clause_rejected(tmp_path):
    formula = CnfFormula(2, [[1, 2]])
    proof = tmp_path / "p.drup"
    proof.write_text("0\n")
    report = DratChecker(formula, proof).check()
    assert not report.verified
    assert report.failure.kind == FailureKind.NOT_RAT


def _flip_variants(inst):
    """Yield (label, mutated instance, add_ordinal) for every single-literal
    flip of every non-empty add step."""
    ordinal = -1
    for step_index, (kind, literals) in enumerate(inst.steps):
        if kind != "add" or not literals:
            continue
        ordinal += 1
        for lit_index in range(len(literals)):
            mutated = copy.deepcopy(inst)
            mutated.steps[step_index][1][lit_index] *= -1
            yield f"add#{ordinal}[{lit_index}]", mutated, ordinal


@pytest.mark.parametrize("fmt", FORMATS)
def test_forward_rejects_every_literal_flip(tmp_path, fmt):
    inst = generate(core=3, dead=4, rat=1)
    formula = _formula(inst)
    accepted = []
    for label, mutated, _ in _flip_variants(inst):
        proof = _materialize(mutated, tmp_path, fmt, tag=label)
        report = DratChecker(formula, proof).check()
        if report.verified:
            accepted.append(label)
    assert not accepted, f"forward accepted flipped proofs: {accepted}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_backward_rejects_every_core_flip(tmp_path, fmt):
    """Backward checking skips dead lemmas by design, but a flip inside the
    refutation's core must still be caught."""
    inst = generate(core=3, dead=4, rat=1)
    formula = _formula(inst)
    core = set(inst.core_ordinals)
    accepted = []
    for label, mutated, ordinal in _flip_variants(inst):
        if ordinal not in core:
            continue
        proof = _materialize(mutated, tmp_path, fmt, tag="b" + label)
        report = DratChecker(formula, proof, backward=True).check()
        if report.verified:
            accepted.append(label)
    assert not accepted, f"backward accepted flipped core proofs: {accepted}"


# -- backward checking ---------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_backward_verdict_matches_forward(fixture_instance, tmp_path, fmt):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, fmt)
    formula = _formula(inst)
    forward = DratChecker(formula, proof).check()
    backward = DratChecker(formula, proof, backward=True).check()
    assert forward.verified and backward.verified
    assert backward.proof["mode"] == "backward"


def test_backward_prunes_dead_lemmas(fixture_instance, tmp_path):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    report = DratChecker(_formula(inst), proof, backward=True).check()
    assert report.verified
    prune = report.prune
    assert prune["mode"] == "backward"
    assert prune["total_adds"] == inst.num_adds
    assert prune["verified_adds"] + prune["skipped"] == prune["total_adds"]
    # The fixture's dead + RAT lemmas are all outside the core.
    assert prune["skipped"] >= inst.dead_lemmas
    assert prune["dead_fraction"] >= 0.30


# -- RupChecker on the new parser ----------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_rup_checker_reads_both_encodings(tmp_path, fmt):
    """The migrated RupChecker consumes binary DRUP via the shared parser."""
    inst = generate(core=3, dead=2, rat=0)  # rat=0: pure RUP proof
    proof = _materialize(inst, tmp_path, fmt)
    report = RupChecker(_formula(inst), proof).check()
    assert report.verified, report.failure


@pytest.mark.parametrize("mode", ["forward", "backward", "rup"])
def test_a_rup_only_proof_never_builds_the_occurrence_index(tmp_path, mode):
    """Only the RAT fallback reads the index, so a DRUP proof never pays for it."""
    inst = generate(core=3, dead=2, rat=0, deletions=True)
    proof = _materialize(inst, tmp_path, "binary")
    if mode == "rup":
        checker = RupChecker(_formula(inst), proof)
    else:
        checker = DratChecker(_formula(inst), proof, backward=mode == "backward")
    assert checker.check().verified
    assert checker._engine._occurrences is None


def test_a_rat_lemma_builds_the_occurrence_index(fixture_instance, tmp_path):
    proof = _materialize(fixture_instance, tmp_path, "text")
    checker = DratChecker(_formula(fixture_instance), proof)
    assert checker.check().verified
    assert checker._engine._occurrences is not None


def test_rup_checker_rejects_rat_lemmas(fixture_instance, tmp_path):
    """Genuine RAT steps are beyond RUP — the RUP checker must say so."""
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    report = RupChecker(_formula(inst), proof).check()
    assert not report.verified
    assert report.failure.kind is FailureKind.BAD_RESOLUTION
    assert "not RUP" in report.failure.message
    # gen_drat writes the RAT lemmas first, so proof step 1 is the first.
    assert report.failure.context["step"] == 1
    assert report.failure.context["literals"] == inst.steps[0][1]


# -- corruption matrix ---------------------------------------------------------


@pytest.mark.parametrize("fmt", FORMATS)
def test_corruption_matrix_all_rejected(fixture_instance, tmp_path, fmt):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, fmt)
    formula = _formula(inst)
    survivors = []
    for name, corrupted in corruptions(proof, fmt):
        mangled = tmp_path / f"{name}.{fmt}"
        mangled.write_bytes(corrupted)
        report = DratChecker(formula, mangled).check()
        if report.verified:
            survivors.append(name)
        else:
            assert report.failure.kind in (
                FailureKind.MALFORMED_PROOF,
                FailureKind.NOT_RAT,
                FailureKind.BAD_RESOLUTION,
                FailureKind.NOT_EMPTY,
            ), (name, report.failure.kind)
    assert not survivors, f"corrupted proofs accepted: {survivors}"


# -- fault probes --------------------------------------------------------------


def test_fault_probe_parse_raises_directly(fixture_instance, tmp_path):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    faults.install_plan("point=proofs.parse,kind=raise")
    with pytest.raises(faults.FaultInjected):
        DratChecker(_formula(inst), proof).check()
    # An injected disk-full error is not an unreadable, malformed proof.
    faults.install_plan("point=proofs.parse,kind=enospc")
    with pytest.raises(OSError, match="injected"):
        DratChecker(_formula(inst), proof).check()


@pytest.mark.parametrize("point", ["proofs.check.step", "proofs.check.finalize"])
def test_fault_probe_check_raises_directly(fixture_instance, tmp_path, point):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "binary")
    faults.install_plan(f"point={point},kind=raise")
    with pytest.raises(faults.FaultInjected):
        DratChecker(_formula(inst), proof).check()


def test_supervised_drat_classifies_injected_fault(fixture_instance, tmp_path):
    """Through the supervisor, an injected fault is a WORKER_CRASH verdict,
    not an exception — same contract as the trace checkers."""
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    faults.install_plan("point=proofs.check.step,kind=raise")
    report = supervised_check(_formula(inst), proof, method="drat", timeout=30.0)
    assert not report.verified
    assert report.failure.kind == FailureKind.WORKER_CRASH


def test_supervised_drat_backward(fixture_instance, tmp_path):
    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    report = supervised_check(
        _formula(inst), proof, method="drat", backward=True, timeout=30.0
    )
    assert report.verified, report.failure
    assert report.prune["skipped"] >= inst.dead_lemmas


def test_check_failure_reports_are_serializable(fixture_instance, tmp_path):
    """DRAT reports (incl. proof stats and failures) survive the JSON path."""
    from repro.checker.report import CheckReport

    inst = fixture_instance
    proof = _materialize(inst, tmp_path, "text")
    report = DratChecker(_formula(inst), proof, backward=True).check()
    clone = CheckReport.from_json(report.to_json())
    assert clone.verified == report.verified
    assert clone.proof == report.proof
    assert clone.prune == report.prune
