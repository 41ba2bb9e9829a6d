"""The resilient checking supervisor: budgets, the degradation ladder
and BF checkpoint/resume.

The fault matrix lives here: a forced DF memory-out, a timeout on every
rung and a crashed attempt must all end in a structured report — never
an escaped exception — and degrade (or not) per policy.
"""

import os
import pickle

import pytest

from repro import faults
from repro.checker import (
    BreadthFirstChecker,
    CheckFailure,
    CheckPolicy,
    CheckSupervisor,
    CheckTimeout,
    CheckpointError,
    Deadline,
    DepthFirstChecker,
    FailureKind,
    MemoryLimitExceeded,
    load_checkpoint,
    supervised_check,
)
from repro.checker.resolution import ResolutionError
from repro.solver import Solver, SolverConfig
from repro.trace import AsciiTraceWriter, InMemoryTraceWriter

from tests.conftest import pigeonhole


@pytest.fixture(scope="module")
def proof(tmp_path_factory):
    """One UNSAT pigeonhole instance with its trace on disk."""
    formula = pigeonhole(6, 5)
    path = tmp_path_factory.mktemp("supervisor") / "php.trace"
    writer = AsciiTraceWriter(path)
    assert Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    writer.close()
    return formula, str(path)


# -- deadlines ----------------------------------------------------------------


def test_deadline_none_never_expires():
    deadline = Deadline(None)
    assert not deadline.expired()
    assert deadline.remaining() is None
    deadline.check()  # no-op


def test_deadline_zero_trips_immediately():
    deadline = Deadline(0.0)
    assert deadline.expired()
    with pytest.raises(CheckTimeout) as excinfo:
        deadline.check()
    assert excinfo.value.kind is FailureKind.TIMEOUT
    assert excinfo.value.context["timeout_s"] == 0.0


def test_deadline_rejects_negative_timeout():
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_every_checker_honours_a_zero_deadline(proof):
    formula, path = proof
    from repro.checker import HybridChecker, StreamingWindowChecker
    from repro.trace import load_trace

    checkers = [
        DepthFirstChecker(formula, load_trace(path), deadline=Deadline(0.0)),
        BreadthFirstChecker(formula, path, deadline=Deadline(0.0)),
        HybridChecker(formula, path, deadline=Deadline(0.0)),
        StreamingWindowChecker(formula, path, deadline=Deadline(0.0)),
    ]
    for checker in checkers:
        report = checker.check()
        assert not report.verified, checker
        assert report.failure.kind is FailureKind.TIMEOUT, checker


# -- the degradation ladder ---------------------------------------------------


def test_fallback_recovers_from_df_memory_out(proof):
    """The acceptance scenario: a DF memory-out completes via fallback."""
    formula, path = proof
    from repro.trace import load_trace

    df_peak = DepthFirstChecker(formula, load_trace(path)).check().peak_memory_units
    bf_peak = BreadthFirstChecker(formula, path).check().peak_memory_units
    assert bf_peak < df_peak  # the trade-off the ladder exists for
    limit = (bf_peak + df_peak) // 2

    supervisor = CheckSupervisor(
        formula, path, method="df", policy="fallback", memory_limit=limit
    )
    report = supervisor.check()
    assert report.verified
    assert report.degradation is not None and len(report.degradation) >= 2
    first = report.degradation[0]
    assert first["method"] == "depth-first"
    assert first["outcome"] == "memory-out"
    assert report.degradation[-1]["outcome"] == "verified"
    assert "ladder" in report.summary()


def test_strict_policy_runs_exactly_one_attempt(proof):
    formula, path = proof
    report = supervised_check(
        formula, path, method="df", policy="strict", memory_limit=1
    )
    assert not report.verified
    assert report.failure.kind is FailureKind.MEMORY_OUT
    assert len(report.degradation) == 1


def test_fallback_walks_the_whole_ladder_on_timeout(proof):
    formula, path = proof
    report = supervised_check(formula, path, method="df", policy="fallback", timeout=0.0)
    assert not report.verified
    assert report.failure.kind is FailureKind.TIMEOUT
    assert [a["method"] for a in report.degradation] == [
        "depth-first",
        "hybrid",
        "breadth-first",
    ]
    assert all(a["outcome"] == "timeout" for a in report.degradation)


def test_proof_bugs_do_not_degrade(proof, tmp_path):
    """A bad resolution is a verdict, not a resource failure: one attempt."""
    formula, _ = proof
    path = tmp_path / "bad.trace"
    path.write_text("T 1 2\nR UNSAT\n")  # structurally broken
    report = supervised_check(formula, str(path), method="df", policy="fallback")
    assert not report.verified
    assert report.failure.kind not in (FailureKind.TIMEOUT, FailureKind.MEMORY_OUT)
    assert len(report.degradation) == 1


def test_policy_parse_and_config_validation(proof):
    formula, path = proof
    assert CheckPolicy.parse("strict").ladder("df") == ("df",)
    assert CheckPolicy.parse("fallback").ladder("df") == ("df", "hybrid", "bf")
    with pytest.raises(ValueError):
        CheckPolicy.parse("yolo")
    with pytest.raises(ValueError):
        CheckPolicy("fallback").ladder("quantum")
    with pytest.raises(TypeError):
        CheckSupervisor(formula, path, not_an_option=1)


def test_supervisor_accepts_in_memory_traces():
    formula = pigeonhole(5, 4)
    writer = InMemoryTraceWriter()
    assert Solver(formula, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    report = supervised_check(formula, writer.to_trace(), method="df")
    assert report.verified


# -- crashed attempts -----------------------------------------------------------


def test_crashed_attempt_degrades_to_the_next_rung(proof):
    """An attempt that blows up is a worker crash, and the ladder moves on."""
    formula, path = proof
    faults.install_plan("point=supervisor.attempt,kind=raise,key=df")
    try:
        report = supervised_check(formula, path, method="df", policy="fallback")
    finally:
        faults.reset()
    assert report.verified
    assert [(a["method"], a["outcome"]) for a in report.degradation] == [
        ("df", "worker-crash"),
        ("hybrid", "verified"),
    ]


# -- checkpoint / resume ------------------------------------------------------


def test_bf_checkpoint_and_resume_round_trip(proof, tmp_path):
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    full = BreadthFirstChecker(
        formula, path, checkpoint_path=str(ckpt), checkpoint_every=25
    ).check()
    assert full.verified and ckpt.exists()

    snapshot = load_checkpoint(str(ckpt))
    assert snapshot.records_consumed > 0

    resumed = BreadthFirstChecker(formula, path, resume_from=str(ckpt))
    report = resumed.check()
    assert report.verified
    assert resumed.resumed and resumed.resume_error is None
    # Counters are cumulative across the interrupted + resumed halves.
    assert report.clauses_built == full.clauses_built
    assert report.peak_memory_units == full.peak_memory_units


def test_interrupted_check_resumes_past_the_interruption(proof, tmp_path):
    """Timeout mid-stream, then resume from the snapshot and finish."""
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    interrupted = BreadthFirstChecker(
        formula,
        path,
        checkpoint_path=str(ckpt),
        checkpoint_every=10,
        deadline=Deadline(0.0),
    ).check()
    assert not interrupted.verified
    assert interrupted.failure.kind is FailureKind.TIMEOUT

    if ckpt.exists():  # a zero deadline may trip before the first snapshot
        resumed = BreadthFirstChecker(formula, path, resume_from=str(ckpt))
        assert resumed.check().verified


def test_mismatched_checkpoint_falls_back_to_a_full_run(proof, tmp_path):
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    assert BreadthFirstChecker(
        formula, path, checkpoint_path=str(ckpt), checkpoint_every=25
    ).check().verified

    other = pigeonhole(5, 4)
    writer = AsciiTraceWriter(tmp_path / "other.trace")
    assert Solver(other, SolverConfig(seed=0), trace_writer=writer).solve().is_unsat
    writer.close()

    checker = BreadthFirstChecker(
        other, str(tmp_path / "other.trace"), resume_from=str(ckpt)
    )
    report = checker.check()  # wrong trace for this snapshot: never fatal
    assert report.verified
    assert not checker.resumed and checker.resume_error is not None


def test_corrupt_checkpoint_is_a_checkpoint_error(tmp_path):
    garbage = tmp_path / "bad.ckpt"
    garbage.write_bytes(b"not a pickle")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(garbage))


def test_same_shape_different_content_never_cross_resumes(proof, tmp_path):
    """The strengthened fingerprint (content hash, not just shape): a trace
    with identical record counts but different bytes must not resume from
    the other's checkpoint."""
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    assert BreadthFirstChecker(
        formula, path, checkpoint_path=str(ckpt), checkpoint_every=25
    ).check().verified

    # Same parsed records — ASCII readers skip comments — so the shape
    # triple (num_original, total_learned, binary_fast) is identical; only
    # the content hash can tell the two apart.
    twin = tmp_path / "twin.trace"
    twin.write_text(open(path).read() + "# same shape, different bytes\n")

    checker = BreadthFirstChecker(formula, str(twin), resume_from=str(ckpt))
    report = checker.check()
    assert report.verified  # falls back to a full run, never fatal
    assert not checker.resumed
    assert "fingerprint" in checker.resume_error


def test_old_format_checkpoint_is_mismatch_not_crash(proof, tmp_path):
    """A version-1 (shape-only fingerprint) checkpoint from an older build
    is rejected by the version gate and treated as a mismatch."""
    from repro.checker.breadth_first import BfCheckpoint, write_checkpoint

    formula, path = proof
    legacy = BfCheckpoint(
        version=1,
        fingerprint=(formula.num_clauses, 120, False),  # the old 3-tuple
        records_consumed=10,
        last_cid=formula.num_clauses + 10,
        resident={},
        remaining={},
        level_zero=[],
        final_conflicts=[],
        status="",
        clauses_built=10,
        resolutions=50,
        meter_current=0,
        meter_peak=0,
    )
    ckpt = tmp_path / "legacy.ckpt"
    write_checkpoint(legacy, ckpt)

    with pytest.raises(CheckpointError, match="version 1 unsupported"):
        load_checkpoint(str(ckpt))

    checker = BreadthFirstChecker(formula, path, resume_from=str(ckpt))
    assert checker.check().verified  # full run, never fatal
    assert not checker.resumed and "version 1" in checker.resume_error


# -- checkpoint/resume x kernel engine x the ladder (satellite coverage) ------


def test_kernel_checkpoint_resume_round_trip(proof, tmp_path):
    """Resume has only been tested on the reference engine; the kernel
    engine must checkpoint and resume to the same counters."""
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    full = BreadthFirstChecker(
        formula, path, use_kernel=True,
        checkpoint_path=str(ckpt), checkpoint_every=25,
    ).check()
    assert full.verified and ckpt.exists()

    resumed = BreadthFirstChecker(formula, path, use_kernel=True, resume_from=str(ckpt))
    report = resumed.check()
    assert report.verified and resumed.resumed
    assert report.clauses_built == full.clauses_built
    assert report.peak_memory_units == full.peak_memory_units


def test_checkpoints_cross_engines(proof, tmp_path):
    """Snapshots store plain literal tuples, so a checkpoint written under
    one engine resumes under the other."""
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    assert BreadthFirstChecker(
        formula, path, use_kernel=True,
        checkpoint_path=str(ckpt), checkpoint_every=25,
    ).check().verified

    resumed = BreadthFirstChecker(formula, path, use_kernel=False, resume_from=str(ckpt))
    assert resumed.check().verified and resumed.resumed


def test_kernel_timeout_checkpoint_resumes_under_supervisor(proof, tmp_path):
    """Interrupt a kernel-engine BF check mid-stream, then finish it via
    ``supervised_check(..., resume_from=...)`` with the kernel engine."""
    formula, path = proof
    ckpt = tmp_path / "bf.ckpt"
    interrupted = supervised_check(
        formula, path, method="bf", policy="strict", use_kernel=True,
        timeout=0.0, checkpoint_path=str(ckpt), checkpoint_every=10,
    )
    assert not interrupted.verified
    assert interrupted.failure.kind is FailureKind.TIMEOUT

    if ckpt.exists():  # a zero deadline may trip before the first snapshot
        report = supervised_check(
            formula, path, method="bf", policy="strict",
            use_kernel=True, resume_from=str(ckpt),
        )
        assert report.verified


def test_ladder_fallback_writes_and_resumes_kernel_checkpoints(proof, tmp_path):
    """The combined scenario: DF memory-outs, the fallback ladder lands on
    BF with the kernel engine, and that BF rung both honours ``resume_from``
    and writes fresh checkpoints."""
    from repro.checker import HybridChecker

    formula, path = proof
    hybrid_peak = HybridChecker(formula, path).check().peak_memory_units
    bf_peak = BreadthFirstChecker(formula, path).check().peak_memory_units
    assert bf_peak < hybrid_peak  # a budget only the last rung fits in
    limit = (bf_peak + hybrid_peak) // 2

    # First pass: seed a checkpoint from a plain kernel BF run.
    seed_ckpt = tmp_path / "seed.ckpt"
    assert BreadthFirstChecker(
        formula, path, use_kernel=True,
        checkpoint_path=str(seed_ckpt), checkpoint_every=25,
    ).check().verified

    fresh_ckpt = tmp_path / "fresh.ckpt"
    report = supervised_check(
        formula, path, method="df", policy="fallback", use_kernel=True,
        memory_limit=limit, resume_from=str(seed_ckpt),
        # Small interval: the resumed tail still spans several snapshots.
        checkpoint_path=str(fresh_ckpt), checkpoint_every=5,
    )
    assert report.verified
    ladder = [attempt["method"] for attempt in report.degradation]
    assert ladder[0] == "depth-first"
    assert report.degradation[0]["outcome"] == "memory-out"
    assert ladder[-1] == "breadth-first"
    assert all(a["outcome"] == "memory-out" for a in report.degradation[:-1])
    assert fresh_ckpt.exists()  # the BF rung checkpointed its own pass

    # The checkpoint the ladder's BF rung wrote is itself resumable.
    resumed = BreadthFirstChecker(
        formula, path, use_kernel=True, resume_from=str(fresh_ckpt)
    )
    assert resumed.check().verified and resumed.resumed


def test_checkpoint_every_requires_a_path(proof):
    formula, path = proof
    with pytest.raises(ValueError):
        BreadthFirstChecker(formula, path, checkpoint_every=10)


# -- failure pickling (satellite bugfix) --------------------------------------


@pytest.mark.parametrize(
    "failure",
    [
        MemoryLimitExceeded(10, 5),
        CheckTimeout(2.5, 1.0),
        ResolutionError("no complementary pair", cid=42),
        CheckFailure(FailureKind.WORKER_CRASH, "boom", windows=[1, 2]),
    ],
    ids=lambda f: type(f).__name__,
)
def test_check_failures_survive_pickling(failure):
    clone = pickle.loads(pickle.dumps(failure))
    assert type(clone) is type(failure)
    assert clone.kind is failure.kind
    assert clone.message == failure.message
    assert clone.context == failure.context
    assert str(clone) == str(failure)


# -- CLI ----------------------------------------------------------------------


def _cnf_file(formula, tmp_path):
    path = tmp_path / "f.cnf"
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines += [" ".join(map(str, clause.literals)) + " 0" for clause in formula]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_fallback_prints_the_ladder(proof, tmp_path, capsys):
    from repro.cli import check_main

    formula, trace = proof
    cnf = _cnf_file(formula, tmp_path)
    rc = check_main([cnf, trace, "--method", "df", "--policy", "fallback",
                     "--timeout", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "c attempt 1: depth-first -> timeout" in out
    assert "c attempt 3: breadth-first -> timeout" in out


def test_cli_checkpoint_then_resume(proof, tmp_path, capsys):
    from repro.cli import check_main

    formula, trace = proof
    cnf = _cnf_file(formula, tmp_path)
    ckpt = str(tmp_path / "cli.ckpt")
    assert check_main([cnf, trace, "--method", "bf", "--checkpoint", ckpt,
                       "--checkpoint-every", "50"]) == 0
    assert os.path.exists(ckpt)
    assert check_main([cnf, trace, "--resume", ckpt]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_cli_flag_validation(proof, tmp_path, capsys):
    """Bad flag combinations and out-of-range numbers are usage errors
    (exit 2) raised before any check runs."""
    from repro.cli import check_main

    formula, trace = proof
    cnf = _cnf_file(formula, tmp_path)
    ckpt = str(tmp_path / "cli.ckpt")
    cases = [
        (["--checkpoint-every", "5"], "--checkpoint-every needs --checkpoint"),
        (["--method", "bf", "--timeout", "-1"], "--timeout must be at least 0"),
        (["--mem-limit", "-3"], "--mem-limit must be at least 0"),
        (["--stream", "--memory-window", "-5"], "--memory-window must be at least 0"),
        (["--stream", "--window-records", "0"], "--window-records must be at least 1"),
        (
            ["--method", "bf", "--checkpoint", ckpt, "--checkpoint-every", "-1"],
            "--checkpoint-every must be at least 1",
        ),
    ]
    for tail, message in cases:
        with pytest.raises(SystemExit) as excinfo:
            check_main([cnf, trace, *tail])
        assert excinfo.value.code == 2, tail
        assert message in capsys.readouterr().err, tail
    assert not os.path.exists(ckpt)
