"""Chaos drills: every fault point fired, the service recovers exactly-once.

Each drill arms ``REPRO_FAULT_PLAN`` around one registered fault point,
runs the real service as a subprocess (``repro serve --once``), asserts
the fault genuinely fired (the plan's ``mark=`` file), and then asserts
the recovery invariants: every submitted job reaches DONE with exactly
one DONE record in the journal — no lost jobs, no duplicated verdicts —
and poison jobs land in the dead-letter queue instead of crash-looping.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.service.cache import VerdictCache
from repro.service.client import ServiceClient
from repro.service.daemon import (
    CheckDaemon,
    read_dead_letters,
    read_health,
    request_requeue,
    spool_layout,
    submit_job,
)
from repro.service.jobs import JobState, JobStore

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def clean_plane(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _submit(spool, cnf, trace, count=2, options=None):
    for i in range(count):
        merged = {"method": "bf", "timeout": 500 + i}
        merged.update(options or {})
        submit_job(spool, cnf, trace, merged)


def _serve(spool, *flags, plan=None, timeout=180):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.PLAN_ENV, None)
    if plan is not None:
        env[faults.PLAN_ENV] = plan
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", str(spool),
         "--once", "--workers", "1", *flags],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _repro(*args, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.PLAN_ENV, None)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _journal_lines(spool):
    journal = Path(spool) / "journal.jsonl"
    lines = []
    for raw in journal.read_text(encoding="utf-8").splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            continue
    return lines


def _assert_exactly_once(spool, expect_done):
    """Every job DONE and verified, with exactly one DONE journal record."""
    with JobStore(Path(spool) / "journal.jsonl", readonly=True) as store:
        jobs = store.jobs()
        assert len(jobs) == expect_done, [j.job_id for j in jobs]
        keys = [j.dedup_key for j in jobs]
        assert len(set(keys)) == len(keys), "duplicated jobs"
        for job in jobs:
            assert job.state is JobState.DONE, (job.job_id, job.state, job.result)
            assert job.result["verified"] is True
    done_records = [
        line["job_id"] for line in _journal_lines(spool)
        if line.get("event") == "state" and line.get("state") == "DONE"
    ]
    assert len(done_records) == len(set(done_records)) == expect_done


# -- the drill: one scenario per fault point × failure mode --------------------

#: (plan-entry sans mark, daemon dies?, job options). ``kill`` inside the
#: daemon process must leave a recoverable spool; ``kill`` inside a worker
#: and every in-process kind must be absorbed within a single run.
DRILLS = [
    pytest.param("point=jobs.journal.append,kind=kill,key=state", True, None,
                 id="journal-append-kill"),
    pytest.param("point=jobs.journal.append,kind=torn,key=state", True, None,
                 id="journal-append-torn"),
    pytest.param("point=daemon.spool.ingest,kind=kill", True, None,
                 id="spool-ingest-kill"),
    pytest.param("point=scheduler.claim,kind=kill", True, None,
                 id="scheduler-claim-kill"),
    pytest.param("point=scheduler.claim,kind=raise", False, None,
                 id="scheduler-claim-raise"),
    pytest.param("point=scheduler.finalize,kind=kill", True, None,
                 id="scheduler-finalize-kill"),
    pytest.param("point=pool.task.dispatch,kind=raise", False, None,
                 id="pool-dispatch-raise"),
    pytest.param("point=pool.result.collect,kind=raise", False, None,
                 id="pool-collect-raise"),
    pytest.param("point=cache.segment.write,kind=torn", True, None,
                 id="cache-segment-torn"),
    pytest.param("point=cache.segment.rename,kind=kill", True, None,
                 id="cache-rename-kill"),
    pytest.param("point=cache.segment.rename,kind=enospc", False, None,
                 id="cache-rename-enospc"),
    pytest.param("point=supervisor.attempt,kind=raise", False,
                 {"method": "df", "policy": "fallback"},
                 id="supervisor-attempt-raise"),
]


@pytest.mark.parametrize("plan,dies,options", DRILLS)
def test_fault_drill_recovers_exactly_once(artifacts, tmp_path, plan, dies, options):
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    mark = tmp_path / "fault-fired"
    _submit(spool, cnf, trace, count=2, options=options)

    first = _serve(spool, plan=f"{plan},mark={mark}")
    assert mark.exists(), f"fault never fired: {first.stdout}\n{first.stderr}"
    if dies:
        assert first.returncode != 0
        recovery = _serve(spool)
        assert recovery.returncode == 0, recovery.stderr
    else:
        assert first.returncode == 0, f"{first.stdout}\n{first.stderr}"
    _assert_exactly_once(spool, expect_done=2)


def test_worker_kill_is_absorbed_within_one_run(artifacts, tmp_path):
    """A SIGKILLed worker (token-gated, so the replacement survives) is
    replaced and the run still completes every job."""
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    token = tmp_path / "token"
    token.write_text("armed\n")
    mark = tmp_path / "fired"
    _submit(spool, cnf, trace, count=2)
    run = _serve(
        spool,
        plan=f"point=pool.task.start,kind=kill,repeat=1,token={token},mark={mark}",
    )
    assert run.returncode == 0, run.stderr
    assert mark.exists() and not token.exists()
    _assert_exactly_once(spool, expect_done=2)


def test_kill_during_journal_replay_recovers(artifacts, tmp_path):
    """Dying at startup replay loses nothing: the journal is read-only
    until replay finishes, so the next open sees the same records."""
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    _submit(spool, cnf, trace, count=1)
    assert _serve(spool).returncode == 0  # builds a journal worth replaying

    _submit(spool, cnf, trace, count=1, options={"timeout": 999})
    mark = tmp_path / "fired"
    crashed = _serve(spool, plan=f"point=jobs.journal.replay,kind=kill,mark={mark}")
    assert crashed.returncode != 0 and mark.exists()
    assert _serve(spool).returncode == 0
    _assert_exactly_once(spool, expect_done=2)


def test_poison_job_is_quarantined_then_requeued_by_operator(artifacts, tmp_path):
    """Crash every attempt → dead-letter; `repro status --dead` explains;
    `repro requeue` grants a fresh budget and the job completes."""
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    mark = tmp_path / "fired"
    _submit(spool, cnf, trace, count=1)

    run = _serve(spool, "--max-job-attempts", "2",
                 plan=f"point=pool.task.start,kind=kill,repeat=1,mark={mark}")
    assert run.returncode == 0, run.stderr  # quarantine is not a crash
    assert mark.exists()
    dead = read_dead_letters(spool)
    assert len(dead) == 1
    entry = dead[0]
    assert entry["attempts"] >= 2
    assert len(entry["attempt_history"]) >= 2
    assert Path(entry["dead_letter_path"]).is_file()

    status = _repro("status", spool, "--dead")
    assert status.returncode == 0
    assert entry["job_id"] in status.stdout

    requeue = _repro("requeue", spool, entry["job_id"])
    assert requeue.returncode == 0, requeue.stderr
    assert "requeued" in requeue.stdout

    assert _serve(spool).returncode == 0  # no plan: the fresh budget wins
    _assert_exactly_once(spool, expect_done=1)
    assert read_dead_letters(spool) == []


def test_requeue_of_unknown_job_fails_cleanly(tmp_path):
    spool = tmp_path / "spool"
    spool_layout(spool).ensure()
    result = _repro("requeue", spool, "job-999999")
    assert result.returncode == 1
    assert "no requeueable job" in result.stderr


def test_sigterm_under_load_is_graceful(artifacts, tmp_path):
    """SIGTERM mid-queue: in-flight checks finish, pending cache entries
    flush, the heartbeat is withdrawn, and no RUNNING orphan survives."""
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    wakeup_mark = tmp_path / "wakeup-fired"
    _submit(spool, cnf, trace, count=5)
    env = dict(os.environ, PYTHONPATH=SRC)
    env[faults.PLAN_ENV] = f"point=daemon.wakeup,kind=slow,arg=0.001,mark={wakeup_mark}"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(spool), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        layout = spool_layout(spool)
        deadline = time.monotonic() + 60
        # Wait until it is demonstrably serving (heartbeat up), then load
        # it some more (the submit ping exercises the wakeup socket).
        while not list(layout.heartbeats()) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert list(layout.heartbeats()), "daemon never wrote a heartbeat"
        submit_job(spool, cnf, trace, {"method": "bf", "timeout": 777})
        submit_job(spool, cnf, trace, {"method": "bf", "timeout": 778})
        # The submit pings the wakeup socket; the armed slow-fault marks
        # the daemon.wakeup point when the daemon handles the ping.
        while not wakeup_mark.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert wakeup_mark.exists(), "wakeup ping never reached the daemon"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert list(spool_layout(spool).heartbeats()) == []  # withdrawn
    with JobStore(spool / "journal.jsonl", readonly=True) as store:
        states = {job.job_id: job.state for job in store.jobs()}
        assert JobState.RUNNING not in states.values(), states
        done = [j for j in store.jobs() if j.state is JobState.DONE]
    if done:
        # Whatever finished before the SIGTERM must have flushed verdicts.
        cache_files = (list((spool / "cache").glob("seg-*.jsonl"))
                       + list((spool / "cache").glob("*.json")))
        assert cache_files, "graceful stop lost the verdict-cache buffer"
    assert _serve(spool).returncode == 0
    _assert_exactly_once(spool, expect_done=7)


# -- health / heartbeat --------------------------------------------------------


def _write_heartbeat(layout, name, pid, age_s, interval=1.0):
    payload = {
        "daemon_id": name, "pid": pid, "shards": [0], "num_shards": 1,
        "interval_s": interval, "started_at": time.time() - 100,
        "written_at": time.time() - age_s, "counts": {},
    }
    (layout.health / f"{name}.json").write_text(
        json.dumps(payload), encoding="utf-8"
    )


def test_read_health_classifies_daemons(tmp_path):
    spool = tmp_path / "spool"
    layout = spool_layout(spool).ensure()
    reaped = subprocess.Popen([sys.executable, "-c", "pass"])
    reaped.wait()
    _write_heartbeat(layout, "daemon-alive", os.getpid(), age_s=0.0)
    _write_heartbeat(layout, "daemon-stale", os.getpid(), age_s=300.0)
    _write_heartbeat(layout, "daemon-dead", reaped.pid, age_s=0.0)
    (layout.health / "daemon-junk.json").write_text("not json", encoding="utf-8")

    health = read_health(spool)
    by_id = {d["daemon_id"]: d["status"] for d in health["daemons"]}
    assert by_id["daemon-alive"] == "alive"
    assert by_id["daemon-stale"] == "stale"
    assert by_id["daemon-dead"] == "dead"
    assert health["alive"] == 1 and health["stale"] == 1 and health["dead"] == 2

    status = _repro("status", spool, "--health")
    assert status.returncode == 0
    assert "1 alive, 1 stale, 2 dead" in status.stdout


def test_heartbeat_write_fault_is_never_fatal(tmp_path):
    daemon = CheckDaemon(tmp_path / "spool", num_workers=1)
    try:
        faults.install_plan("point=daemon.heartbeat.write,kind=raise")
        assert daemon.write_heartbeat(force=True) is False
        assert daemon.metrics.counter("daemon.heartbeat_errors").value == 1
        faults.reset()
        assert daemon.write_heartbeat(force=True) is True
        assert daemon.heartbeat_path.is_file()
        health = read_health(tmp_path / "spool")
        assert health["alive"] == 1
        daemon.clear_heartbeat()
        assert not daemon.heartbeat_path.exists()
    finally:
        daemon.store.close()


def test_stale_daemon_litter_is_reaped(tmp_path):
    """Heartbeat files (and wakeup sockets) of dead pids are cleaned up."""
    spool = tmp_path / "spool"
    layout = spool_layout(spool).ensure()
    ghost = subprocess.Popen([sys.executable, "-c", "pass"])
    ghost.wait()
    _write_heartbeat(layout, "daemon-ghost", ghost.pid, age_s=5.0)
    (layout.root / f"control-{ghost.pid}.sock").write_text("", encoding="utf-8")
    daemon = CheckDaemon(spool, num_workers=1)
    try:
        assert daemon.reap_stale_daemons() == 1
        assert not (layout.health / "daemon-ghost.json").exists()
        assert not (layout.root / f"control-{ghost.pid}.sock").exists()
    finally:
        daemon.store.close()


def test_requeue_control_file_applied_by_owning_daemon(artifacts, tmp_path):
    """`repro requeue` with a live daemon: the request travels as a spool
    control file and the journal keeps its single writer."""
    _, cnf, trace, _ = artifacts
    spool = tmp_path / "spool"
    submit_job(spool, cnf, trace, {"method": "bf"})
    daemon = CheckDaemon(spool, num_workers=1)
    try:
        daemon.ingest()
        (job,) = daemon.store.jobs()
        daemon.store.claim("w")
        daemon.store.park(job, {"error": "poison"})
        assert job.state is JobState.DEAD
        request_requeue(spool, job.job_id)
        daemon.ingest()
        assert job.state is JobState.PENDING
        assert daemon.metrics.counter("jobs.requeued_by_operator").value == 1
    finally:
        daemon.store.close()


# -- durability audits ---------------------------------------------------------


def test_journal_replay_applies_duplicate_terminals_last_writer_wins(tmp_path):
    journal = tmp_path / "journal.jsonl"
    records = [
        {"event": "submit", "t": 1.0,
         "job": {"job_id": "job-000001", "formula": "/f", "trace": "/t",
                 "options": {}, "submitted_at": 1.0}},
        {"event": "state", "job_id": "job-000001", "state": "RUNNING",
         "worker": "w1", "t": 2.0},
        {"event": "state", "job_id": "job-000001", "state": "DONE",
         "result": {"verified": True, "generation": 1}, "t": 3.0},
        {"event": "state", "job_id": "job-000001", "state": "DONE",
         "result": {"verified": True, "generation": 2}, "t": 4.0},
        {"event": "state", "job_id": "job-000001", "state": "RUNNING",
         "worker": "w2", "t": 5.0},          # stale claim after the verdict
        {"event": "requeue", "job_id": "job-000001", "t": 6.0},  # stale requeue
    ]
    journal.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    with JobStore(journal, readonly=True) as store:
        job = store.get("job-000001")
        assert job.state is JobState.DONE
        assert job.result["generation"] == 2   # last writer won
        assert job.attempts == 1               # the stale RUNNING was ignored


def test_torn_journal_tail_is_isolated_on_reopen(tmp_path):
    """Appending after a torn tail must not glue records together."""
    journal = tmp_path / "journal.jsonl"
    with JobStore(journal) as store:
        store.submit("/f", "/t", {})
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"event":"state","job_id":"job-000001","sta')  # no newline
    with JobStore(journal) as store:
        assert store.torn_lines == 1
        second = store.submit("/f2", "/t2", {})
    with JobStore(journal, readonly=True) as store:
        assert store.torn_lines == 1  # still one isolated tear, not two
        assert store.get(second.job_id) is not None
        assert len(store.jobs()) == 2


def test_dead_letter_write_fault_does_not_block_quarantine(tmp_path):
    """The journal owns the DEAD state; the dead-letter file is best-effort."""
    store = JobStore(tmp_path / "journal.jsonl", dead_letter_dir=tmp_path / "dead")
    job = store.submit("/f", "/t", {})
    store.claim("w")
    faults.install_plan("point=jobs.dead_letter.write,kind=enospc")
    store.park(job, {"error": "poison"})
    assert job.state is JobState.DEAD
    assert not (tmp_path / "dead" / f"{job.job_id}.json").exists()
    with JobStore(tmp_path / "journal.jsonl", readonly=True) as replay:
        assert replay.get(job.job_id).state is JobState.DEAD
    store.close()


def test_torn_cache_segment_recovers_intact_entries(artifacts, tmp_path):
    """A crashed segment writer's torn tail is counted and skipped; every
    fully-written verdict in the segment still hits."""
    formula, cnf, trace, _ = artifacts
    cache = VerdictCache(tmp_path / "cache", batch_size=8)
    client = ServiceClient(cache=cache)
    report = client.check(cnf, trace, method="bf")
    assert report.verified
    # check() fingerprints the *parsed* formula; mirror that for the lookup.
    fingerprint = client.fingerprint(formula, trace, {"method": "bf"})
    cache.flush()
    (segment,) = (tmp_path / "cache").glob("seg-*.jsonl")

    with open(segment, "a", encoding="utf-8") as handle:
        handle.write('{"key": "deadbeef", "schema_')  # the torn tail

    recovered = VerdictCache(tmp_path / "cache", batch_size=8)
    assert recovered.torn_lines == 1
    hit = recovered.get(fingerprint)
    assert hit is not None and hit.verified and hit.from_cache


def test_cache_flush_fault_keeps_entries_buffered(artifacts, tmp_path):
    """An ENOSPC mid-flush loses nothing in-process: the buffer is restored
    and the next (healthy) flush lands every verdict."""
    formula, cnf, trace, _ = artifacts
    cache = VerdictCache(tmp_path / "cache", batch_size=64)
    client = ServiceClient(cache=cache)
    report = client.check(cnf, trace, method="bf")
    assert report.verified
    faults.install_plan("point=cache.segment.rename,kind=enospc")
    client.flush_cache()  # swallowed, counted
    assert cache.metrics.counter("cache.flush_failures").value == 1
    assert cache.metrics.counter("cache.store_errors").value == 1
    assert not list((tmp_path / "cache").glob("seg-*.jsonl"))
    faults.reset()
    cache.flush()
    fingerprint = client.fingerprint(formula, trace, {"method": "bf"})
    fresh = VerdictCache(tmp_path / "cache")
    assert fresh.get(fingerprint) is not None


def test_orphaned_cache_tmp_files_are_swept(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "seg-001.jsonl.tmp").write_text("{", encoding="utf-8")
    cache = VerdictCache(tmp_path / "cache")
    assert not list((tmp_path / "cache").glob("*.tmp"))
    assert cache.metrics.counter("cache.tmp_sweeps").value == 1


def test_checkpoint_write_fault_leaves_no_partial_file(tmp_path):
    from repro.checker.breadth_first import (
        _CHECKPOINT_VERSION, BfCheckpoint, load_checkpoint, write_checkpoint,
    )

    checkpoint = BfCheckpoint(
        version=_CHECKPOINT_VERSION, fingerprint=(0, 0, False, "x"), records_consumed=0,
        last_cid=0, resident={}, remaining={}, level_zero=[],
        final_conflicts=[], status="", clauses_built=0, resolutions=0,
        meter_current=0, meter_peak=0,
    )
    path = tmp_path / "check.ckpt"
    faults.install_plan("point=checkpoint.write,kind=enospc")
    with pytest.raises(OSError):
        write_checkpoint(checkpoint, path)
    assert not path.exists() and not Path(f"{path}.tmp").exists()
    faults.reset()
    write_checkpoint(checkpoint, path)
    assert load_checkpoint(path).fingerprint == (0, 0, False, "x")
