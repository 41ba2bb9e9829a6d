"""The pre-forked pool: crash replacement, warm caches, sharded scale-out."""

import json
import subprocess
import sys
import time

import pytest

from repro.checker.supervisor import CheckSupervisor
from repro.faults import PLAN_ENV
from repro.service.cache import VerdictCache
from repro.service.client import ServiceClient
from repro.service.daemon import read_queue_status, spool_layout, submit_job
from repro.service.jobs import JobState, JobStore, ShardedJobStore, shard_of
from repro.service.pool import WorkerPool, _execute_task, _WarmCache
from repro.service.scheduler import Scheduler


def make_scheduler(tmp_path, num_workers=2) -> Scheduler:
    store = JobStore(tmp_path / "journal.jsonl")
    client = ServiceClient(cache=VerdictCache(tmp_path / "cache"))
    return Scheduler(store, client, num_workers=num_workers)


def arm_one_worker_kill(monkeypatch, tmp_path):
    """The first worker to start a task wins the token and SIGKILLs itself."""
    token = tmp_path / "fault"
    token.write_text("die once\n")
    # Workers inherit the env; the token makes it one kill across all of them.
    monkeypatch.setenv(
        PLAN_ENV, f"point=pool.task.start,kind=kill,token={token},repeat=1"
    )
    return token


# -- basic pool mechanics ------------------------------------------------------


def test_pool_runs_tasks_and_reports_results(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    results = []
    pool = WorkerPool(2, results.append)
    pool.start()
    try:
        assert pool.idle_workers == 2
        assert pool.submit({"job_id": "j1", "formula": cnf, "trace": ascii_path,
                            "options": {"method": "bf"}})
        deadline = time.monotonic() + 60
        while not results and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        pool.stop()
    assert results and results[0]["ok"]
    assert results[0]["report"]["verified"] is True


def test_pool_submit_backpressure(artifacts, tmp_path):
    """A full pool refuses tasks instead of queueing them invisibly."""
    _, cnf, ascii_path, _ = artifacts
    results = []
    pool = WorkerPool(1, results.append)
    pool.start()
    try:
        task = {"job_id": "j1", "formula": cnf, "trace": ascii_path,
                "options": {"method": "bf"}}
        assert pool.submit(task)
        assert not pool.has_idle()
        assert not pool.submit(dict(task, job_id="j2"))
    finally:
        pool.stop()


def test_worker_sigkill_mid_job_is_retried_on_replacement(artifacts, tmp_path, monkeypatch):
    """A SIGKILLed worker is replaced and its in-flight job still completes."""
    _, cnf, ascii_path, _ = artifacts
    fault = arm_one_worker_kill(monkeypatch, tmp_path)

    scheduler = make_scheduler(tmp_path, num_workers=2)
    jobs = [
        scheduler.store.submit(cnf, ascii_path, {"method": "bf", "timeout": 100 + i})
        for i in range(3)
    ]
    scheduler.drain()
    assert not fault.exists()  # exactly one worker took the bullet
    assert scheduler.store.all_terminal
    for job in jobs:
        assert job.state is JobState.DONE, job.result
        assert job.result["verified"] is True
    assert scheduler.metrics.counter("pool.worker_crashes").value >= 1
    assert scheduler.metrics.counter("pool.workers_replaced").value >= 1
    assert scheduler.metrics.counter("pool.task_retries").value >= 1
    scheduler.store.close()


def test_crash_past_attempt_budget_quarantines_the_job(artifacts, tmp_path, monkeypatch):
    """A crash with no budget left dead-letters the job — not a hang, not a
    crash loop — and an operator requeue gives it a fresh budget."""
    _, cnf, ascii_path, _ = artifacts
    fault = arm_one_worker_kill(monkeypatch, tmp_path)
    store = JobStore(tmp_path / "journal.jsonl", max_job_attempts=1,
                     dead_letter_dir=tmp_path / "dead")
    client = ServiceClient(cache=VerdictCache(tmp_path / "cache"))
    scheduler = Scheduler(store, client, num_workers=1, max_task_retries=0)
    job = store.submit(cnf, ascii_path, {"method": "bf"})
    scheduler.drain()
    assert job.state is JobState.DEAD
    assert "crash" in job.result["error"]
    assert scheduler.metrics.counter("jobs.worker_crash_failures").value == 1
    assert scheduler.metrics.counter("jobs.parked").value == 1
    assert [j.job_id for j in store.dead_jobs()] == [job.job_id]
    assert (tmp_path / "dead" / f"{job.job_id}.json").is_file()
    # Operator requeue: budget resets, the (consumed) fault stays quiet,
    # and the job completes on its fresh attempt.
    assert store.requeue(job.job_id) is job
    assert job.state is JobState.PENDING and job.attempts == 0
    assert not (tmp_path / "dead" / f"{job.job_id}.json").exists()
    scheduler.drain()
    assert job.state is JobState.DONE and job.result["verified"] is True
    store.close()


# -- warm caches ---------------------------------------------------------------


def test_worker_exits_when_its_daemon_died_before_it_started():
    """A daemon killed between the fork and the worker's first line leaves
    the worker reparented from the start. It must still exit instead of
    holding the dead daemon's stdio open (the chaos drills' 180 s hangs)."""
    import multiprocessing
    import os

    from repro.service.pool import PARENT_POLL_S, _worker_main

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    # The daemon PID the pool recorded before the fork; the worker's real
    # parent (this process) differs, as after the daemon's death.
    not_my_parent = os.getpid() + 1_000_000
    worker = ctx.Process(
        target=_worker_main,
        args=("pool-worker-test", child_conn, (4, 4), not_my_parent),
        daemon=True,
    )
    worker.start()
    try:
        worker.join(timeout=PARENT_POLL_S * 10)
        assert not worker.is_alive(), "orphaned worker kept running"
    finally:
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=5)
        parent_conn.close()
        child_conn.close()


def test_warm_formula_cache_reused_across_jobs(artifacts, tmp_path):
    """N jobs on one formula parse the DIMACS once per worker, visibly."""
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path, num_workers=1)
    for i in range(4):  # distinct timeouts -> distinct cache keys, no dedup
        scheduler.store.submit(cnf, ascii_path, {"method": "bf", "timeout": 200 + i})
    scheduler.drain()
    assert scheduler.store.all_terminal
    assert all(j.result["verified"] for j in scheduler.store.jobs())
    counters = scheduler.metrics
    assert counters.counter("pool.formula_misses").value == 1
    assert counters.counter("pool.formula_hits").value == 3
    assert counters.counter("pool.trace_hits").value == 3
    scheduler.store.close()


# -- sharded scale-out ---------------------------------------------------------


def test_two_instances_drain_disjoint_shards(artifacts, tmp_path):
    """Two `serve --once` processes owning one shard each drain one spool:
    every job runs exactly once, in exactly one instance's journal."""
    _, cnf, ascii_path, _ = artifacts
    spool = tmp_path / "spool"
    submitted = 6
    for i in range(submitted):
        submit_job(spool, cnf, ascii_path, {"method": "bf", "timeout": 300 + i})

    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(spool),
             "--once", "--workers", "1", "--shards", "2", "--own", str(own)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for own in (0, 1)
    ]
    for proc in procs:
        assert proc.wait(timeout=300) == 0

    status = read_queue_status(spool)
    assert status["shards"] == 2
    assert status["counts"]["DONE"] == submitted
    assert status["queue_depth"] == 0 and status["incoming"] == 0

    # Exactly-once: every journal entry ran once, and the two shards
    # partition the dedup keys with no overlap.
    store = ShardedJobStore(spool, num_shards=2, readonly=True)
    seen_keys: dict[str, str] = {}
    for job in store.jobs():
        assert job.state is JobState.DONE
        assert job.attempts == 1
        assert job.dedup_key not in seen_keys
        seen_keys[job.dedup_key] = job.job_id
        assert job.job_id.startswith(("job-s0-", "job-s1-"))
        assert shard_of(job.dedup_key, 2) == int(job.job_id.split("-")[1][1:])
    assert len(seen_keys) == submitted


def test_sharded_store_routes_and_rejects_unowned(tmp_path):
    store = ShardedJobStore(tmp_path, num_shards=4, owned=[1, 3])
    owned_key = f"{1:016x}" + "0" * 48  # routes to shard 1
    unowned_key = f"{2:016x}" + "0" * 48  # routes to shard 2
    assert shard_of(owned_key, 4) == 1 and shard_of(unowned_key, 4) == 2
    job = store.submit("/a.cnf", "/a.trace", {}, dedup_key=owned_key)
    assert store.get(job.job_id) is job
    with pytest.raises(ValueError, match="does not own"):
        store.submit("/a.cnf", "/a.trace", {}, dedup_key=unowned_key)
    store.close()


def test_sharded_store_replays_both_journals(tmp_path):
    with ShardedJobStore(tmp_path, num_shards=2) as store:
        keys = [f"{i:016x}" + "0" * 48 for i in range(8)]
        for key in keys:
            store.submit("/a.cnf", "/a.trace", {"i": key}, dedup_key=key)
        claimed = store.claim("w")
        store.finish(claimed, {"verified": True})
    reopened = ShardedJobStore(tmp_path, num_shards=2)
    assert len(reopened.jobs()) == 8
    counts = reopened.counts()
    assert counts["DONE"] == 1 and counts["PENDING"] == 7
    # Serial counters resume per shard: no ID collision on new submits.
    extra = reopened.submit("/b.cnf", "/b.trace", {}, dedup_key="f" * 64)
    assert extra.job_id not in {j.job_id for j in reopened.jobs() if j is not extra}
    reopened.close()


def test_single_shard_store_keeps_classic_journal(tmp_path):
    with ShardedJobStore(tmp_path, num_shards=1) as store:
        job = store.submit("/a.cnf", "/a.trace", {})
        assert job.job_id == "job-000001"  # no shard prefix
    assert (tmp_path / "journal.jsonl").is_file()
    events = [json.loads(line) for line in
              (tmp_path / "journal.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "submit"


# -- which jobs get the trace file -----------------------------------------------


def _streaming_threshold_zero(monkeypatch):
    """Every trace *file* counts as past the streaming threshold (64 MiB by
    default); a decoded trace never does."""
    eligible = CheckSupervisor._streaming_eligible

    def past_threshold(self):
        self.config.streaming_threshold_bytes = 0
        return eligible(self)

    monkeypatch.setattr(CheckSupervisor, "_streaming_eligible", past_threshold)


def _run_task(cnf, trace, options) -> dict:
    result = _execute_task(
        {"job_id": "j", "formula": cnf, "trace": trace, "options": options}, _WarmCache()
    )
    assert result["ok"], result
    return result


def test_streaming_jobs_check_the_trace_file(artifacts):
    """The constant-memory checker maps the file; the worker loads nothing."""
    _, cnf, _, binary_path = artifacts
    result = _run_task(cnf, binary_path, {"method": "streaming", "memory_window": 64})
    assert result["report"]["verified"] is True
    assert result["report"]["memory"]["spilled_clauses"] > 0
    assert "trace_misses" not in result["stats"]


def test_fallback_jobs_past_the_threshold_reach_the_streaming_rung(artifacts, monkeypatch):
    _, cnf, _, binary_path = artifacts
    _streaming_threshold_zero(monkeypatch)
    result = _run_task(cnf, binary_path, {"method": "bf", "memory_limit": 60})
    report = result["report"]
    assert [attempt["method"] for attempt in report["degradation"]] == [
        "breadth-first", "streaming"
    ]
    assert report["degradation"][0]["outcome"] == "memory-out"
    assert report["verified"] is True
    assert "trace_misses" not in result["stats"]
    # A strict job never reaches the streaming rung: the warm cache serves it.
    strict = _run_task(cnf, binary_path, {"method": "bf", "policy": "strict"})
    assert strict["report"]["verified"] is True
    assert strict["stats"]["trace_misses"] == 1
