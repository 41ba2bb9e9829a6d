"""The dispatcher: drain semantics, DONE/FAILED, result persistence."""

import json

import pytest

from repro.service.cache import VerdictCache
from repro.service.client import ServiceClient
from repro.service.jobs import JobState, JobStore
from repro.service.pool import WorkerPool
from repro.service.scheduler import Scheduler


def make_scheduler(tmp_path, num_workers=2, results=False) -> Scheduler:
    store = JobStore(tmp_path / "journal.jsonl")
    client = ServiceClient(cache=VerdictCache(tmp_path / "cache"))
    return Scheduler(
        store,
        client,
        num_workers=num_workers,
        results_dir=(tmp_path / "results") if results else None,
    )


def test_drain_completes_every_job(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    for method in ("df", "bf", "hybrid"):
        scheduler.store.submit(cnf, ascii_path, {"method": method})
    scheduler.drain()
    assert scheduler.store.all_terminal
    for job in scheduler.store.jobs():
        assert job.state is JobState.DONE
        assert job.result["verified"] is True
    assert scheduler.metrics.counter("jobs.done").value == 3
    scheduler.store.close()


def test_refuted_proof_is_done_not_failed(artifacts, second_artifacts, tmp_path):
    """A checker catching a bad proof is the service *working*."""
    _, cnf, _, _ = artifacts
    _, _, wrong_trace = second_artifacts
    scheduler = make_scheduler(tmp_path)
    job = scheduler.store.submit(cnf, wrong_trace, {"method": "bf", "policy": "strict"})
    scheduler.drain()
    assert job.state is JobState.DONE
    assert job.result["verified"] is False
    assert "failure_kind" in job.result
    scheduler.store.close()


def test_missing_artifact_fails_the_job(tmp_path):
    scheduler = make_scheduler(tmp_path)
    job = scheduler.store.submit("/nonexistent.cnf", "/nonexistent.trace", {"method": "bf"})
    scheduler.drain()
    assert job.state is JobState.FAILED
    assert "error" in job.result
    assert scheduler.metrics.counter("jobs.failed").value == 1
    scheduler.store.close()


def test_unknown_job_option_fails_fast(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    job = scheduler.store.submit(cnf, ascii_path, {"method": "bf", "bogus_knob": 1})
    scheduler.drain()
    assert job.state is JobState.FAILED
    assert "bogus_knob" in job.result["error"]
    scheduler.store.close()


@pytest.mark.parametrize(
    "options,message",
    [
        ({"method": "streaming", "memory_window": -5}, "memory_window must be non-negative, got -5"),
        (
            {"method": "df", "policy": "fallback", "count_chunk_size": -1},
            "count_chunk_size must be positive, got -1",
        ),
        ({"method": "bf", "window_records": 0}, "window_records must be positive, got 0"),
    ],
    ids=["memory-window", "count-chunk-size", "window-records"],
)
def test_out_of_range_job_option_fails_before_dispatch(
    artifacts, tmp_path, monkeypatch, options, message
):
    _, cnf, _, binary_path = artifacts
    dispatched: list[str] = []
    submit = WorkerPool.submit

    def spy(self, task):
        dispatched.append(task["job_id"])
        return submit(self, task)

    monkeypatch.setattr(WorkerPool, "submit", spy)
    scheduler = make_scheduler(tmp_path, num_workers=1)
    bad = scheduler.store.submit(cnf, binary_path, options)
    good = scheduler.store.submit(cnf, binary_path, {"method": "bf"})
    scheduler.drain()
    assert bad.state is JobState.FAILED
    assert bad.result["error"] == f"ValueError: {message}"
    assert good.state is JobState.DONE
    assert dispatched == [good.job_id]
    scheduler.store.close()


def test_one_bad_job_does_not_poison_the_batch(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    bad = scheduler.store.submit("/nonexistent.cnf", ascii_path, {"method": "bf"})
    good = scheduler.store.submit(cnf, ascii_path, {"method": "bf"})
    scheduler.drain()
    assert bad.state is JobState.FAILED
    assert good.state is JobState.DONE
    scheduler.store.close()


def test_result_files_are_full_reports(artifacts, tmp_path):
    from repro.checker.report import REPORT_SCHEMA_VERSION

    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path, results=True)
    job = scheduler.store.submit(cnf, ascii_path, {"method": "bf"})
    scheduler.drain()
    path = job.result["result_path"]
    payload = json.loads(open(path).read())
    assert payload["job_id"] == job.job_id
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["report"]["verified"] is True
    assert payload["report"]["schema_version"] == REPORT_SCHEMA_VERSION
    scheduler.store.close()


def test_second_batch_is_served_from_cache(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    scheduler.store.submit(cnf, ascii_path, {"method": "bf"})
    scheduler.drain()
    scheduler.store.submit(cnf, ascii_path, {"method": "bf", "timeout": None})
    scheduler.drain()
    assert scheduler.metrics.counter("jobs.served_from_cache").value == 1
    scheduler.store.close()


def test_multiple_workers_share_one_queue(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path, num_workers=4)
    for timeout in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        scheduler.store.submit(cnf, ascii_path, {"method": "bf", "timeout": timeout})
    scheduler.drain()
    assert scheduler.store.all_terminal
    assert scheduler.metrics.counter("jobs.done").value == 6
    scheduler.store.close()


def test_prune_option_is_accepted_and_reported(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    plain = scheduler.store.submit(cnf, ascii_path, {"method": "bf"})
    pruned = scheduler.store.submit(cnf, ascii_path, {"method": "bf", "prune": True})
    scheduler.drain()
    assert plain.state is JobState.DONE and "pruned" not in plain.result
    assert pruned.state is JobState.DONE
    assert pruned.result["verified"] is True
    assert pruned.result["pruned"] is True
    scheduler.store.close()


def test_scheduler_rejects_zero_workers(tmp_path):
    store = JobStore(tmp_path / "journal.jsonl")
    with pytest.raises(ValueError):
        Scheduler(store, ServiceClient(), num_workers=0)
    store.close()


def test_drain_survives_slow_claim_window(artifacts, tmp_path):
    """Regression: drain() once raced the claim — a job moved PENDING ->
    RUNNING (queue depth 0) before the busy count reflected it, so drain
    could observe "empty queue, nobody busy" and return with the job still
    in flight. The claim and the in-flight increment are now one atomic
    step; widening the claim window must not break drain."""
    import time as _time

    from repro.service.jobs import JobStore as _JobStore

    class SlowClaimStore(_JobStore):
        def claim(self, worker):
            job = super().claim(worker)
            if job is not None:
                _time.sleep(0.25)  # hold the claimed-but-unfinished window open
            return job

    store = SlowClaimStore(tmp_path / "journal.jsonl")
    client = ServiceClient(cache=VerdictCache(tmp_path / "cache"))
    scheduler = Scheduler(store, client, num_workers=2)
    _, cnf, ascii_path, _ = artifacts
    jobs = [store.submit(cnf, ascii_path, {"method": "bf", "timeout": 400 + i})
            for i in range(2)]
    scheduler.drain()
    # drain() returning with any claimed job not yet terminal is the race.
    for job in jobs:
        assert job.state is JobState.DONE, job.state
    assert store.all_terminal
    store.close()


def test_stop_with_unsubmittable_task_does_not_hang(artifacts, tmp_path):
    """Stopping while a claimed job never reached a worker must release it
    for journal-replay requeue instead of wedging stop()."""
    _, cnf, ascii_path, _ = artifacts
    scheduler = make_scheduler(tmp_path)
    scheduler.start()
    scheduler.stop()  # no jobs at all: the trivial case returns immediately
    assert scheduler.store.all_terminal
    scheduler.store.close()
