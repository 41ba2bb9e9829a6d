"""The event-driven dispatcher: jobs out of the store, verdicts back in.

The execution layer is a persistent pre-forked process pool
(:mod:`repro.service.pool`); this module is the control plane around it.
One dispatcher thread claims PENDING jobs the moment a condition-variable
wakeup says there is work *and* an idle worker — no idle polling, no GIL
contention on the checks themselves. The dispatcher also owns everything
content-addressed: it fingerprints each job, serves verdict-cache hits
without ever waking a worker, and (via the pool's collector) persists
fresh verdicts through the batched cache writer.

The claim itself is journaled, so a crash mid-check leaves a requeueable
RUNNING entry, and the in-flight count is incremented *inside* the claim
critical section — ``drain()`` can therefore never observe "queue empty,
nobody busy" while a claimed job has not reached a terminal state (the
PR 5 thread scheduler had exactly that race).

Terminal-state semantics: **DONE means the service produced a verdict**,
including "this proof is bad" — a checker finding a bug is the service
working, not failing. FAILED is reserved for jobs the service could not
execute at all: missing artifacts, unparseable formulas, unknown
options, a worker crashing past its retry budget.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro import faults
from repro.checker.report import REPORT_SCHEMA_VERSION, CheckReport
from repro.checker.supervisor import check_option_values

from repro.service.client import ServiceClient
from repro.service.jobs import Job, fsync_dir
from repro.service.pool import WorkerPool

FP_CLAIM = faults.register_fault_point(
    "scheduler.claim",
    doc="right after a PENDING job is claimed, before it is dispatched",
)
FP_FINALIZE = faults.register_fault_point(
    "scheduler.finalize",
    doc="right before a computed verdict is journaled terminal (key = job id)",
)

#: Job options a journal entry may carry; anything else fails the job
#: rather than TypeError-ing inside a worker. Mirrors SupervisorConfig
#: minus the service-managed fields (fingerprints, checkpoints).
ALLOWED_JOB_OPTIONS = frozenset(
    {
        "method",
        "policy",
        "timeout",
        "memory_limit",
        "use_kernel",
        "precheck",
        "count_chunk_size",
        "prune",
        "memory_window",
        "window_records",
        "backward",
        "proof_format",
    }
)

#: Fallback wakeup period for the dispatcher/drain condition waits. Purely
#: a safety net against a lost notification — every state change notifies
#: the condition, so the service does not *rely* on this tick.
_FALLBACK_WAIT_S = 0.5


class Scheduler:
    """Owns the worker pool and the dispatcher thread that feed it."""

    def __init__(
        self,
        store,
        client: ServiceClient,
        num_workers: int = 2,
        results_dir: str | Path | None = None,
        max_task_retries: int = 1,
        task_timeout: float | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.store = store
        self.client = client
        self.metrics = client.metrics
        self.num_workers = num_workers
        self.max_task_retries = max_task_retries
        self.task_timeout = task_timeout
        self.results_dir = Path(results_dir) if results_dir is not None else None
        if self.results_dir is not None:
            self.results_dir.mkdir(parents=True, exist_ok=True)
        self._cond = threading.Condition()
        self._inflight: dict[str, tuple[Job, dict | None, float]] = {}
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self.pool: WorkerPool | None = None
        if hasattr(store, "add_listener"):
            store.add_listener(self.notify)

    # -- wakeups -------------------------------------------------------------

    def notify(self) -> None:
        """Wake the dispatcher (new job, freed worker, external nudge)."""
        with self._cond:
            self._cond.notify_all()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("scheduler already started")
        self._stop.clear()
        # Fork the pool before the dispatcher thread exists (fork safety).
        self.pool = WorkerPool(
            self.num_workers,
            self._handle_result,
            metrics=self.metrics,
            max_task_retries=self.max_task_retries,
            task_timeout=self.task_timeout,
        )
        self.pool.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="check-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Stop dispatching, let in-flight work finish, shut the pool down."""
        if self._dispatcher is None:
            return
        self._stop.set()
        self.notify()
        self._dispatcher.join()
        with self._cond:
            while self._inflight:
                self._cond.wait(timeout=_FALLBACK_WAIT_S)
        self._dispatcher = None
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.stop()
        self.client.flush_cache()

    def drain(self) -> None:
        """Process until the queue is empty and every claimed job is terminal."""
        own_workers = self._dispatcher is None
        if own_workers:
            self.start()
        try:
            with self._cond:
                while self.store.queue_depth > 0 or self._inflight:
                    self._cond.wait(timeout=_FALLBACK_WAIT_S)
        finally:
            if own_workers:
                self.stop()
            else:
                self.client.flush_cache()

    # -- dispatch ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            job = None
            with self._cond:
                if self.pool is not None and self.pool.has_idle():
                    # The claim and the in-flight accounting are one atomic
                    # step under the condition lock: drain() checks both
                    # under the same lock, so a claimed-but-uncounted job
                    # can never exist.
                    job = self.store.claim("dispatcher")
                    if job is not None:
                        self._inflight[job.job_id] = (job, None, time.perf_counter())
                if job is None:
                    self._cond.wait(timeout=_FALLBACK_WAIT_S)
            if job is not None:
                try:
                    faults.fault_point(FP_CLAIM, key=job.job_id)
                except faults.FaultInjected:
                    # In-process crash drill between claim and dispatch: the
                    # job goes back to PENDING, the dispatcher survives.
                    self.metrics.inc("scheduler.injected_faults")
                    self.store.requeue(job.job_id)
                    self._release(job)
                    continue
                self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        self.metrics.set_gauge("queue.depth", self.store.queue_depth)
        started = time.perf_counter()
        try:
            options = self._validate_options(job.options)
            fingerprint = self.client.fingerprint(job.formula, job.trace, options)
        except Exception as exc:  # noqa: BLE001 - bad jobs fail, never wedge
            self._finalize_failure(job, f"{type(exc).__name__}: {exc}")
            return
        with self._cond:
            self._inflight[job.job_id] = (job, fingerprint, started)
        cached = self.client.cache_lookup(fingerprint)
        if cached is not None:
            try:
                self._finalize_success(job, cached, started)
            except Exception as exc:  # noqa: BLE001 - the dispatcher survives
                self._finalize_failure(job, f"{type(exc).__name__}: {exc}")
            return
        task = {
            "job_id": job.job_id,
            "formula": job.formula,
            "trace": job.trace,
            "options": options,
            "fingerprint": fingerprint,
        }
        assert self.pool is not None
        # The dispatcher only claims against an idle worker, so a refused
        # submit is a worker dying in the claim window; the pool's crash
        # handling owns retries once submitted, but an unsubmittable task
        # simply waits for the next idle slot.
        try:
            submitted = self.pool.submit(task)
            while not submitted and not self._stop.is_set():
                with self._cond:
                    self._cond.wait(timeout=_FALLBACK_WAIT_S)
                submitted = self.pool.submit(task)
        except (faults.FaultInjected, OSError):
            # An injected dispatch fault: the claim goes back to PENDING
            # and the dispatcher thread lives on.
            self.metrics.inc("scheduler.injected_faults")
            self.store.requeue(job.job_id)
            self._release(job)
            return
        if not submitted:
            # Shutting down with the task never handed to a worker: drop it
            # from in-flight so stop() can finish; the journal replay will
            # requeue the still-RUNNING job on the next open.
            self._release(job)

    # -- results -------------------------------------------------------------

    def _handle_result(self, result: dict) -> None:
        """Pool collector callback: one finished (or failed) task."""
        job_id = result.get("job_id", "")
        with self._cond:
            entry = self._inflight.get(job_id)
        if entry is None:
            self.metrics.inc("scheduler.orphan_results")
            return
        job, fingerprint, started = entry
        for stat, count in (result.get("stats") or {}).items():
            self.metrics.inc(f"pool.{stat}", count)
        try:
            if not result.get("ok"):
                if result.get("crashed"):
                    self.metrics.inc("jobs.worker_crash_failures")
                    self._finalize_crash(job, result.get("error", "worker crashed"))
                else:
                    self._finalize_failure(
                        job, result.get("error", "unknown worker error")
                    )
                return
            report = CheckReport.from_json(result["report"])
            self.client.account(report)
            if fingerprint is not None:
                self.client.cache_store(fingerprint, report)
            self._finalize_success(job, report, started)
        except Exception as exc:  # noqa: BLE001 - the collector must survive
            self._finalize_failure(job, f"{type(exc).__name__}: {exc}")

    def _finalize_success(self, job: Job, report: CheckReport, started: float) -> None:
        faults.fault_point(FP_FINALIZE, key=job.job_id)
        summary = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "verified": report.verified,
            "method": report.method,
            "from_cache": report.from_cache,
            "check_time_s": round(report.check_time, 6),
        }
        if report.failure is not None:
            summary["failure_kind"] = report.failure.kind.value
        if report.prune is not None:
            summary["pruned"] = True
        result_path = self._write_result(job, report)
        if result_path is not None:
            summary["result_path"] = result_path
        self.store.finish(job, summary)
        self.metrics.inc("jobs.done")
        if report.from_cache:
            self.metrics.inc("jobs.served_from_cache")
        self.metrics.observe("job.latency_s", time.perf_counter() - started)
        if report.memory:
            # Resident-memory high-water marks (constant-memory claims are
            # observable at the service level, not just in reports).
            peak_clauses = report.memory.get("peak_unique_clauses")
            if peak_clauses is not None:
                self.metrics.observe("check.peak_resident_clauses", peak_clauses)
            peak_units = report.memory.get("peak_resident_units")
            if peak_units is not None:
                self.metrics.observe("check.peak_resident_units", peak_units)
            spills = report.memory.get("spilled_clauses")
            if spills:
                self.metrics.inc("check.spilled_clauses", spills)
        self._release(job)

    def _finalize_failure(self, job: Job, error: str) -> None:
        try:
            self.store.fail(job, {"error": error})
        except ValueError:
            # The job already reached a terminal state — a fault fired
            # partway through finalization. The first verdict stands.
            self.metrics.inc("scheduler.duplicate_finalizes")
        self.metrics.inc("jobs.failed")
        self._release(job)

    def _finalize_crash(self, job: Job, error: str) -> None:
        """A worker crash or task timeout ate this attempt: requeue while
        the job has attempt budget left, otherwise quarantine it — a job
        that reliably kills its worker must not crash-loop the pool."""
        budget = getattr(self.store, "max_job_attempts", 1)
        if job.attempts < budget:
            self.metrics.inc("jobs.crash_requeues")
            self.store.requeue(job.job_id)
        else:
            self.store.park(job, {"error": error})
            self.metrics.inc("jobs.parked")
        self._release(job)

    def _release(self, job: Job) -> None:
        self.metrics.set_gauge("queue.depth", self.store.queue_depth)
        with self._cond:
            self._inflight.pop(job.job_id, None)
            self._cond.notify_all()

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _validate_options(options: dict) -> dict:
        unknown = sorted(set(options) - ALLOWED_JOB_OPTIONS)
        if unknown:
            raise ValueError(f"unknown job option(s): {', '.join(unknown)}")
        check_option_values(options)
        return options

    def _write_result(self, job: Job, report: CheckReport) -> str | None:
        """Persist the full report JSON next to the journal, atomically."""
        if self.results_dir is None:
            return None
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "job_id": job.job_id,
            "formula": job.formula,
            "trace": job.trace,
            "options": job.options,
            "report": report.to_json(),
        }
        path = self.results_dir / f"{job.job_id}.json"
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(self.results_dir)
        return str(path)
