"""Checking-as-a-service: queueing, caching and metrics above the checkers.

The paper's workflow is batch-shaped — a solver emits a trace, an
independent checker replays it. This package is the layer that turns
those one-shot checks into a long-lived service, per the ROADMAP's
"serve heavy traffic" north star:

* :mod:`repro.service.fingerprint` — streaming SHA-256 content
  addressing of (formula, trace, options); the identity everything else
  keys on.
* :mod:`repro.service.cache` — :class:`VerdictCache`, the persistent
  content-addressed store of ``CheckReport`` verdicts: re-checking an
  already-validated trace is a hash plus a file read.
* :mod:`repro.service.jobs` — :class:`JobStore`, the durable queue: a
  JSONL journal with PENDING → RUNNING → DONE/FAILED transitions and
  crash-safe replay.
* :mod:`repro.service.pool` — :class:`WorkerPool`, the pre-forked
  process execution layer: long-lived workers with warm formula/trace/
  clause-store caches, crash replacement and bounded task retry.
* :mod:`repro.service.scheduler` — :class:`Scheduler`, the event-driven
  dispatcher feeding the pool and serving cache hits itself.
* :mod:`repro.service.client` — :class:`ServiceClient`, the library
  front door for embedders (the experiments harness runs through it).
* :mod:`repro.service.daemon` — :class:`CheckDaemon` and the spool
  directory protocol behind ``repro serve`` / ``submit`` / ``status`` /
  ``results``.
* :mod:`repro.service.metrics` — :class:`MetricsRegistry`: counters,
  gauges and bucketed histograms, snapshotted to
  ``SERVICE_metrics.json``.
"""

from repro.service.cache import VerdictCache
from repro.service.client import RetryPolicy, ServiceClient, call_with_retries
from repro.service.daemon import (
    CheckDaemon,
    SpoolLayout,
    iter_results,
    offline_requeue,
    read_dead_letters,
    read_health,
    read_queue_status,
    request_requeue,
    spool_layout,
    submit_job,
)
from repro.service.fingerprint import (
    fingerprint_check,
    fingerprint_formula,
    fingerprint_options,
    fingerprint_trace,
    job_key,
)
from repro.service.jobs import (
    Job,
    JobState,
    JobStore,
    ShardedJobStore,
    discover_shard_journals,
    shard_of,
)
from repro.service.metrics import MetricsRegistry, load_snapshot, render_snapshot
from repro.service.pool import WorkerPool
from repro.service.scheduler import Scheduler

__all__ = [
    "VerdictCache",
    "ServiceClient",
    "RetryPolicy",
    "call_with_retries",
    "CheckDaemon",
    "SpoolLayout",
    "spool_layout",
    "submit_job",
    "read_queue_status",
    "read_health",
    "read_dead_letters",
    "request_requeue",
    "offline_requeue",
    "iter_results",
    "fingerprint_check",
    "fingerprint_formula",
    "fingerprint_options",
    "fingerprint_trace",
    "job_key",
    "Job",
    "JobState",
    "JobStore",
    "ShardedJobStore",
    "shard_of",
    "discover_shard_journals",
    "MetricsRegistry",
    "load_snapshot",
    "render_snapshot",
    "WorkerPool",
    "Scheduler",
]
