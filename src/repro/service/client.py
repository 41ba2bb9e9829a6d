"""The library front door: cache-aware checking for embedders.

``ServiceClient.check`` is :func:`repro.checker.supervised_check` with a
memory: fingerprint the inputs, consult the verdict cache, replay
resolution only on a miss, and persist the fresh verdict for next time.
The experiments harness routes through this, so re-running an ablation
suite re-checks nothing that already has a verdict.

What gets cached: verified reports, and failures that are *verdicts
about the proof* (a bad resolution is a bad resolution forever). Resource
failures — timeout, memory-out, worker-crash — depend on the machine and
the budgets of the moment, not on the content, so they are never cached;
DEGRADABLE_KINDS (the supervisor's own notion of "resource problem, not
proof problem") is exactly that set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.checker.report import CheckReport
from repro.checker.supervisor import DEGRADABLE_KINDS, supervised_check
from repro.cnf import CnfFormula, parse_dimacs_file
from repro.trace.records import Trace

from repro.service.cache import VerdictCache
from repro.service.fingerprint import fingerprint_check
from repro.service.metrics import MetricsRegistry


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient service operations.

    Delay before retry ``n`` (0-based) is ``base_delay_s * 2**n`` capped at
    ``max_delay_s``, stretched by up to ``jitter`` (a fraction) of random
    spread so a thundering herd of clients decorrelates. ``seed`` pins the
    jitter for deterministic tests; production leaves it ``None``.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.2
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delays(self):
        """The sleep before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
            yield delay * (1.0 + self.jitter * rng.random())


#: What a submission retry treats as transient. Everything else (a missing
#: artifact, a malformed option) is deterministic and retrying it is noise.
TRANSIENT_ERRORS = (OSError,)


def call_with_retries(
    operation,
    policy: RetryPolicy | None = None,
    retry_on: tuple = TRANSIENT_ERRORS,
    give_up_on: tuple = (),
    metrics: MetricsRegistry | None = None,
    sleep=time.sleep,
):
    """Run ``operation()`` under ``policy``; re-raise after the last attempt.

    ``give_up_on`` carves deterministic failures out of ``retry_on`` (e.g.
    ``FileNotFoundError`` out of ``OSError``) — those re-raise immediately.
    Only use this around operations that are idempotent or content-keyed —
    the service's submission path is (identical work dedups at ingest), so
    retrying an *ambiguous* failure can cost a duplicate job file but never
    a duplicate execution.
    """
    policy = policy or RetryPolicy()
    delays = list(policy.delays())
    attempt = 0
    while True:
        try:
            return operation()
        except retry_on as exc:
            if give_up_on and isinstance(exc, give_up_on):
                raise
            if attempt >= len(delays):
                raise
            if metrics is not None:
                metrics.inc("client.retries")
            sleep(delays[attempt])
            attempt += 1


class ServiceClient:
    """Checks with a verdict cache in front of the supervisor.

    ``use_cache=False`` (the ``--no-cache`` escape hatch) skips both
    lookup and store; ``refresh=True`` (``--refresh``) skips the lookup
    but overwrites the entry, forcing one honest recomputation.
    """

    def __init__(
        self,
        cache: VerdictCache | None = None,
        metrics: MetricsRegistry | None = None,
        use_cache: bool = True,
        refresh: bool = False,
        retry: RetryPolicy | None = None,
    ) -> None:
        if metrics is None:
            metrics = cache.metrics if cache is not None else MetricsRegistry()
        self.cache = cache
        self.metrics = metrics
        self.use_cache = use_cache and cache is not None
        self.refresh = refresh
        self.retry = retry or RetryPolicy()

    def submit(
        self,
        spool: str | Path,
        formula: str | Path,
        trace: str | Path,
        options: dict | None = None,
    ) -> Path:
        """Submit one job to a daemon spool, retrying transient failures.

        Retries (exponential backoff + jitter per :attr:`retry`) cover the
        IO-shaped failures of a busy spool — a full disk clearing, an NFS
        hiccup, a daemon mid-restart. Resubmission is **idempotent**: jobs
        are keyed by content fingerprint at ingest, so a retry after an
        ambiguous failure (the job file landed but the error surfaced
        anyway) dedups against the first copy instead of running twice;
        missing artifacts stay fatal on the first attempt.
        """
        from repro.service.daemon import submit_job

        return call_with_retries(
            lambda: submit_job(spool, formula, trace, options),
            policy=self.retry,
            give_up_on=(FileNotFoundError,),
            metrics=self.metrics,
        )

    def check(
        self,
        formula: CnfFormula | str | Path,
        trace_source: str | Path | Trace,
        **options,
    ) -> CheckReport:
        """Supervised check with cache lookup/store around it.

        The formula is always fingerprinted from its parsed, canonical
        form — the same formula hits the same cache line whether it
        arrived as a DIMACS path or an in-memory object.
        """
        if not isinstance(formula, CnfFormula):
            formula = parse_dimacs_file(formula)

        started = time.perf_counter()
        try:
            fingerprint = self.fingerprint(formula, trace_source, options)
        except OSError:
            # An unreadable input has no content to key a verdict by: check
            # it uncached, so that it fails as a check instead of raising.
            return supervised_check(formula, trace_source, **options)

        cached = self.cache_lookup(fingerprint)
        if cached is not None:
            self.metrics.observe("check.latency_s", time.perf_counter() - started)
            return cached

        report = supervised_check(
            formula, trace_source, fingerprint=fingerprint, **options
        )
        self.metrics.observe("check.latency_s", time.perf_counter() - started)
        self.account(report)
        self.cache_store(fingerprint, report)
        return report

    # -- the pieces the scheduler composes itself ----------------------------

    def fingerprint(
        self,
        formula: CnfFormula | str | Path,
        trace_source: str | Path | Trace,
        options: dict,
    ) -> dict:
        """:func:`~repro.service.fingerprint.fingerprint_check`, timed."""
        started = time.perf_counter()
        fingerprint = fingerprint_check(formula, trace_source, options)
        self.metrics.observe("fingerprint.latency_s", time.perf_counter() - started)
        return fingerprint

    def cache_lookup(self, fingerprint: dict) -> CheckReport | None:
        """Cached verdict for ``fingerprint`` — honoring use_cache/refresh."""
        if not self.use_cache or self.refresh:
            return None
        assert self.cache is not None
        return self.cache.get(fingerprint)

    def cache_store(self, fingerprint: dict, report: CheckReport) -> None:
        """Persist a fresh verdict when it is content (not a resource blip).

        A failed store (disk full, injected fault) is counted and swallowed:
        the verdict is already computed and the cache must never turn a
        successful check into a failure. Batched caches keep the entry
        buffered, so a later flush usually lands it anyway.
        """
        if self.use_cache and self._cacheable(report):
            assert self.cache is not None
            try:
                self.cache.put(fingerprint, report)
            except (OSError, RuntimeError):
                self.metrics.inc("cache.store_errors")

    def flush_cache(self) -> None:
        """Force any batched cache writes to disk (drain/shutdown path).

        Same contract as :meth:`cache_store`: errors are counted, never
        raised — entries stay buffered for the next attempt.
        """
        if self.cache is not None:
            try:
                self.cache.flush()
            except (OSError, RuntimeError):
                self.metrics.inc("cache.store_errors")

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _cacheable(report: CheckReport) -> bool:
        if report.verified:
            return True
        return report.failure is not None and report.failure.kind not in DEGRADABLE_KINDS

    def account(self, report: CheckReport) -> None:
        """Fleet-level counters out of one report's self-description."""
        if report.prune is not None:
            self.metrics.inc("check.pruned")
            self.metrics.inc("check.pruned_lemmas", report.prune.get("skipped", 0))
        attempts = report.degradation or ()
        if len(attempts) > 1:
            self.metrics.inc("supervisor.degradations")
            self.metrics.inc("supervisor.ladder_rungs", len(attempts) - 1)
