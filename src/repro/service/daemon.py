"""The spool-directory daemon behind ``repro serve`` / ``submit`` / ``status``.

A spool directory is the whole wire protocol — no broker, nothing the
offline environment lacks:

.. code-block:: text

    spool/
      incoming/              job files dropped by `repro submit` (atomic rename in)
      accepted/              job files after pickup (atomic rename out of incoming)
      journal.jsonl          the JobStore journal (single-shard source of truth)
      journal-KK-of-NN.jsonl sharded journals (multi-instance deployments)
      control-<pid>.sock     unix datagram wakeup socket, one per live daemon
      results/               per-job full CheckReport JSON + SERVICE_metrics.json
      cache/                 the verdict cache (shared across restarts)

``repro submit`` writes a job file into ``incoming/`` and then pings every
``control-*.sock`` it can see — a serving daemon wakes *immediately*
instead of on its next poll tick, so submit→verdict latency is bounded by
the check, not by ``poll_interval`` (which survives purely as the fallback
for submitters that cannot reach a socket). The daemon's ingest renames
the file into ``accepted/`` (rename is the commit point — two daemons can
share a spool without double-ingesting), journals it as PENDING, and the
scheduler's pre-forked pool takes it from there.

Sharded deployments give each daemon instance disjoint ``--own`` shards:
jobs route to ``shard_of(content key)``, an instance only ingests and
drains what it owns, and every journal file keeps exactly one writer.
Restarting after a crash re-opens the owned journals, requeues orphaned
RUNNING jobs, and keeps going; completed work is never repeated because
it is journaled DONE, and identical *pending* work is deduplicated by
content key.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.service.cache import VerdictCache
from repro.service.client import ServiceClient
from repro.service.fingerprint import fingerprint_options, job_key
from repro.service.jobs import (
    DEFAULT_MAX_JOB_ATTEMPTS,
    JobStore,
    ShardedJobStore,
    discover_shard_journals,
    fsync_dir,
    shard_of,
)
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import Scheduler
from repro.trace.fingerprint import sha256_file

#: Snapshot of the daemon's metrics, inside the spool's results dir.
METRICS_BASENAME = "SERVICE_metrics.json"

#: Default floor between metrics snapshots while the daemon is serving.
DEFAULT_METRICS_INTERVAL_S = 2.0

#: Default size of one batched verdict-cache flush.
DEFAULT_CACHE_BATCH = 16

#: Default floor between heartbeat writes while the daemon is serving.
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: A heartbeat older than this many intervals marks its daemon stale.
HEARTBEAT_STALE_FACTOR = 3.0

FP_SPOOL_INGEST = faults.register_fault_point(
    "daemon.spool.ingest",
    doc="between accepting a spooled job file (the rename commit point) "
        "and journaling it (key = job file name)",
)
FP_WAKEUP = faults.register_fault_point(
    "daemon.wakeup",
    doc="right after the daemon's control socket receives a submit ping",
)
FP_HEARTBEAT = faults.register_fault_point(
    "daemon.heartbeat.write", writes=True,
    doc="the daemon's liveness heartbeat file (before its atomic rename)",
)


@dataclass
class SpoolLayout:
    """Where everything lives inside one spool directory."""

    root: Path

    @property
    def incoming(self) -> Path:
        return self.root / "incoming"

    @property
    def accepted(self) -> Path:
        return self.root / "accepted"

    @property
    def journal(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def results(self) -> Path:
        return self.root / "results"

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    @property
    def metrics_path(self) -> Path:
        return self.results / METRICS_BASENAME

    @property
    def health(self) -> Path:
        return self.root / "health"

    @property
    def dead_letters(self) -> Path:
        return self.root / "jobs" / "dead"

    def control_sockets(self) -> list[Path]:
        return sorted(self.root.glob("control-*.sock"))

    def heartbeats(self) -> list[Path]:
        if not self.health.is_dir():
            return []
        return sorted(self.health.glob("daemon-*.json"))

    def ensure(self) -> "SpoolLayout":
        for directory in (
            self.root, self.incoming, self.accepted, self.results, self.health,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self


def spool_layout(spool: str | Path) -> SpoolLayout:
    return SpoolLayout(Path(spool))


def _ping_daemons(layout: SpoolLayout) -> int:
    """Poke every serving daemon's wakeup socket; stale sockets of dead
    daemons are cleaned up on the way. Returns how many pings landed."""
    delivered = 0
    for sock_path in layout.control_sockets():
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"!", str(sock_path))
            delivered += 1
        except OSError:
            try:
                sock_path.unlink()
            except OSError:
                pass
    return delivered


def submit_job(
    spool: str | Path,
    formula: str | Path,
    trace: str | Path,
    options: dict | None = None,
) -> Path:
    """Drop one job file into the spool's incoming directory, atomically,
    then wake any serving daemon over its control socket.

    Paths are stored absolute so the daemon's working directory is
    irrelevant. Returns the job file's path (its basename is unique per
    content+time, so concurrent submitters never collide).
    """
    layout = spool_layout(spool).ensure()
    formula = Path(formula).resolve()
    trace = Path(trace).resolve()
    for artifact in (formula, trace):
        if not artifact.is_file():
            raise FileNotFoundError(f"no such artifact: {artifact}")
    payload = {
        "formula": str(formula),
        "trace": str(trace),
        "options": dict(options or {}),
    }
    body = json.dumps(payload, indent=2, sort_keys=True)
    stamp = f"{time.time_ns():x}-{os.getpid()}"
    path = layout.incoming / f"job-{stamp}.json"
    tmp = layout.incoming / f".job-{stamp}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(body + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(layout.incoming)
    _ping_daemons(layout)
    return path


def request_requeue(spool: str | Path, job_id: str) -> Path:
    """Ask the daemon that owns ``job_id`` to requeue it (dead-letter exit).

    Journals are single-writer, so the request travels the same road as a
    job submission: an atomically renamed control file in ``incoming/``,
    applied by the owning daemon's next ingest pass (or by
    ``repro serve --once`` when no daemon is running).
    """
    layout = spool_layout(spool).ensure()
    stamp = f"{time.time_ns():x}-{os.getpid()}"
    path = layout.incoming / f"requeue-{stamp}.json"
    tmp = layout.incoming / f".requeue-{stamp}.tmp"
    body = json.dumps({"requeue": job_id}, indent=2, sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(body + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(layout.incoming)
    _ping_daemons(layout)
    return path


def offline_requeue(spool: str | Path, job_id: str):
    """Requeue ``job_id`` by opening the shard journals directly.

    ONLY safe when no daemon is serving the spool (the caller checks
    liveness via :func:`read_health` first) — journals are single-writer.
    Opening a journal also replays it, so any RUNNING orphans of the dead
    daemon are requeued or parked as a side effect, which is exactly the
    recovery an operator running this command wants. Returns the requeued
    job, or ``None`` if no journal knows ``job_id``.
    """
    layout = spool_layout(spool)
    for journal in discover_shard_journals(layout.root):
        with JobStore(journal, dead_letter_dir=layout.dead_letters) as store:
            if store.get(job_id) is not None:
                return store.requeue(job_id)
    return None


def _dedup_key(payload: dict) -> str:
    """Content key for submit-time dedup: artifact bytes + keyed options."""
    return job_key(
        sha256_file(payload["formula"]),
        sha256_file(payload["trace"]),
        fingerprint_options(payload.get("options", {})),
    )


class CheckDaemon:
    """Serves a spool directory: event-driven ingest feeding the pool."""

    def __init__(
        self,
        spool: str | Path,
        num_workers: int = 2,
        use_cache: bool = True,
        refresh: bool = False,
        cache_dir: str | Path | None = None,
        poll_interval: float = 0.2,
        fsync: bool = False,
        num_shards: int = 1,
        owned_shards: list[int] | None = None,
        metrics_interval: float = DEFAULT_METRICS_INTERVAL_S,
        cache_batch: int = DEFAULT_CACHE_BATCH,
        max_job_attempts: int = DEFAULT_MAX_JOB_ATTEMPTS,
        task_timeout: float | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.layout = spool_layout(spool).ensure()
        self.metrics = MetricsRegistry()
        cache = None
        if use_cache:
            cache = VerdictCache(
                cache_dir or self.layout.cache,
                metrics=self.metrics,
                batch_size=max(1, cache_batch),
            )
        self.client = ServiceClient(
            cache=cache, metrics=self.metrics, use_cache=use_cache, refresh=refresh
        )
        self.store = ShardedJobStore(
            self.layout.root,
            num_shards=num_shards,
            owned=owned_shards,
            fsync=fsync,
            max_job_attempts=max_job_attempts,
        )
        self.scheduler = Scheduler(
            self.store, self.client, num_workers=num_workers,
            results_dir=self.layout.results, task_timeout=task_timeout,
        )
        self.poll_interval = poll_interval
        self.metrics_interval = metrics_interval
        self.heartbeat_interval = heartbeat_interval
        self.daemon_id = f"daemon-{os.getpid()}"
        self.started_at = time.time()
        self._last_heartbeat = 0.0
        self._wakeup_sock: socket.socket | None = None
        self._wakeup_path: Path | None = None
        if self.store.requeued_on_replay:
            self.metrics.inc("jobs.requeued_on_replay", self.store.requeued_on_replay)
        if self.store.parked_on_replay:
            self.metrics.inc("jobs.parked_on_replay", self.store.parked_on_replay)
        self._recover_accepted()

    # -- spool ingestion -----------------------------------------------------

    def _recover_accepted(self) -> None:
        """Re-journal accepted job files the journal does not know.

        The accept rename and the journal append are two steps; a crash
        between them leaves the job file in ``accepted/`` with no journal
        entry — without this pass that job would be silently lost. Re-
        submission dedups by content key, so jobs that *did* get journaled
        (the overwhelmingly common case) are recognized and skipped.
        """
        if self.store.readonly or not self.layout.accepted.is_dir():
            return
        known = {job.dedup_key for job in self.store.jobs() if job.dedup_key}
        for path in sorted(self.layout.accepted.glob("*.json")):
            if path.name.startswith("requeue-"):
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                options = payload.get("options", {})
                if not isinstance(options, dict):
                    continue
                dedup = _dedup_key(payload)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if dedup in known:
                continue
            if shard_of(dedup, self.store.num_shards) not in self.store._shards:
                continue
            self.store.submit(
                payload["formula"], payload["trace"], options, dedup_key=dedup
            )
            known.add(dedup)
            self.metrics.inc("spool.recovered")

    @property
    def _rejects_malformed(self) -> bool:
        # Exactly one instance per spool must own rejection of files whose
        # shard cannot be computed; by convention it is shard 0's owner.
        return 0 in self.store._shards

    def ingest(self) -> int:
        """Journal every waiting job file this instance owns; returns how
        many. Files routing to shards owned by *other* instances are left
        in ``incoming/`` for their owners. Requeue control files (from
        ``repro requeue``) are applied on the same pass."""
        ingested = 0
        self._apply_requeue_requests()
        for path in sorted(self.layout.incoming.glob("*.json")):
            if path.name.startswith("requeue-"):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue  # another instance renamed it first
            try:
                payload = json.loads(text)
                formula, trace = payload["formula"], payload["trace"]
                options = payload.get("options", {})
                if not isinstance(options, dict):
                    raise ValueError("job options must be an object")
                dedup = _dedup_key(payload)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                if not self._rejects_malformed:
                    continue
                accepted = self.layout.accepted / path.name
                try:
                    os.replace(path, accepted)  # the commit point
                except OSError:
                    continue
                accepted.rename(accepted.with_suffix(".rejected"))
                self.metrics.inc("spool.rejected")
                print(f"service: rejected {path.name}: {exc}", file=sys.stderr)
                continue
            if shard_of(dedup, self.store.num_shards) not in self.store._shards:
                self.metrics.inc("spool.other_shard")
                continue
            accepted = self.layout.accepted / path.name
            try:
                os.replace(path, accepted)  # the commit point
            except OSError:
                continue  # a same-shard replica won the rename
            # A crash here loses the journal entry but not the job: the
            # file survives in accepted/, and recovery re-spools anything
            # accepted/ holds that the journal does not (re-ingest is
            # idempotent via the content dedup key).
            faults.fault_point(FP_SPOOL_INGEST, key=path.name)
            self.store.submit(formula, trace, options, dedup_key=dedup)
            self.metrics.inc("spool.ingested")
            ingested += 1
        self.metrics.set_gauge("queue.depth", self.store.queue_depth)
        return ingested

    def _apply_requeue_requests(self) -> None:
        """Apply ``repro requeue`` control files for jobs this instance owns."""
        for path in sorted(self.layout.incoming.glob("requeue-*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                job_id = payload["requeue"]
            except (OSError, ValueError, KeyError, TypeError):
                if self._rejects_malformed:
                    try:
                        path.unlink()
                        self.metrics.inc("spool.rejected")
                    except OSError:
                        pass
                continue
            job = self.store.get(job_id)
            if job is None:
                # Not ours (another instance owns the shard) — unless this
                # is the rejecting instance and nobody can ever own it.
                continue
            consumed = self.layout.accepted / path.name
            try:
                os.replace(path, consumed)  # commit: exactly one applier
            except OSError:
                continue
            if self.store.requeue(job_id) is not None:
                self.metrics.inc("jobs.requeued_by_operator")

    def snapshot_metrics(self) -> None:
        self.metrics.write(str(self.layout.metrics_path))

    # -- heartbeat / health --------------------------------------------------

    @property
    def heartbeat_path(self) -> Path:
        return self.layout.health / f"{self.daemon_id}.json"

    def write_heartbeat(self, force: bool = False) -> bool:
        """Refresh this daemon's liveness file (throttled; atomic).

        The heartbeat is how an operator tells a dead daemon from a slow
        one: ``repro status --health`` compares each file's age against
        its advertised interval. Failure to write is counted, never fatal
        — a daemon with a full disk should keep serving from memory.
        """
        now = time.monotonic()
        if not force and now - self._last_heartbeat < self.heartbeat_interval:
            return False
        payload = {
            "daemon_id": self.daemon_id,
            "pid": os.getpid(),
            "shards": list(self.store.owned),
            "num_shards": self.store.num_shards,
            "interval_s": self.heartbeat_interval,
            "started_at": self.started_at,
            "written_at": time.time(),
            "counts": self.store.counts(),
        }
        tmp = f"{self.heartbeat_path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                faults.fault_write(
                    FP_HEARTBEAT,
                    handle,
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                )
            os.replace(tmp, self.heartbeat_path)
        except (OSError, RuntimeError):
            self.metrics.inc("daemon.heartbeat_errors")
            return False
        self._last_heartbeat = now
        self.metrics.inc("daemon.heartbeats")
        return True

    def clear_heartbeat(self) -> None:
        try:
            self.heartbeat_path.unlink()
        except OSError:
            pass

    def reap_stale_daemons(self) -> int:
        """Clean up after daemons that died without a graceful shutdown.

        Their heartbeat files and wakeup sockets are removed (so health
        output converges on the truth); their RUNNING jobs live in journals
        only a process that *opens* those journals may rewrite — this
        instance's own shards were already requeued at open, and a restart
        or ``repro serve --once`` covers the rest. Returns how many dead
        daemons were reaped.
        """
        reaped = 0
        for path in self.layout.heartbeats():
            if path == self.heartbeat_path:
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                pid = int(payload["pid"])
            except (OSError, ValueError, KeyError, TypeError):
                pid = -1
            if pid > 0 and _pid_alive(pid):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if pid > 0:
                try:
                    (self.layout.root / f"control-{pid}.sock").unlink()
                except OSError:
                    pass
            reaped += 1
            self.metrics.inc("daemon.reaped")
        return reaped

    # -- wakeup socket -------------------------------------------------------

    def _open_wakeup_socket(self) -> None:
        path = self.layout.root / f"control-{os.getpid()}.sock"
        try:
            if path.exists():
                path.unlink()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
            sock.bind(str(path))
        except OSError:
            # Socket path too long / AF_UNIX unavailable: poll-only mode.
            self._wakeup_sock = None
            self._wakeup_path = None
            return
        self._wakeup_sock = sock
        self._wakeup_path = path

    def _close_wakeup_socket(self) -> None:
        if self._wakeup_sock is not None:
            try:
                self._wakeup_sock.close()
            except OSError:
                pass
            self._wakeup_sock = None
        if self._wakeup_path is not None:
            try:
                self._wakeup_path.unlink()
            except OSError:
                pass
            self._wakeup_path = None

    def _wait_for_wakeup(self, timeout: float) -> bool:
        """Block until a submitter pings us or ``timeout`` elapses."""
        if self._wakeup_sock is None:
            time.sleep(timeout)
            return False
        self._wakeup_sock.settimeout(timeout)
        try:
            self._wakeup_sock.recv(16)
        except (TimeoutError, socket.timeout):
            return False
        except OSError:
            return False
        # Coalesce any burst of pings into this one ingest pass.
        self._wakeup_sock.settimeout(0.0)
        while True:
            try:
                self._wakeup_sock.recv(16)
            except (BlockingIOError, TimeoutError, socket.timeout, OSError):
                break
        self.metrics.inc("daemon.wakeups")
        faults.fault_point(FP_WAKEUP)
        return True

    # -- run modes -----------------------------------------------------------

    def run_once(self) -> int:
        """Ingest what is waiting, drain the queue, snapshot, exit.

        This is the crash-recovery entry point too: reopening the journal
        already requeued (or quarantined) any orphaned RUNNING jobs and
        re-spooled accepted-but-unjournaled files, so a ``--once`` run
        after a SIGKILL finishes whatever the dead daemon left behind.
        """
        self.reap_stale_daemons()
        self.ingest()
        self.scheduler.drain()
        self.snapshot_metrics()
        self.store.close()
        return 0

    def run_forever(self, max_idle_s: float | None = None) -> int:
        """Serve the spool until interrupted (or idle past ``max_idle_s``).

        SIGTERM is a *graceful* stop: in-flight checks finish, batched
        verdict-cache entries flush, the heartbeat file is withdrawn —
        indistinguishable afterward from Ctrl-C. Only SIGKILL leaves
        RUNNING orphans, and those are requeued at the next journal open.

        Metrics snapshots are throttled: one write only when the service
        state changed since the last write *and* at least
        ``metrics_interval`` seconds have passed — an idle daemon performs
        zero renames per poll instead of one.
        """
        self.scheduler.start()
        self._open_wakeup_socket()
        previous_sigterm = _install_sigterm_handler()
        self.write_heartbeat(force=True)
        last_activity = time.monotonic()
        last_snapshot = 0.0
        last_signature: object = None
        try:
            while True:
                ingested = self.ingest()
                self.write_heartbeat()
                self.reap_stale_daemons()
                busy = self.store.queue_depth > 0 or not self.store.all_terminal
                if ingested or busy:
                    last_activity = time.monotonic()
                elif max_idle_s is not None and time.monotonic() - last_activity > max_idle_s:
                    return 0
                signature = (
                    self.metrics.counter("spool.ingested").value,
                    tuple(sorted(self.store.counts().items())),
                )
                now = time.monotonic()
                if signature != last_signature and now - last_snapshot >= self.metrics_interval:
                    self.snapshot_metrics()
                    last_snapshot = now
                    last_signature = signature
                self._wait_for_wakeup(self.poll_interval)
        except (KeyboardInterrupt, _GracefulShutdown):
            return 0
        finally:
            _restore_sigterm_handler(previous_sigterm)
            self._close_wakeup_socket()
            self.scheduler.stop()
            self.snapshot_metrics()
            self.clear_heartbeat()
            self.store.close()


# -- graceful shutdown ---------------------------------------------------------


class _GracefulShutdown(Exception):
    """Raised by the SIGTERM handler to unwind run_forever cleanly."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)
    return True


def _install_sigterm_handler():
    """Route SIGTERM into the graceful-stop path; no-op off the main thread."""
    def _handler(signum, frame):
        raise _GracefulShutdown()
    try:
        return signal.signal(signal.SIGTERM, _handler)
    except ValueError:
        return None


def _restore_sigterm_handler(previous) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except ValueError:
        pass


# -- read-side helpers (repro status / repro results) -------------------------


def _readonly_stores(layout: SpoolLayout):
    for journal in discover_shard_journals(layout.root):
        yield JobStore(journal, readonly=True)


def read_health(spool: str | Path, stale_after: float | None = None) -> dict:
    """Per-daemon liveness from the spool's heartbeat files.

    A daemon is ``alive`` when its pid still exists and its heartbeat is
    fresh; ``stale`` when the pid exists but the heartbeat stopped aging
    well (a hung daemon looks exactly like this); ``dead`` when the pid is
    gone. ``stale_after`` overrides the default threshold of
    ``HEARTBEAT_STALE_FACTOR`` × the daemon's own advertised interval.
    """
    layout = spool_layout(spool)
    daemons = []
    now = time.time()
    for path in layout.heartbeats():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            daemons.append({
                "daemon_id": path.stem, "status": "unreadable", "path": str(path),
            })
            continue
        pid = payload.get("pid", -1)
        age = max(0.0, now - payload.get("written_at", 0.0))
        threshold = stale_after
        if threshold is None:
            interval = payload.get("interval_s", DEFAULT_HEARTBEAT_INTERVAL_S)
            threshold = max(HEARTBEAT_STALE_FACTOR * interval, 5.0)
        pid_alive = isinstance(pid, int) and pid > 0 and _pid_alive(pid)
        if not pid_alive:
            status = "dead"
        elif age > threshold:
            status = "stale"
        else:
            status = "alive"
        daemons.append({
            "daemon_id": payload.get("daemon_id", path.stem),
            "pid": pid,
            "status": status,
            "heartbeat_age_s": round(age, 3),
            "stale_after_s": round(threshold, 3),
            "shards": payload.get("shards", []),
            "counts": payload.get("counts", {}),
        })
    return {
        "daemons": daemons,
        "alive": sum(1 for d in daemons if d["status"] == "alive"),
        "stale": sum(1 for d in daemons if d["status"] == "stale"),
        "dead": sum(1 for d in daemons if d["status"] in ("dead", "unreadable")),
    }


def read_dead_letters(spool: str | Path) -> list[dict]:
    """Every quarantined job, with its attempt history, oldest first."""
    layout = spool_layout(spool)
    dead = []
    for store in _readonly_stores(layout):
        for job in store.dead_jobs():
            entry = {
                "job_id": job.job_id,
                "formula": job.formula,
                "trace": job.trace,
                "attempts": job.attempts,
                "attempt_history": job.attempt_history,
                "error": (job.result or {}).get("error"),
            }
            letter = layout.dead_letters / f"{job.job_id}.json"
            if letter.is_file():
                entry["dead_letter_path"] = str(letter)
            dead.append(entry)
    dead.sort(key=lambda entry: entry["job_id"])
    return dead


def read_queue_status(spool: str | Path) -> dict:
    """State counts and queue depth from every shard journal, without
    mutating any of them."""
    layout = spool_layout(spool)
    incoming = (
        sum(1 for _ in layout.incoming.glob("*.json"))
        if layout.incoming.is_dir()
        else 0
    )
    journals = discover_shard_journals(layout.root)
    if not journals:
        return {"jobs": 0, "counts": {}, "queue_depth": 0, "incoming": incoming}
    jobs = 0
    queue_depth = 0
    torn = 0
    counts: dict[str, int] = {}
    for store in _readonly_stores(layout):
        jobs += len(store.jobs())
        queue_depth += store.queue_depth
        torn += store.torn_lines
        for state, count in store.counts().items():
            counts[state] = counts.get(state, 0) + count
    return {
        "jobs": jobs,
        "counts": counts,
        "queue_depth": queue_depth,
        "incoming": incoming,
        "torn_lines": torn,
        "shards": len(journals),
    }


def iter_results(spool: str | Path, job_id: str | None = None):
    """Yield (job, result-payload-or-None) for terminal jobs, oldest first,
    across every shard journal."""
    layout = spool_layout(spool)
    jobs = []
    for store in _readonly_stores(layout):
        jobs.extend(store.jobs())
    jobs.sort(key=lambda job: (job.submitted_at, job.job_id))
    for job in jobs:
        if job_id is not None and job.job_id != job_id:
            continue
        if job.state.value not in ("DONE", "FAILED"):
            continue
        payload = None
        result_path = (job.result or {}).get("result_path")
        if result_path and Path(result_path).is_file():
            try:
                payload = json.loads(Path(result_path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payload = None
        yield job, payload
