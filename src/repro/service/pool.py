"""The persistent pre-forked checking worker pool.

The service's execution layer: long-lived worker **processes**, forked
once at pool start, that receive tasks over pipes and stream results
back. The parent never computes a verdict; it only routes.

Three properties worker threads could not offer:

* **real parallelism** — each worker is its own interpreter, so N workers
  use N cores (threads would serialize CPU-bound checks on the GIL);
* **warm state** — a worker keeps decoded formulas and materialized
  traces cached across jobs, keyed by content fingerprint. Checking ten
  proofs against one formula parses the DIMACS once;
* **crash survival** — the parent waits on each worker's process sentinel
  alongside its pipe, so a SIGKILLed worker is detected immediately, its
  in-flight task is retried on a freshly forked replacement (bounded by
  ``max_task_retries``), and only exhaustion surfaces as a failure.

Workers are forked where the platform has ``fork`` and started with the
platform's default method elsewhere. There is no thread mode: a ``kill``
fault in a thread worker would take the whole daemon down.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from multiprocessing import connection

from repro import faults
from repro.checker.supervisor import CheckSupervisor, supervised_check
from repro.cnf import parse_dimacs_file
from repro.service.metrics import MetricsRegistry
from repro.trace.io import load_trace

#: How many distinct formulas / traces a worker keeps warm. Formulas are
#: small; traces can be large, so their bound is tighter.
DEFAULT_WARM_FORMULAS = 8
DEFAULT_WARM_TRACES = 4

#: How often an idle worker interrupts its pipe wait to check that its
#: parent is still alive (seconds).
PARENT_POLL_S = 1.0

FP_TASK_START = faults.register_fault_point(
    "pool.task.start",
    doc="inside a worker process, between receiving a task and checking it",
)
FP_TASK_DISPATCH = faults.register_fault_point(
    "pool.task.dispatch",
    doc="in the parent, just before a task is piped to an idle worker",
)
FP_RESULT_COLLECT = faults.register_fault_point(
    "pool.result.collect",
    doc="in the parent collector, after a result is read off the pipe and "
        "before it is applied (key = job id)",
)

#: Methods that check a decoded trace as well as its file, so the warm cache
#: can serve them. The clausal checkers stream their proofs from disk (mmap
#: for binary DRAT), and the streaming checker maps its trace instead of
#: holding it: a job whose ladder reaches any of them gets the file.
_WARM_METHODS = frozenset({"df", "hybrid", "bf"})


class _WarmCache:
    """Per-worker LRU of decoded artifacts, keyed by content fingerprint."""

    def __init__(
        self,
        max_formulas: int = DEFAULT_WARM_FORMULAS,
        max_traces: int = DEFAULT_WARM_TRACES,
    ) -> None:
        self.max_formulas = max_formulas
        self.max_traces = max_traces
        self._formulas: OrderedDict[str, object] = OrderedDict()
        self._traces: OrderedDict[str, object] = OrderedDict()

    def formula(self, sha: str | None, path: str, stats: dict) -> object:
        if sha is not None and sha in self._formulas:
            self._formulas.move_to_end(sha)
            stats["formula_hits"] = stats.get("formula_hits", 0) + 1
            return self._formulas[sha]
        parsed = parse_dimacs_file(path)
        stats["formula_misses"] = stats.get("formula_misses", 0) + 1
        if sha is not None:
            self._formulas[sha] = parsed
            while len(self._formulas) > self.max_formulas:
                self._formulas.popitem(last=False)
        return parsed

    def trace(self, sha: str | None, path: str, stats: dict) -> object:
        if sha is not None and sha in self._traces:
            self._traces.move_to_end(sha)
            stats["trace_hits"] = stats.get("trace_hits", 0) + 1
            return self._traces[sha]
        # Fall back to the path itself when the trace cannot be decoded —
        # the checker will then report the malformation as the verdict.
        try:
            decoded = load_trace(path)
        except Exception:
            stats["trace_misses"] = stats.get("trace_misses", 0) + 1
            return path
        stats["trace_misses"] = stats.get("trace_misses", 0) + 1
        if sha is not None:
            self._traces[sha] = decoded
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
        return decoded


def _execute_task(task: dict, warm: _WarmCache) -> dict:
    """Run one check task; never raises — errors become a failure result."""
    stats: dict[str, int] = {}
    started = time.perf_counter()
    try:
        fingerprint = task.get("fingerprint") or None
        shas = fingerprint or {}
        formula = warm.formula(shas.get("formula_sha256"), task["formula"], stats)
        options = task["options"]
        trace = task["trace"]
        # Asked of the file: a fallback ladder ends in the streaming checker
        # only for a trace file past the supervisor's size threshold.
        if _WARM_METHODS.issuperset(CheckSupervisor(formula, trace, **options).ladder()):
            trace = warm.trace(shas.get("trace_sha256"), trace, stats)
        report = supervised_check(formula, trace, fingerprint=fingerprint, **options)
        return {
            "job_id": task["job_id"],
            "ok": True,
            "report": report.to_json(),
            "stats": stats,
            "elapsed_s": time.perf_counter() - started,
        }
    except Exception as exc:  # noqa: BLE001 - a worker must survive any job
        return {
            "job_id": task["job_id"],
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "stats": stats,
            "elapsed_s": time.perf_counter() - started,
        }


def _worker_main(name: str, conn, warm_config: tuple, parent: int) -> None:
    """The long-lived worker loop: recv task, check, send result, repeat.

    ``parent`` is the daemon's PID from before the fork, so a worker whose
    daemon died before it ran still sees itself orphaned.
    """
    warm = _WarmCache(*warm_config)
    while True:
        try:
            # recv() alone cannot detect a SIGKILLed parent: fork-context
            # children inherit *both* ends of every pipe created before
            # their fork (their own parent end, and every earlier
            # sibling's), so the pipe never reaches EOF once the parent
            # is gone. Poll with a timeout and watch for reparenting —
            # an orphaned worker must exit, not survive as litter that
            # holds the dead daemon's stdio open.
            if not conn.poll(PARENT_POLL_S):
                if os.getppid() != parent:
                    break
                continue
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        # Worker-side fault point; a token-gated kill entry here is the
        # one-worker SIGKILL drill. A raise-kind fault is a crash the
        # worker loop does not survive — exactly like a kill, but visible
        # to coverage-style in-process drills.
        faults.fault_point(FP_TASK_START, key=task.get("job_id"))
        result = _execute_task(task, warm)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break


class _WorkerHandle:
    """Parent-side view of one worker: its process, pipe and current task."""

    __slots__ = ("name", "process", "conn", "task", "started")

    def __init__(self, name, process, conn):
        self.name = name
        self.process = process
        self.conn = conn
        self.task = None
        self.started = 0.0


class WorkerPool:
    """Pre-forked process pool with crash replacement and task retry.

    The owner supplies ``result_handler``, invoked from the pool's
    collector thread with each result dict (``ok``/``report``/``error``
    plus per-task warm-cache ``stats``). ``submit`` assigns a task to an
    idle worker (returns ``False`` when all are busy — the caller is the
    backpressure); results, crashes and replacements are fully async.
    """

    def __init__(
        self,
        num_workers: int,
        result_handler,
        metrics: MetricsRegistry | None = None,
        max_task_retries: int = 1,
        task_timeout: float | None = None,
        warm_formulas: int = DEFAULT_WARM_FORMULAS,
        warm_traces: int = DEFAULT_WARM_TRACES,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = num_workers
        self.result_handler = result_handler
        self.metrics = metrics or MetricsRegistry()
        self.max_task_retries = max_task_retries
        #: A worker holding one task longer than this is presumed hung and
        #: SIGKILLed — the crash-replacement path then owns retry/surfacing,
        #: so a livelocked check degrades into an ordinary worker crash
        #: instead of silently parking one pool slot forever.
        self.task_timeout = task_timeout
        self._warm_config = (warm_formulas, warm_traces)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._workers: list[_WorkerHandle] = []
        self._collector: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._spawned = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._collector is not None:
            raise RuntimeError("pool already started")
        self._stop_event.clear()
        # Fork every worker *before* the collector thread exists: a fork
        # taken from a single-threaded parent can never inherit a held lock.
        with self._lock:
            for _ in range(self.num_workers):
                self._workers.append(self._spawn_worker())
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True
        )
        self._collector.start()

    def stop(self, grace_s: float = 5.0) -> None:
        if self._collector is None:
            return
        self._stop_event.set()
        self._collector.join(timeout=grace_s)
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=grace_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=grace_s)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._collector = None

    def _spawn_worker(self) -> _WorkerHandle:
        name = f"pool-worker-{self._spawned}"
        self._spawned += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(name, child_conn, self._warm_config, os.getpid()),
            name=name,
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(name, process, parent_conn)

    # -- submission ----------------------------------------------------------

    def submit(self, task: dict) -> bool:
        """Hand ``task`` to an idle worker; ``False`` when all are busy."""
        faults.fault_point(FP_TASK_DISPATCH, key=task.get("job_id"))
        with self._lock:
            for worker in self._workers:
                if worker.task is None and worker.process.is_alive():
                    worker.task = task
                    worker.started = time.monotonic()
                    try:
                        worker.conn.send(task)
                    except OSError:
                        # Worker died between is_alive and send; the
                        # sentinel path will retry the task elsewhere.
                        pass
                    return True
        return False

    @property
    def idle_workers(self) -> int:
        with self._lock:
            return sum(
                1
                for worker in self._workers
                if worker.task is None and worker.process.is_alive()
            )

    def has_idle(self) -> bool:
        return self.idle_workers > 0

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [worker.process.pid for worker in self._workers]

    def busy_worker_pids(self) -> list[int]:
        with self._lock:
            return [
                worker.process.pid for worker in self._workers if worker.task is not None
            ]

    # -- the collector -------------------------------------------------------

    def _collect_loop(self) -> None:
        while not self._stop_event.is_set():
            with self._lock:
                by_conn = {worker.conn: worker for worker in self._workers}
                by_sentinel = {
                    worker.process.sentinel: worker for worker in self._workers
                }
            if not by_conn:
                time.sleep(0.01)
                continue
            ready = connection.wait(
                list(by_conn) + list(by_sentinel), timeout=0.2
            )
            self._reap_hung_workers()
            for item in ready:
                worker = by_conn.get(item)
                if worker is not None:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash(worker)
                        continue
                    try:
                        faults.fault_point(
                            FP_RESULT_COLLECT,
                            key=message.get("job_id") if isinstance(message, dict) else None,
                        )
                    except (faults.FaultInjected, OSError) as exc:
                        # The collector thread must survive an in-process
                        # fault; the computed result is lost, which to the
                        # owner looks exactly like the worker dying after
                        # the check — a crash, retried or quarantined.
                        self.metrics.inc("pool.injected_faults")
                        job_id = message.get("job_id") if isinstance(message, dict) else ""
                        message = {
                            "job_id": job_id,
                            "ok": False,
                            "crashed": True,
                            "error": f"result lost to injected fault: {exc}",
                            "stats": {},
                        }
                    with self._lock:
                        worker.task = None
                    self._deliver(message)
                else:
                    worker = by_sentinel.get(item)
                    if worker is not None and not worker.process.is_alive():
                        # Drain any result the worker managed to send before
                        # dying, then treat the remainder as a crash.
                        drained = False
                        try:
                            if worker.conn.poll(0):
                                message = worker.conn.recv()
                                with self._lock:
                                    worker.task = None
                                self._deliver(message)
                                drained = True
                        except (EOFError, OSError):
                            pass
                        self._handle_crash(worker, quiet=drained)

    def _reap_hung_workers(self) -> None:
        """SIGKILL any worker past ``task_timeout`` on its current task.

        The kill is the whole intervention: the process sentinel fires on
        the next wait and the ordinary crash path replaces the worker and
        retries (then quarantines) the task.
        """
        if self.task_timeout is None:
            return
        now = time.monotonic()
        with self._lock:
            stuck = [
                worker
                for worker in self._workers
                if worker.task is not None
                and worker.started
                and now - worker.started > self.task_timeout
                and worker.process.is_alive()
            ]
        for worker in stuck:
            self.metrics.inc("pool.task_timeouts")
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except (OSError, TypeError):
                pass

    def _handle_crash(self, worker: _WorkerHandle, quiet: bool = False) -> None:
        retried = False
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            task, worker.task = worker.task, None
            replacement = None
            if not self._stop_event.is_set():
                replacement = self._spawn_worker()
                self._workers.append(replacement)
            if task is not None:
                task["_retries"] = task.get("_retries", 0) + 1
                if task["_retries"] <= self.max_task_retries and replacement is not None:
                    # Pin the retry to the replacement *inside* the lock —
                    # otherwise the dispatcher can race a fresh job into the
                    # new worker's slot and the retry finds no idle worker.
                    replacement.task = task
                    replacement.started = time.monotonic()
                    try:
                        replacement.conn.send(task)
                    except OSError:
                        pass  # replacement died instantly; sentinel retries
                    retried = True
        try:
            worker.conn.close()
        except OSError:
            pass
        exitcode = worker.process.exitcode
        if not quiet or task is not None:
            self.metrics.inc("pool.worker_crashes")
        if replacement is not None:
            self.metrics.inc("pool.workers_replaced")
        if task is None:
            return
        if retried:
            self.metrics.inc("pool.task_retries")
            return
        self._deliver(
            {
                "job_id": task["job_id"],
                "ok": False,
                "error": (
                    f"worker crashed (exit code {exitcode}) and retries are "
                    f"exhausted after {task['_retries']} attempt(s)"
                ),
                "crashed": True,
                "stats": {},
            }
        )

    def _deliver(self, result: dict) -> None:
        try:
            self.result_handler(result)
        except Exception:  # noqa: BLE001 - the collector must survive handlers
            self.metrics.inc("pool.result_handler_errors")
