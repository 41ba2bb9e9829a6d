"""Per-layer spans recorded from the benchmark's side of the API.

The program under test is not modified: :meth:`SpanRecorder.install`
replaces public functions *where the checkers look them up* — module
attributes such as ``repro.checker.breadth_first.scan_binary_learned``
(the name breadth-first imported) and class attributes such as
``KernelEngine.chain`` — with wrappers that open a span around each call.
:meth:`SpanRecorder.uninstall` puts the originals back.

A span has a name (the layer), a start and an end in ``perf_counter_ns``,
a parent span and a request ID. Spans nest per thread; a layer's self
time is its span's duration minus the time its child spans cover.
Generator functions are wrapped so that each ``next()`` is one span.

The wrappers cost one to three microseconds per span, and the checkers
call some wrapped functions once per learned clause, so left alone that
cost would land in the self time of whichever layer opens the most child
spans. Each recorder therefore first measures, on a no-op, how much of a
span's cost falls inside the span and how much in its parent, subtracts
both from every span it records and books them to :data:`TRACING`
instead. Self times of one request, :data:`TRACING` included, add up to
its root span. The no-op measurement is a lower bound of the cost inside
real checks, so the correction never overshoots.

Self times and call counts are kept for every span. The spans themselves
are kept in memory up to :data:`LOG_LIMIT` entries per recorder and
written out as JSONL at the end of the run; a trace check opens thousands
of spans, so keeping every one would cost more memory than the checks.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter_ns

#: Name of the root span the harness opens around each closed-loop request.
ROOT = "harness.request"

#: Pseudo-layer that receives the wrappers' own measured cost.
TRACING = "harness.tracing"

#: How many spans a recorder keeps for the span log.
LOG_LIMIT = 3_000

#: (module, attribute, layer, kind). ``kind`` is ``call`` (one span per
#: call), ``iter`` (one span per ``next()`` of the returned iterator, each
#: counted as one item) or ``batch`` (one span per call, counting the
#: items of the ``(items, position)`` result).
PROBES = (
    ("repro.checker.supervisor", "CheckSupervisor.check", "checker.supervisor", "call"),
    ("repro.checker.breadth_first", "BreadthFirstChecker.check", "checker.breadth_first", "call"),
    ("repro.checker.streaming", "StreamingWindowChecker.check", "checker.streaming", "call"),
    ("repro.checker.breadth_first", "scan_binary_learned", "trace.scan", "call"),
    ("repro.checker.streaming", "scan_mapped_learned", "trace.scan", "call"),
    ("repro.checker.breadth_first", "iter_binary_records_raw", "trace.decode", "iter"),
    ("repro.checker.breadth_first", "iter_trace_records", "trace.decode", "iter"),
    ("repro.checker.streaming", "iter_trace_records", "trace.decode", "iter"),
    ("repro.checker.streaming", "decode_mapped_batch", "trace.decode", "batch"),
    ("repro.checker.kernel", "KernelEngine.chain", "checker.kernel.chain", "call"),
    ("repro.checker.breadth_first", "write_count_range", "checker.counts", "call"),
    ("repro.checker.streaming", "write_count_range", "checker.counts", "call"),
    ("repro.checker.breadth_first", "derive_empty_clause", "checker.level_zero", "call"),
    ("repro.checker.streaming", "derive_empty_clause", "checker.level_zero", "call"),
    ("repro.proofs.drat", "DratChecker.check", "proofs.drat", "call"),
    ("repro.proofs.drat", "read_proof", "proofs.parser", "call"),
    ("repro.checker.unitprop", "UnitPropagator.propagate", "checker.unitprop.propagate", "call"),
    ("repro.checker.unitprop", "UnitPropagator.propagate_tracked", "checker.unitprop.propagate", "call"),
    ("repro.checker.unitprop", "UnitPropagator.add_clause", "checker.unitprop.db", "call"),
    ("repro.checker.unitprop", "UnitPropagator.remove_clause", "checker.unitprop.db", "call"),
    ("repro.service.client", "ServiceClient.fingerprint", "service.fingerprint", "call"),
    ("repro.service.cache", "VerdictCache.get", "service.cache.get", "call"),
    ("repro.service.cache", "VerdictCache.put", "service.cache.put", "call"),
    ("repro.service.cache", "VerdictCache.flush", "service.cache.flush", "call"),
    ("repro.service.jobs", "JobStore.submit", "service.jobs.submit", "call"),
    ("repro.service.jobs", "JobStore.claim", "service.jobs.claim", "call"),
    ("repro.service.jobs", "JobStore.finish", "service.jobs.finish", "call"),
    ("repro.service.pool", "WorkerPool.submit", "service.pool.submit", "call"),
)

#: Every layer a recorder reports, root and tracing cost included.
LAYERS = tuple(dict.fromkeys([ROOT, TRACING] + [probe[2] for probe in PROBES]))


def probes_for(service: bool) -> tuple:
    """The service workload probes only the service layers: its checks run
    in a forked pool worker, where wrappers would only add cost."""
    return tuple(probe for probe in PROBES if probe[2].startswith("service.") == service)


class _ThreadState:
    __slots__ = ("stack", "stats", "request", "thread")

    def __init__(self, thread: str):
        self.stack: list[list] = []
        self.stats: dict[str, list[int]] = {TRACING: [0, 0, 0]}  # [calls, self_ns, items]
        self.request = None
        self.thread = thread


class SpanRecorder:
    """Collects spans from any number of threads without locking."""

    def __init__(self, log_limit: int = LOG_LIMIT):
        self.log_limit = log_limit
        self.log: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._installed: list[tuple[object, str, object]] = []
        self.inner_ns = self.outer_ns = 0.0
        self._calibrate()

    # -- span bookkeeping ----------------------------------------------------

    def enter(self) -> list:
        """Open a span; returns its frame [start, covered, id, state, children]."""
        try:
            state = self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState(threading.current_thread().name)
            self._states.append(state)
        frame = [perf_counter_ns(), 0, next(self._ids), state, 0]
        state.stack.append(frame)
        return frame

    def exit(self, frame: list, layer: str, items: int = 0) -> None:
        end = perf_counter_ns()
        start, covered, span_id, state, children = frame
        stack = state.stack
        stack.pop()
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[4] += 1
            parent_id = parent[2]
        stats = state.stats
        bias = self.inner_ns + children * self.outer_ns
        stats[TRACING][1] += bias
        entry = stats.get(layer)
        if entry is None:
            entry = stats[layer] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration - covered - bias
        entry[2] += items
        if len(self.log) < self.log_limit:
            self.log.append((layer, span_id, parent_id, start, end, state.request, state.thread))

    def _calibrate(self, calls: int = 20_000, repeats: int = 3) -> None:
        """Measure the per-span wrapper cost inside a span (``inner_ns``) and
        in its parent (``outer_ns``); the minimum over repeats, so a noisy
        stretch of the host cannot inflate the correction."""
        def noop(*args):
            return None

        wrapped = self._wrap(noop, TRACING, "call")
        inner = outer = float("inf")
        for _ in range(repeats):
            started = perf_counter_ns()
            for _ in range(calls):
                pass
            loop = perf_counter_ns() - started
            started = perf_counter_ns()
            for _ in range(calls):
                noop(1, 2)
            call = perf_counter_ns() - started - loop
            frame = self.enter()
            stats = frame[3].stats
            stats[TRACING] = [0, 0, 0]
            for _ in range(calls):
                wrapped(1, 2)
            self.exit(frame, ROOT)
            inner = min(inner, (stats[TRACING][1] - call) / calls)
            outer = min(outer, (stats.pop(ROOT)[1] - loop) / calls)
            stats[TRACING] = [0, 0, 0]
        self.inner_ns, self.outer_ns = max(0.0, inner), max(0.0, outer)
        self.log.clear()

    @contextmanager
    def request(self, request_id):
        """The root span of one closed-loop request."""
        frame = self.enter()
        state = frame[3]
        state.request = request_id
        try:
            yield
        finally:
            self.exit(frame, ROOT)
            state.request = None

    def totals(self) -> dict[str, dict[str, int]]:
        """Per-layer ``calls``, ``self_ns`` and ``items`` over all threads."""
        merged: dict[str, dict[str, int]] = {}
        for state in self._states:
            for name, (calls, self_ns, items) in state.stats.items():
                entry = merged.setdefault(name, {"calls": 0, "self_ns": 0, "items": 0})
                entry["calls"] += calls
                entry["self_ns"] += self_ns
                entry["items"] += items
        return merged

    def write_log(self, path) -> None:
        keys = ("name", "id", "parent", "start_ns", "end_ns", "request", "thread")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.log:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- wrapping ------------------------------------------------------------

    def install(self, probes=PROBES) -> None:
        for module_name, attribute, layer, kind in probes:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, kind))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, layer: str, kind: str):
        enter, exit_ = self.enter, self.exit
        if kind == "iter":
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    iterator = iter(fn(*args, **kwargs))
                finally:
                    exit_(frame, layer)
                return _TimedIterator(iterator, layer, enter, exit_)
        elif kind == "batch":
            def wrapper(*args, **kwargs):
                frame = enter()
                items = 0
                try:
                    result = fn(*args, **kwargs)
                    items = len(result[0])
                    return result
                finally:
                    exit_(frame, layer, items)
        else:
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, layer)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper


class _TimedIterator:
    """One span per ``next()``; a produced item counts once."""

    __slots__ = ("_iterator", "_layer", "_enter", "_exit")

    def __init__(self, iterator, layer, enter, exit_):
        self._iterator = iterator
        self._layer = layer
        self._enter = enter
        self._exit = exit_

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._enter()
        items = 0
        try:
            value = next(self._iterator)
            items = 1
            return value
        finally:
            self._exit(frame, self._layer, items)
