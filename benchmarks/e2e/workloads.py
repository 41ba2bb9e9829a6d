"""The four workloads, as one round runs them inside a fresh child process.

Input 0 of every workload is the warm-up input: a child checks it once,
untimed, before it reports ready, and never measures it.

Every timed request carries the time of the :class:`~.reference.Reference`
work measured next to it (``ref``), so the harness can scale latencies
to the baseline host's speed. A closed loop times the work right before
each check. The open loop times it in its generator thread while the
service is idle (every job sent so far has settled) and the next job is
not due for :data:`REF_SLACK_S`, so the work neither waits for the
service nor delays it; a job's ``ref`` is the median of the timings
within :data:`REF_WINDOW_S` of its due time.

Closed loops (``trace-bf``, ``trace-stream``, ``drup-backward``): one
client checks the inputs in whole passes, each pass every positive once
plus one negative, in a seeded order, and ends at the pass boundary
nearest to the round's time. Ending only at pass boundaries keeps every
input equally represented, so percentiles do not shift with how far the
last pass got.

Open loop (``service-mixed``): jobs are due at a fixed rate and submitted
at their due time whether or not earlier jobs finished; latency runs from
the due time to the journaled verdict, so a stall also charges the jobs
queued behind it. After the first :data:`HIT_LAG` jobs, every other job
repeats a key submitted at least :data:`HIT_LAG` jobs earlier, which the
dispatcher answers from the verdict cache; the rest are distinct cold
traces, each sent once.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import threading
import time
from pathlib import Path

from repro.checker import supervised_check
from repro.cnf import parse_dimacs_file
from repro.proofs import DratChecker
from repro.service import JobStore, Scheduler, ServiceClient, VerdictCache

from .fixtures import Fixture
from .reference import Reference
from .spans import SpanRecorder, probes_for

WORKLOADS = ("trace-bf", "trace-stream", "drup-backward", "service-mixed")
POPULATION_OF = {
    "trace-bf": "trace",
    "trace-stream": "trace",
    "drup-backward": "drup",
    "service-mixed": "service",
}

#: Streaming residency budget in logical units, below every BF peak of the
#: trace population (~2k-4k units), so every positive check spills.
STREAM_WINDOW_UNITS = 1024

#: Jobs per second, as in the probe the workload was chosen from. With the
#: round on one CPU, ``--sweep`` put the highest rate that keeps job p98
#: within its limit at 10-40 jobs/s on the baseline host, so the service
#: runs near capacity and queueing changes show in its latency.
SERVICE_RATE = 20.0
SERVICE_OPTIONS = {"method": "bf"}
#: A repeat names a key first sent this many jobs earlier, long enough
#: before that its verdict is normally cached rather than still in flight.
HIT_LAG = 10
DRAIN_TIMEOUT_S = 30.0
#: The open loop times the reference work only when the next job is due
#: at least this much later (three timings at the baseline host's speed).
REF_SLACK_S = 0.030
#: A job's ``ref`` pools the timings made this close to its due time.
REF_WINDOW_S = 1.0
#: Reference timings after a service round that found no idle gap.
SERVICE_REF_SAMPLES = 20


def check(workload: str, formula, fixture: Fixture):
    """One request of a closed-loop workload through its public entry point."""
    if workload == "trace-bf":
        return supervised_check(formula, fixture.proof, method="bf")
    if workload == "trace-stream":
        return supervised_check(
            formula, fixture.proof, method="streaming", memory_window=STREAM_WINDOW_UNITS
        )
    return DratChecker(formula, fixture.proof, backward=True).check()


def _report_fields(report) -> dict:
    memory = report.memory or {}
    proof = report.proof or {}
    fields = {"verified": report.verified}
    if report.failure is not None:
        fields["failure"] = report.failure.kind.value
    if proof:
        fields.update(
            steps=proof["adds"] + proof["deletions"],
            adds=proof["adds"],
            checked=proof["checked"],
            rat_lemmas=proof["rat_lemmas"],
        )
    else:
        fields["resolutions"] = report.resolutions
    if "spilled_clauses" in memory:
        fields.update(
            spilled=memory["spilled_clauses"],
            reloaded=memory["reloaded_clauses"],
            peak_resident=memory["peak_resident_units"],
        )
    return fields


def closed_loop(workload, fixtures, formulas, seconds, rng, reference, recorder=None) -> list[dict]:
    positives = [i for i, fixture in enumerate(fixtures) if fixture.expect and i > 0]
    negatives = [i for i, fixture in enumerate(fixtures) if not fixture.expect]
    ops: list[dict] = []
    started = time.perf_counter()
    passes = 0
    elapsed = 0.0
    while not passes or elapsed + elapsed / passes / 2 < seconds:
        order = positives + [negatives[passes % len(negatives)]]
        rng.shuffle(order)
        for index in order:
            fixture = fixtures[index]
            formula = formulas[fixture.formula]
            ref = reference.time()
            began = time.perf_counter()
            try:
                if recorder is None:
                    report = check(workload, formula, fixture)
                else:
                    with recorder.request(len(ops)):
                        report = check(workload, formula, fixture)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                op = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                op = _report_fields(report)
            op.update(i=index, start=began, lat=time.perf_counter() - began, ref=ref)
            ops.append(op)
        passes += 1
        elapsed = time.perf_counter() - started
    return ops


class TimedJobStore(JobStore):
    """A :class:`JobStore` that notes when each job is claimed and settled,
    and notifies :attr:`changed` when one settles."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.claimed: dict[str, float] = {}
        self.settled: dict[str, float] = {}
        self.changed = threading.Condition()

    def claim(self, worker):
        job = super().claim(worker)
        if job is not None:
            self.claimed[job.job_id] = time.perf_counter()
        return job

    def finish(self, job, result=None):
        super().finish(job, result)
        self._settle(job)

    def fail(self, job, result=None):
        super().fail(job, result)
        self._settle(job)

    def park(self, job, result=None):
        super().park(job, result)
        self._settle(job)

    def _settle(self, job):
        with self.changed:
            self.settled[job.job_id] = time.perf_counter()
            self.changed.notify_all()


def _repeat_slot(slot: int) -> bool:
    return slot >= HIT_LAG and (slot - HIT_LAG) % 2 == 1


def cold_order(num_fixtures: int, seed: int, number: int, slots: int) -> list[int]:
    """The order in which round ``number`` of a run sends inputs cold: every
    input but the warm-up one, in an order drawn once per seed, starting
    where the round before stopped. The rounds of a run thus cover the
    seed's inputs evenly instead of each drawing its own part of them."""
    cold = list(range(1, num_fixtures))
    random.Random(f"service-cold:{seed}").shuffle(cold)
    start = number * sum(not _repeat_slot(slot) for slot in range(slots)) % len(cold)
    return cold[start:] + cold[:start]


def service_plan(cold: list[int], slots: int, rng: random.Random) -> list[int]:
    """Fixture index per job slot: the inputs of ``cold`` in order, each
    once, and after the first :data:`HIT_LAG` slots every other slot a
    repeat (all of them once every input was sent, then of any input sent
    if none was sent that early)."""
    plan: list[int] = []
    first_sent: list[tuple[int, int]] = []
    for slot in range(slots):
        if len(first_sent) == len(cold) or _repeat_slot(slot):
            cached = [index for sent, index in first_sent if sent <= slot - HIT_LAG]
            plan.append(rng.choice(cached or [index for _, index in first_sent]))
        else:
            first_sent.append((slot, cold[len(first_sent)]))
            plan.append(first_sent[-1][1])
    return plan


def _wait_settled(store: TimedJobStore, count: int, until: float) -> bool:
    """Wait until ``count`` jobs have settled, or at most until the
    ``perf_counter`` time ``until``; return whether they have."""
    with store.changed:
        return store.changed.wait_for(
            lambda: len(store.settled) >= count, timeout=max(0.0, until - time.perf_counter())
        )


def service_round(fixtures, plan, rate, directory: Path, recorder=None) -> tuple[dict, float]:
    """One open-loop round of ``plan`` (:func:`service_plan`) at ``rate``
    jobs per second, against a fresh journal, cache and worker pool.

    Returns the round's record and the monotonic time it became ready.
    """
    store = TimedJobStore(directory / "journal.jsonl")
    client = ServiceClient(cache=VerdictCache(directory / "cache", batch_size=16))
    scheduler = Scheduler(store, client, num_workers=1)
    scheduler.start()
    jobs = []
    try:
        warm = fixtures[0]
        store.submit(warm.formula, warm.proof, SERVICE_OPTIONS)
        _wait_settled(store, 1, time.perf_counter() + DRAIN_TIMEOUT_S)
        ready = time.monotonic()
        reference = Reference()
        refs: list[tuple[float, float]] = []
        if recorder is not None:
            recorder.install(probes_for(service=True))
        origin = time.perf_counter()
        for slot, index in enumerate(plan):
            due = origin + slot / rate
            idle = _wait_settled(store, len(jobs) + 1, due - REF_SLACK_S)
            now = time.perf_counter()
            if idle and due - now > REF_SLACK_S:
                refs.append((now - origin, reference.time()))
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted = time.perf_counter()
            job = store.submit(fixtures[index].formula, fixtures[index].proof, SERVICE_OPTIONS)
            jobs.append((index, due, submitted, job))
        _wait_settled(store, len(jobs) + 1, time.perf_counter() + DRAIN_TIMEOUT_S)
    finally:
        scheduler.stop()
        if recorder is not None:
            recorder.uninstall()
        store.close()
    if not refs:
        refs.append((0.0, reference.median(SERVICE_REF_SAMPLES)))
    records = []
    for index, due, submitted, job in jobs:
        result = job.result or {}
        record = {
            "i": index,
            "due": due - origin,
            "submit": submitted - origin,
            "state": job.state.value,
            "verified": result.get("verified"),
            "from_cache": bool(result.get("from_cache")),
            "check_s": result.get("check_time_s", 0.0),
            "ref": _nearby_reference(refs, due - origin),
        }
        if job.job_id in store.claimed:
            record["claim"] = store.claimed[job.job_id] - origin
        if job.job_id in store.settled:
            record["settle"] = store.settled[job.job_id] - origin
        records.append(record)
    counters = client.metrics.snapshot()["counters"]
    pool = {
        "retries": counters.get("pool.task_retries", 0),
        "crashes": counters.get("pool.worker_crashes", 0),
    }
    return {"jobs": records, "pool": pool, "rate": rate, "ref_samples": len(refs)}, ready


def _nearby_reference(refs: list[tuple[float, float]], at: float) -> float:
    """Median of the reference timings within :data:`REF_WINDOW_S` of
    ``at``, or of all of them if none is that close."""
    near = [seconds for when, seconds in refs if abs(when - at) <= REF_WINDOW_S]
    return statistics.median(near or [seconds for _, seconds in refs])


def run_round(spec: dict) -> dict:
    """Run one round as ``spec`` describes; traced rounds run an untraced
    and a traced half, in alternating order, to measure tracing overhead."""
    workload = spec["workload"]
    fixtures = [Fixture(**entry) for entry in spec["fixtures"]]
    rng = random.Random(f"round:{workload}:{spec['seed']}:{spec['round']}")
    halves = [False]
    if spec["trace"]:
        halves = [False, True] if spec["round"] % 2 == 0 else [True, False]
    seconds = spec["seconds"] / len(halves)
    results = []
    ready = None
    if workload == "service-mixed":
        slots = max(1, round(spec["rate"] * seconds))
        cold = cold_order(len(fixtures), spec["seed"], spec["round"], slots)
        for number, traced in enumerate(halves):
            recorder = SpanRecorder() if traced else None
            directory = Path(spec["workdir"]) / f"half{number}"
            half, half_ready = service_round(
                fixtures, service_plan(cold, slots, rng), spec["rate"], directory, recorder
            )
            ready = ready or half_ready
            results.append(_half(half, traced, recorder, spec))
    else:
        formulas = {fixture.formula: parse_dimacs_file(fixture.formula) for fixture in fixtures}
        warm = fixtures[0]
        check(workload, formulas[warm.formula], warm)
        ready = time.monotonic()
        reference = Reference()
        for traced in halves:
            recorder = SpanRecorder() if traced else None
            if recorder is not None:
                recorder.install(probes_for(service=False))
            try:
                ops = closed_loop(workload, fixtures, formulas, seconds, rng, reference, recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            results.append(_half({"ops": ops}, traced, recorder, spec))
    return {
        "ready": ready,
        "halves": results,
        "rss_self_kb": _peak_rss_kb(),
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _peak_rss_kb() -> int:
    """This process's resident high-water mark since it was exec'd.

    ``ru_maxrss`` would also count the parent's footprint at fork time,
    which Linux carries across ``exec``; ``VmHWM`` belongs to the current
    address space only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _half(record: dict, traced: bool, recorder, spec: dict) -> dict:
    record["traced"] = traced
    if recorder is not None:
        record["spans"] = recorder.totals()
        recorder.write_log(spec["spans_path"])
    return record


def child_main(spec_path: str) -> int:
    """Entry point of a round's child process: spec in, result file out."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    # One CPU for the round and the service worker it forks: the host's
    # CPUs change speed independently of each other, and the reference
    # work only tracks the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_round(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0
