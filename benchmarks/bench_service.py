"""Checking-service benchmark: cache speedup, worker scaling, shard drill.

Measurements, written to ``results/BENCH_service.json``:

* **cold vs warm cache** — the same ``ServiceClient.check`` call twice
  against a fresh verdict cache. The first run replays resolution; the
  second is a fingerprint plus one file read. Gate: the warm check must
  be at least **10x** faster than the cold one on the largest instance.
* **cold-population throughput** — jobs with *distinct* content keys
  (no dedup, no cache sharing: every job pays for a real check) drained
  through the pre-forked process pool at 1, 2 and 4 workers. The job
  count **scales with the worker count** (fixed work per worker), so
  each row measures steady-state jobs/s rather than amortizing the same
  tiny batch over more workers. Per-job RUNNING -> DONE latency
  percentiles come straight from the journal timestamps.
* **warm-population throughput** — N identical jobs through one
  scheduler with the cache on: one real check, N-1 verdict-cache serves.
  This isolates the cache-hit serving rate from checking throughput.
* **sharded drill** — one spool, two ``repro serve --once`` processes
  owning disjoint shards, every job checked exactly once.

The scaling gate is **hardware-conditional and honest**: with >= 4 CPU
cores the 4-worker configuration must reach **3.0x** the 1-worker
jobs/s; on smaller hosts (this includes 1-core CI containers, where
parallel speedup is physically impossible) the gate degrades to a
**monotonicity floor** — 4 workers must not fall below 0.9x of 1 worker,
which still catches the original negative-scaling regression (0.77x on
a thread-based scheduler). ``cpu_count`` and the applied gate are recorded
in the JSON so no reader mistakes a floor pass for a speedup claim.

Usage:

    PYTHONPATH=src python benchmarks/bench_service.py          # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_service.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cnf import CnfFormula  # noqa: E402
from repro.generators.pigeonhole import pigeonhole  # noqa: E402
from repro.service import (  # noqa: E402
    CheckDaemon,
    JobStore,
    Scheduler,
    ServiceClient,
    ShardedJobStore,
    VerdictCache,
    discover_shard_journals,
    submit_job,
)
from repro.cnf.dimacs import write_dimacs_file  # noqa: E402
from repro.solver import solve_formula  # noqa: E402
from repro.trace.io import open_trace_writer  # noqa: E402

#: The warm-cache check must be at least this many times faster than cold.
SPEEDUP_GATE = 10.0

#: Required 4-worker/1-worker jobs/s ratio when the host has >= 4 cores.
SCALING_GATE = 3.0

#: On hosts with < 4 cores a parallel speedup is physically impossible;
#: the gate degrades to "adding workers must not make the service slower"
#: (the seed regressed to 0.77x, so 0.9 catches it with margin).
MONOTONICITY_FLOOR = 0.9


def effective_scaling_gate(cpu_count: int, quick: bool) -> float:
    if cpu_count >= 4:
        return SCALING_GATE if not quick else 1.0
    return MONOTONICITY_FLOOR


def prepare(pigeons: int, holes: int, tmp_dir: str) -> tuple[CnfFormula, str, str]:
    formula = pigeonhole(pigeons, holes)
    cnf = os.path.join(tmp_dir, f"php_{pigeons}_{holes}.cnf")
    write_dimacs_file(formula, cnf)
    path = os.path.join(tmp_dir, f"php_{pigeons}_{holes}.rtb")
    writer = open_trace_writer(path, fmt="binary")
    result = solve_formula(formula, trace_writer=writer)
    writer.close()
    if result.status != "UNSAT":
        raise SystemExit(f"php({pigeons},{holes}) did not come back UNSAT")
    return formula, cnf, path


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def journal_latencies(spool: str) -> list[float]:
    """Per-job RUNNING -> terminal latency, from the journal's own stamps."""
    started: dict[str, float] = {}
    latencies: list[float] = []
    for journal in discover_shard_journals(spool):
        for line in journal.read_text(encoding="utf-8").splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("event") != "state":
                continue
            if event["state"] == "RUNNING":
                started[event["job_id"]] = event["t"]
            elif event["state"] in ("DONE", "FAILED") and event["job_id"] in started:
                latencies.append(event["t"] - started.pop(event["job_id"]))
    return latencies


def latency_row(spool: str) -> dict:
    latencies = sorted(journal_latencies(spool))
    return {
        "latency_p50_s": round(percentile(latencies, 0.50), 6),
        "latency_p90_s": round(percentile(latencies, 0.90), 6),
        "latency_p99_s": round(percentile(latencies, 0.99), 6),
    }


def bench_cache(formula: CnfFormula, trace: str, tmp_dir: str, repeats: int) -> dict:
    """Best-of cold and warm times for one instance, one cache each round."""
    cold_s = warm_s = float("inf")
    for round_index in range(repeats):
        cache_dir = os.path.join(tmp_dir, f"cache-{round_index}")
        client = ServiceClient(cache=VerdictCache(cache_dir))
        start = time.perf_counter()
        cold = client.check(formula, trace, method="bf")
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        warm = client.check(formula, trace, method="bf")
        warm_s = min(warm_s, time.perf_counter() - start)
        if not (cold.verified and warm.verified and warm.from_cache):
            raise SystemExit("cache benchmark run did not verify or did not hit")
    return {
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else float("inf"),
    }


def bench_cold_throughput(
    cnf: str,
    trace: str,
    tmp_dir: str,
    jobs_per_worker: int,
    worker_counts: tuple[int, ...],
) -> list[dict]:
    """Distinct-key jobs, cache off: every job is a full resolution check.

    The job count scales with the worker count so every configuration
    keeps its workers saturated for the same wall-span of work per
    worker — comparing jobs/s across rows is then a statement about the
    execution layer, not about batch-size amortization.
    """
    rows = []
    for workers in worker_counts:
        num_jobs = jobs_per_worker * workers
        spool = os.path.join(tmp_dir, f"spool-w{workers}")
        for job_index in range(num_jobs):
            # Distinct timeouts make distinct content keys: no dedup, no
            # cache sharing between jobs.
            submit_job(spool, cnf, trace, {"method": "bf", "timeout": 3600.0 + job_index})
        daemon = CheckDaemon(spool, num_workers=workers, use_cache=False)
        start = time.perf_counter()
        daemon.run_once()
        elapsed = time.perf_counter() - start
        counts = daemon.store.counts()
        if counts["DONE"] != num_jobs:
            raise SystemExit(f"throughput run left jobs undone: {counts}")
        rows.append(
            {
                "workers": workers,
                "jobs": num_jobs,
                "elapsed_s": round(elapsed, 6),
                "jobs_per_s": round(num_jobs / elapsed, 2),
                **latency_row(spool),
            }
        )
    return rows


def bench_warm_throughput(
    cnf: str, trace: str, tmp_dir: str, num_jobs: int, workers: int
) -> dict:
    """Identical jobs, cache on: one real check, the rest served from cache.

    Submitted straight into a JobStore (the spool's dedup would collapse
    identical submissions into one job, which is the *other* answer to
    duplicate work — here the point is to measure verdict-serving rate).
    """
    root = Path(tmp_dir) / "warm-population"
    store = JobStore(root / "journal.jsonl")
    client = ServiceClient(cache=VerdictCache(root / "cache", batch_size=16))
    scheduler = Scheduler(store, client, num_workers=workers)
    for _ in range(num_jobs):
        store.submit(cnf, trace, {"method": "bf"})
    start = time.perf_counter()
    scheduler.drain()
    elapsed = time.perf_counter() - start
    served = scheduler.metrics.counter("jobs.served_from_cache").value
    done = scheduler.metrics.counter("jobs.done").value
    store.close()
    if done != num_jobs:
        raise SystemExit(f"warm population left jobs undone: {done}/{num_jobs}")
    return {
        "workers": workers,
        "jobs": num_jobs,
        "served_from_cache": served,
        "elapsed_s": round(elapsed, 6),
        "jobs_per_s": round(num_jobs / elapsed, 2),
    }


def bench_sharded_drill(cnf: str, trace: str, tmp_dir: str, num_jobs: int) -> dict:
    """Two serve --once instances, disjoint shards, one spool: exactly once."""
    spool = os.path.join(tmp_dir, "spool-sharded")
    for job_index in range(num_jobs):
        submit_job(spool, cnf, trace, {"method": "bf", "timeout": 7200.0 + job_index})
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", spool,
             "--once", "--workers", "1", "--shards", "2", "--own", str(own)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        for own in (0, 1)
    ]
    codes = [proc.wait(timeout=600) for proc in procs]
    elapsed = time.perf_counter() - start
    if any(codes):
        raise SystemExit(f"sharded drill instances exited with {codes}")
    store = ShardedJobStore(spool, num_shards=2, readonly=True)
    jobs = store.jobs()
    per_shard = {0: 0, 1: 0}
    for job in jobs:
        if job.state.value != "DONE" or job.attempts != 1:
            raise SystemExit(
                f"sharded drill violated exactly-once: {job.job_id} "
                f"{job.state.value} attempts={job.attempts}"
            )
        per_shard[int(job.job_id.split("-")[1][1:])] += 1
    if len(jobs) != num_jobs:
        raise SystemExit(f"sharded drill lost jobs: {len(jobs)}/{num_jobs}")
    return {
        "instances": 2,
        "shards": 2,
        "jobs": num_jobs,
        "jobs_per_shard": [per_shard[0], per_shard[1]],
        "elapsed_s": round(elapsed, 6),
        "exactly_once": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: small instance, no JSON")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument("--out", default="results/BENCH_service.json")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    if args.quick:
        cache_instances = [(6, 5)]
        repeats = args.repeats or 2
        jobs_per_worker, worker_counts = 2, (1, 4)
        warm_jobs, drill_jobs = 6, 4
    else:
        cache_instances = [(8, 7), (9, 8)]
        repeats = args.repeats or 5
        jobs_per_worker, worker_counts = 4, (1, 2, 4)
        warm_jobs, drill_jobs = 12, 8
    scaling_gate = effective_scaling_gate(cpu_count, args.quick)

    cache_rows = []
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp_dir:
        for pigeons, holes in cache_instances:
            formula, cnf, trace = prepare(pigeons, holes, tmp_dir)
            row = {
                "instance": f"php({pigeons},{holes})",
                "num_vars": formula.num_vars,
                "num_clauses": formula.num_clauses,
                **bench_cache(formula, trace, tmp_dir, repeats),
            }
            cache_rows.append(row)
            print(
                f"== {row['instance']}: cold {row['cold_s']:.4f}s  "
                f"warm {row['warm_s']:.6f}s  speedup {row['speedup']:.0f}x"
            )

        # Throughput over the largest prepared instance.
        throughput_rows = bench_cold_throughput(
            cnf, trace, tmp_dir, jobs_per_worker, worker_counts
        )
        for row in throughput_rows:
            print(
                f"== cold queue: {row['jobs']} jobs @ "
                f"{row['workers']} worker(s): {row['elapsed_s']:.3f}s  "
                f"({row['jobs_per_s']:.1f} jobs/s, p50 {row['latency_p50_s']:.3f}s, "
                f"p99 {row['latency_p99_s']:.3f}s)"
            )
        warm_row = bench_warm_throughput(cnf, trace, tmp_dir, warm_jobs, workers=2)
        print(
            f"== warm queue: {warm_row['jobs']} jobs, "
            f"{warm_row['served_from_cache']} from cache: "
            f"{warm_row['elapsed_s']:.3f}s ({warm_row['jobs_per_s']:.1f} jobs/s)"
        )
        drill_row = bench_sharded_drill(cnf, trace, tmp_dir, drill_jobs)
        print(
            f"== sharded drill: {drill_row['jobs']} jobs over "
            f"{drill_row['instances']} instances "
            f"({drill_row['jobs_per_shard']} per shard), exactly-once: "
            f"{drill_row['exactly_once']}"
        )

    base = next(r for r in throughput_rows if r["workers"] == worker_counts[0])
    peak = next(r for r in throughput_rows if r["workers"] == worker_counts[-1])
    scaling = peak["jobs_per_s"] / base["jobs_per_s"] if base["jobs_per_s"] else 0.0
    gated_speedup = cache_rows[-1]["speedup"]

    if not args.quick:
        payload = {
            "benchmark": "checking service: verdict cache, worker scaling, shard drill",
            "quick": False,
            "repeats": repeats,
            "cpu_count": cpu_count,
            "gate_speedup": SPEEDUP_GATE,
            "gated_speedup": gated_speedup,
            "scaling_gate": scaling_gate,
            "scaling_gate_kind": (
                "parallel-speedup" if scaling_gate >= SCALING_GATE else "monotonicity-floor"
            ),
            "scaling_achieved": round(scaling, 2),
            "cache": cache_rows,
            "throughput": throughput_rows,
            "warm_throughput": warm_row,
            "sharded_drill": drill_row,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out} (warm-cache speedup: {gated_speedup:.0f}x)")

    failed = False
    if gated_speedup < SPEEDUP_GATE:
        print(
            f"FAIL: warm-cache speedup {gated_speedup:.1f}x is below the "
            f"{SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = True
    if scaling < scaling_gate:
        print(
            f"FAIL: {peak['workers']}-worker throughput is {scaling:.2f}x the "
            f"1-worker rate, below the {scaling_gate:.1f}x gate "
            f"(cpu_count={cpu_count})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"gates passed: warm-cache {gated_speedup:.0f}x >= {SPEEDUP_GATE:.0f}x; "
        f"scaling {scaling:.2f}x >= {scaling_gate:.1f}x "
        f"({peak['workers']} vs 1 worker on {cpu_count} core(s))"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
