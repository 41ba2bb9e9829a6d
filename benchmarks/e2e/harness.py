"""Command line, round scheduling and metrics of the end-to-end benchmark.

The parent process draws the run's fixtures from the pools (built on the
first run in a checkout), then runs every workload as :data:`ROUNDS`
short rounds, each in a fresh child process, interleaved
W1, W2, ..., W1, W2, ... so that a slow stretch of the host hits every
workload. Nothing runs in parallel. The gated times are scaled to the
baseline host's speed (:mod:`.reference`) and pooled over all rounds:
latency per input, then over inputs; rates over the whole check time.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload trace-bf --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1             # all workloads
    python3 benchmarks/e2e/run.py --trace 1            # per-layer metrics
    python3 benchmarks/e2e/run.py --sweep              # service capacity
    python3 benchmarks/e2e/run.py --smoke              # tiny, for the self-test

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable table goes to
standard error and the full record (fixture manifest, per-round
statistics, host) to ``<out>/result.json``. The exit code is 1 when any verdict
differs from the input's known answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import spans
from .fixtures import POPULATIONS, REPO_ROOT, SMOKE_POPULATIONS, ensure_pool, manifest, select
from .reference import scaled
from .workloads import POPULATION_OF, SERVICE_RATE, WORKLOADS, child_main

DEFAULT_SECONDS = 20.0
#: Child processes (rounds) per workload and run.
ROUNDS = 4
SMOKE_SECONDS = 1.0
SMOKE_ROUNDS = 2
#: Extra time a round's child may take beyond its measured seconds.
CHILD_GRACE_S = 60.0
POOL_ROOT = REPO_ROOT / ".bench_e2e" / "pool"

SWEEP_RATES = (10, 20, 30, 40, 60, 80, 100)
SWEEP_ROUND_S = 2.0
SWEEP_P98_LIMIT_S = 0.25
#: A round's backlog grows when its last quarter of jobs waited this much
#: longer (median) than its first quarter, or some job never finished.
SWEEP_BACKLOG_S = 0.05

#: The gated metrics. Their times are scaled to the baseline host's speed
#: (:mod:`.reference`); ``details`` has the wall times and percentiles.
E2E_METRICS = (
    ("setup_s", "s"),
    ("check_latency_gmean_ms", "ms"),
    ("lemmas_per_s", "lemmas/s"),
    ("peak_rss_mb", "MB"),
)

LAYER_METRICS = tuple((f"{layer}.self_pct", "%") for layer in spans.LAYERS) + (
    ("trace.scan.calls", "count"),
    ("trace.decode.records", "count"),
    ("checker.kernel.chain.calls", "count"),
    ("checker.kernel.resolutions", "count"),
    ("checker.streaming.spilled_clauses", "count"),
    ("checker.streaming.reloaded_clauses", "count"),
    ("checker.streaming.peak_resident_units", "count"),
    ("checker.streaming.reload_ratio", "%"),
    ("checker.streaming.unspilled_inputs", "count"),
    ("checker.unitprop.propagate.calls", "count"),
    ("checker.unitprop.db.calls", "count"),
    ("proofs.parser.steps", "count"),
    ("proofs.drat.verified_fraction", "%"),
    ("proofs.drat.rat_lemmas", "count"),
    ("service.fingerprint.calls", "count"),
    ("service.cache.hit_ratio", "%"),
    ("service.jobs.queue_wait_pct", "%"),
    ("service.pool.worker_check_pct", "%"),
    ("service.overhead_pct", "%"),
    ("service.pool.retries", "count"),
    ("service.pool.crashes", "count"),
    ("harness.generator_lag_pct", "%"),
    ("harness.generator_lag_max_pct", "%"),
    ("harness.trace_overhead", "%"),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny populations, short rounds")
    parser.add_argument("--sweep", action="store_true",
                        help="service-mixed capacity at %s jobs/s" % "/".join(map(str, SWEEP_RATES)))
    parser.add_argument("--out", default=str(REPO_ROOT / ".bench_e2e" / "out"),
                        help="directory for result.json and spans.jsonl")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser


def _terminate(signum, frame):
    # Unwind instead of dying at once, so that round children are killed
    # and waited for, the service is stopped and work files are removed.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.child:
        return child_main(args.child)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    populations = SMOKE_POPULATIONS if args.smoke else POPULATIONS
    if args.sweep:
        selected = ("service-mixed",)
    elif args.workload == "all":
        selected = WORKLOADS
    else:
        selected = (args.workload,)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work = REPO_ROOT / ".bench_e2e" / f"work-{os.getpid()}"
    # Streaming spill files and other temporary files stay in the checkout.
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        # Every pool is built on the first run in a checkout, whichever
        # workload it selects, so that later runs only read them.
        started = time.perf_counter()
        pool_root = POOL_ROOT / "smoke" if args.smoke else POOL_ROOT
        pools = {name: ensure_pool(name, population, pool_root)
                 for name, population in populations.items()}
        pool_s = time.perf_counter() - started
        inputs = {}
        for name, population in populations.items():
            fixtures = select(name, population, pools[name], args.seed)
            inputs[name] = (fixtures, manifest(name, population, args.seed, fixtures))
        if args.sweep:
            return _sweep(args.seed, seconds, inputs["service"], work, out)
        runs: dict[str, list[dict]] = {workload: [] for workload in selected}
        for number in range(rounds):
            for workload in selected:
                fixtures = inputs[POPULATION_OF[workload]][0]
                runs[workload].append(
                    _run_child(workload, number, fixtures, seconds / rounds,
                               args.trace, args.seed, SERVICE_RATE, work)
                )
        if args.trace:
            _merge_span_logs(runs, out / "spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "rounds": rounds,
        "smoke": args.smoke,
        "host": host_info(),
        "workloads": {},
    }
    lines = []
    for workload in selected:
        fixtures, fixture_manifest = inputs[POPULATION_OF[workload]]
        summary = summarize(workload, fixtures, runs[workload], args.trace)
        summary["details"]["pool_s"] = pool_s
        summary["manifest"] = fixture_manifest
        record["workloads"][workload] = summary
        lines.append(_result_line(summary, LAYER_METRICS if args.trace else E2E_METRICS))
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_table(record)
    if len(lines) > 1:
        lines.append({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{workload}/{name}": value
                for workload, line in zip(selected, lines)
                for name, value in line["metrics"].items()
            },
        })
    for line in lines:
        print(json.dumps(line), flush=True)
    return 0 if lines[-1]["correct"] else 1


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- rounds ------------------------------------------------------------------


def _run_child(workload, number, fixtures, seconds, trace, seed, rate, work: Path) -> dict:
    directory = work / f"{workload}-round{number}-rate{rate:g}"
    directory.mkdir(parents=True, exist_ok=True)
    spec = {
        "workload": workload,
        "round": number,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "rate": rate,
        "fixtures": [asdict(fixture) for fixture in fixtures],
        "workdir": str(directory),
        "spans_path": str(directory / "spans.jsonl"),
        "result_path": str(directory / "result.json"),
    }
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT), str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--child", str(spec_path)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds + CHILD_GRACE_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} round {number} exited {completed.returncode}:\n"
            + completed.stderr[-4000:]
        )
    result = json.loads(Path(spec["result_path"]).read_text())
    result["spawned"] = spawned
    result["spans_path"] = spec["spans_path"]
    return result


def _merge_span_logs(runs: dict[str, list[dict]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as merged:
        for workload, results in runs.items():
            for number, result in enumerate(results):
                with open(result["spans_path"], encoding="utf-8") as handle:
                    for line in handle:
                        span = json.loads(line)
                        span["workload"] = workload
                        span["round"] = number
                        merged.write(json.dumps(span) + "\n")


# -- metrics -----------------------------------------------------------------


def _samples(workload: str, halves: list[dict]) -> list[dict]:
    key = "jobs" if workload == "service-mixed" else "ops"
    return [sample for half in halves for sample in half[key]]


def _answered(workload: str, sample: dict) -> bool:
    """Whether the request ended with a verdict: a closed-loop check that
    raised did not, nor did a service job that failed or never finished."""
    if workload == "service-mixed":
        return sample["state"] == "DONE" and "settle" in sample
    return "error" not in sample


def _latency(workload: str, sample: dict, scale: bool = False) -> float:
    """A request's latency in seconds of wall time, or with ``scale`` at
    the baseline host's speed (:func:`.reference.scaled`)."""
    if workload == "service-mixed":
        latency = sample["settle"] - sample["due"]
    else:
        latency = sample["lat"]
    return scaled(latency, sample["ref"]) if scale else latency


def _latencies(
    workload: str, halves: list[dict], checked: bool = False, scale: bool = False
) -> list[float]:
    """Latencies of the answered requests of ``halves``, as :func:`_latency`
    gives them; with ``checked``, only of those answered by a check, not
    from the cache."""
    return [
        _latency(workload, sample, scale)
        for sample in _samples(workload, halves)
        if _answered(workload, sample) and not (checked and sample.get("from_cache"))
    ]


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def _lemmas(workload: str, fixtures, samples: list[dict]) -> int:
    """Lemmas of the positive inputs answered by a check. Cache hits check
    nothing and requests without a verdict answered nothing."""
    return sum(
        fixtures[sample["i"]].lemmas for sample in samples
        if fixtures[sample["i"]].expect and _answered(workload, sample)
        and not sample.get("from_cache")
    )


def _round_rate(workload: str, fixtures, half: dict) -> float:
    """Lemmas (:func:`_lemmas`) per second of the round's wall time, which
    requests without lemmas take too. Reported in ``details`` only."""
    samples = _samples(workload, [half])
    if workload == "service-mixed":
        ended = [job["settle"] for job in samples if "settle" in job]
        if not ended:
            return 0.0
        wall = max(ended) - min(job["due"] for job in samples)
    else:
        wall = max(op["start"] + op["lat"] for op in samples) - min(op["start"] for op in samples)
    return _lemmas(workload, fixtures, samples) / wall


def _scaled_rate(workload: str, fixtures, halves: list[dict]) -> float:
    """Lemmas (:func:`_lemmas`) per second of scaled check time, pooled
    over ``halves``: the requests' latencies on a closed loop, the worker's
    reported check time of every job it checked on the service. On the
    service the wall time is set by the offered rate, not by the program."""
    samples = _samples(workload, halves)
    if workload == "service-mixed":
        busy = sum(scaled(job["check_s"], job["ref"]) for job in samples if not job["from_cache"])
    else:
        busy = sum(scaled(op["lat"], op["ref"]) for op in samples)
    return _lemmas(workload, fixtures, samples) / busy if busy else 0.0


def _latency_gmean(workload: str, fixtures, halves: list[dict]) -> float:
    """Geometric mean over the positive inputs of each input's median
    scaled latency in seconds, counting the requests answered by a check.

    Every input weighs the same whatever its size, and the value moves
    smoothly with each input's latency; the median of the pooled samples
    instead jumps between the latencies of the few distinct inputs."""
    grouped: dict[int, list[float]] = {}
    for sample in _samples(workload, halves):
        if (fixtures[sample["i"]].expect and _answered(workload, sample)
                and not sample.get("from_cache")):
            grouped.setdefault(sample["i"], []).append(_latency(workload, sample, scale=True))
    return statistics.geometric_mean(statistics.median(values) for values in grouped.values())


def _setups(workload: str, runs: list[dict], scale: bool) -> list[float]:
    """Each round's spawn-to-ready time; with ``scale``, scaled by the
    median reference timing of its requests, the nearest to its set-up."""
    setups = []
    for run in runs:
        setup = run["ready"] - run["spawned"]
        if scale:
            setup = scaled(setup, statistics.median(
                sample["ref"] for sample in _samples(workload, run["halves"])
            ))
        setups.append(setup)
    return setups


def summarize(workload: str, fixtures, runs: list[dict], trace: int) -> dict:
    all_halves = [half for run in runs for half in run["halves"]]
    attempted = failed = wrong = 0
    rejected_negatives = negatives = 0
    for sample in _samples(workload, all_halves):
        attempted += 1
        expect = fixtures[sample["i"]].expect
        if not _answered(workload, sample):
            failed += 1
            continue
        if sample["verified"] != expect:
            wrong += 1
        if not expect:
            negatives += 1
            rejected_negatives += not sample["verified"]

    untraced = [half for half in all_halves if not half["traced"]]
    latencies = _latencies(workload, untraced, checked=True)
    wall_p50, wall_p90 = _quantiles(latencies)
    p50, p90 = _quantiles(_latencies(workload, untraced, checked=True, scale=True))
    rates = [_round_rate(workload, fixtures, half) for half in untraced]
    setups = _setups(workload, runs, scale=True)
    round_quantiles = [
        _quantiles(_latencies(workload, [half], checked=True)) for half in untraced
    ]
    details = {
        "samples": len(latencies),
        "ref_ms": 1000 * statistics.median(
            sample["ref"] for sample in _samples(workload, untraced)
        ),
        "check_latency_p50_ms": 1000 * p50,
        "check_latency_p90_ms": 1000 * p90,
        "wall_check_latency_p50_ms": 1000 * wall_p50,
        "wall_check_latency_p90_ms": 1000 * wall_p90,
        "wall_lemmas_per_s": statistics.median(rates),
        "wall_setup_s": statistics.median(_setups(workload, runs, scale=False)),
        "round_wall_check_latency_p50_ms": [1000 * p50 for p50, _ in round_quantiles],
        "round_wall_check_latency_p90_ms": [1000 * p90 for _, p90 in round_quantiles],
        "round_wall_lemmas_per_s": rates,
        "round_setup_s": setups,
        "negatives_checked": negatives,
        "negatives_rejected": rejected_negatives,
    }
    if workload == "service-mixed":
        details.update(_service_details(_samples(workload, untraced)))
    summary = {
        "attempted": attempted,
        "failed": failed,
        "wrong_verdicts": wrong,
        "failed_share": failed / attempted if attempted else 0.0,
        "details": details,
    }
    if trace:
        summary["metrics"] = layer_metrics(workload, fixtures, all_halves)
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "check_latency_gmean_ms": 1000 * _latency_gmean(workload, fixtures, untraced),
            "lemmas_per_s": _scaled_rate(workload, fixtures, untraced),
            "peak_rss_mb": max(
                max(run["rss_self_kb"], run["rss_children_kb"]) for run in runs
            ) / 1024,
        }
    return summary


def _service_details(jobs: list[dict]) -> dict:
    done = [job for job in jobs if _answered("service-mixed", job)]
    hits = [job["settle"] - job["due"] for job in done if job["from_cache"]]
    misses = [job["settle"] - job["due"] for job in done if not job["from_cache"]]
    latencies = hits + misses
    return {
        "hit_latency_p50_ms": 1000 * statistics.median(hits) if hits else None,
        "job_latency_p50_ms": 1000 * statistics.median(latencies) if latencies else None,
        "job_latency_p98_ms": (
            1000 * statistics.quantiles(latencies, n=50)[48] if len(latencies) > 1 else None
        ),
        "hits": len(hits),
        "misses": len(misses),
        "generator_lag_max_ms": 1000 * max(job["submit"] - job["due"] for job in jobs),
    }


def layer_metrics(workload: str, fixtures, halves: list[dict]) -> dict:
    """Per-layer self time as a share of the traced requests' latency, plus
    per-request counts and ratios, from the traced halves."""
    traced = [half for half in halves if half["traced"]]
    untraced = [half for half in halves if not half["traced"]]
    totals: dict[str, dict[str, int]] = {}
    for half in traced:
        for layer, entry in half["spans"].items():
            merged = totals.setdefault(layer, {"calls": 0, "self_ns": 0, "items": 0})
            for key, value in entry.items():
                merged[key] += value
    service = workload == "service-mixed"
    samples = [sample for sample in _samples(workload, traced) if _answered(workload, sample)]
    latency_s = sum(_latency(workload, sample) for sample in samples)
    count = len(samples)

    def share(seconds: float) -> float:
        return 100.0 * seconds / latency_s

    def per_request(value: float) -> float:
        return value / count

    def layer(name: str, key: str) -> int:
        return totals.get(name, {}).get(key, 0)

    metrics = {f"{name}.self_pct": share(layer(name, "self_ns") / 1e9) for name in spans.LAYERS}
    stream = [op for op in samples if "spilled" in op]
    spilled = sum(op["spilled"] for op in stream)
    reloaded = sum(op["reloaded"] for op in stream)
    adds = sum(op.get("adds", 0) for op in samples)
    metrics.update({
        "trace.scan.calls": per_request(layer("trace.scan", "calls")),
        "trace.decode.records": per_request(layer("trace.decode", "items")),
        "checker.kernel.chain.calls": per_request(layer("checker.kernel.chain", "calls")),
        "checker.kernel.resolutions": per_request(sum(op.get("resolutions", 0) for op in samples)),
        "checker.streaming.spilled_clauses": per_request(spilled),
        "checker.streaming.reloaded_clauses": per_request(reloaded),
        "checker.streaming.peak_resident_units": max(
            (op["peak_resident"] for op in stream), default=0
        ),
        "checker.streaming.reload_ratio": 100.0 * reloaded / spilled if spilled else 0.0,
        "checker.streaming.unspilled_inputs": len({
            op["i"] for op in stream if fixtures[op["i"]].expect and op["spilled"] == 0
        }),
        "checker.unitprop.propagate.calls": per_request(layer("checker.unitprop.propagate", "calls")),
        "checker.unitprop.db.calls": per_request(layer("checker.unitprop.db", "calls")),
        "proofs.parser.steps": per_request(sum(op.get("steps", 0) for op in samples)),
        "proofs.drat.verified_fraction": (
            100.0 * sum(op.get("checked", 0) for op in samples) / adds if adds else 0.0
        ),
        "proofs.drat.rat_lemmas": per_request(sum(op.get("rat_lemmas", 0) for op in samples)),
        "service.fingerprint.calls": per_request(layer("service.fingerprint", "calls")),
    })
    service_metrics = dict.fromkeys(
        ("service.cache.hit_ratio", "service.jobs.queue_wait_pct",
         "service.pool.worker_check_pct", "service.overhead_pct",
         "service.pool.retries", "service.pool.crashes",
         "harness.generator_lag_pct", "harness.generator_lag_max_pct"),
        0.0,
    )
    if service:
        worker = sum(job["check_s"] for job in samples if not job["from_cache"])
        service_metrics.update({
            "service.cache.hit_ratio": 100.0 * sum(job["from_cache"] for job in samples) / count,
            "service.jobs.queue_wait_pct": share(sum(j["claim"] - j["submit"] for j in samples)),
            "service.pool.worker_check_pct": share(worker),
            "service.overhead_pct": share(sum(j["settle"] - j["claim"] for j in samples) - worker),
            "service.pool.retries": sum(half["pool"]["retries"] for half in traced),
            "service.pool.crashes": sum(half["pool"]["crashes"] for half in traced),
            "harness.generator_lag_pct": share(sum(j["submit"] - j["due"] for j in samples)),
            "harness.generator_lag_max_pct": 100.0 * max(
                (job["submit"] - job["due"]) * half["rate"]
                for half in traced for job in half["jobs"]
            ),
        })
    metrics.update(service_metrics)
    metrics["harness.trace_overhead"] = _trace_overhead(workload, traced, untraced)
    return metrics


def _trace_overhead(workload: str, traced: list[dict], untraced: list[dict]) -> float:
    """Traced over untraced scaled latency, in percent above 1.
    Closed loops compare per-input means, so both halves weigh the same
    inputs equally; the service compares mean job latency."""
    if workload == "service-mixed":
        ratio = statistics.fmean(_latencies(workload, traced, scale=True)) / statistics.fmean(
            _latencies(workload, untraced, scale=True)
        )
        return 100.0 * (ratio - 1.0)

    def means(halves):
        grouped: dict[int, list[float]] = {}
        for sample in _samples(workload, halves):
            grouped.setdefault(sample["i"], []).append(_latency(workload, sample, scale=True))
        return {index: statistics.fmean(values) for index, values in grouped.items()}

    with_spans, without = means(traced), means(untraced)
    shared = with_spans.keys() & without.keys()
    return 100.0 * (
        sum(with_spans[i] for i in shared) / sum(without[i] for i in shared) - 1.0
    )


def _result_line(summary: dict, declared) -> dict:
    return {
        "correct": summary["wrong_verdicts"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary["metrics"][name], "unit": unit} for name, unit in declared
        },
    }


def _print_table(record: dict) -> None:
    units = dict(E2E_METRICS + LAYER_METRICS)
    for workload, summary in record["workloads"].items():
        print(
            f"== {workload}: attempted {summary['attempted']}, failed {summary['failed']}, "
            f"wrong verdicts {summary['wrong_verdicts']}, "
            f"{summary['details']['samples']} latency samples",
            file=sys.stderr,
        )
        for name, value in summary["metrics"].items():
            print(f"   {name:42s} {value:14.4f} {units.get(name, '')}", file=sys.stderr)


# -- capacity sweep ----------------------------------------------------------


def _sweep(seed: int, seconds: float, inputs, work: Path, out: Path) -> int:
    """Step the service-mixed mix through fixed rates; report the highest
    rate whose p98 latency stays within the limit without a growing backlog."""
    fixtures, fixture_manifest = inputs
    rounds = max(1, round(seconds / SWEEP_ROUND_S))
    steps = {}
    attempted = failed = wrong = 0
    for rate in SWEEP_RATES:
        runs = [
            _run_child("service-mixed", number, fixtures, SWEEP_ROUND_S, 0, seed, float(rate), work)
            for number in range(rounds)
        ]
        summary = summarize("service-mixed", fixtures, runs, 0)
        p98 = summary["details"]["job_latency_p98_ms"]
        growing = any(_backlog_grows(run["halves"][0]["jobs"]) for run in runs)
        details = summary["details"]
        steps[rate] = {
            "hit_share": details["hits"] / (details["hits"] + details["misses"]),
            "job_latency_p98_ms": p98,
            "job_latency_p50_ms": summary["details"]["job_latency_p50_ms"],
            "growing_backlog": growing,
            "ok": (p98 is not None and p98 <= 1000 * SWEEP_P98_LIMIT_S
                   and not growing and summary["failed"] == 0),
        }
        attempted += summary["attempted"]
        failed += summary["failed"]
        wrong += summary["wrong_verdicts"]
        print(f"   {rate:3d} jobs/s  p98 {p98:8.1f} ms  growing backlog {growing}  "
              f"{'ok' if steps[rate]['ok'] else 'over'}", file=sys.stderr)
    best = max((rate for rate, step in steps.items() if step["ok"]), default=0)
    record = {"seed": seed, "seconds": seconds, "host": host_info(),
              "steps": steps, "max_rate_ok_jobs_s": best, "manifest": fixture_manifest}
    (out / "sweep.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    metrics = {"service.max_rate_ok_jobs_s": {"value": best, "unit": "jobs/s"}}
    for rate, step in steps.items():
        metrics[f"service.rate{rate}.latency_p98_ms"] = {
            "value": step["job_latency_p98_ms"], "unit": "ms"
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if wrong == 0 else 1


def _backlog_grows(jobs: list[dict]) -> bool:
    done = sorted((job for job in jobs if "settle" in job), key=lambda job: job["due"])
    if len(done) < len(jobs):
        return True
    quarter = max(1, len(done) // 4)
    first = statistics.median(job["settle"] - job["due"] for job in done[:quarter])
    last = statistics.median(job["settle"] - job["due"] for job in done[-quarter:])
    return last - first > SWEEP_BACKLOG_S
