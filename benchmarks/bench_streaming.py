"""Constant-memory gate for the shifting-window streaming checker.

The streaming tier's contract is *flat residency*: peak resident
clause-store size is a function of the ``--memory-window`` budget, not of
the trace. This benchmark generates chain+hub traces (``tools/gen_trace``)
at 1x / 3x / 10x sizes — the 10x fixture is more than ten times larger
than any trace previously benchmarked in ``results/`` — and gates:

* **flatness** — every size spills learned clauses (a size that fits
  the budget says nothing about flatness), streaming
  ``peak_resident_units`` stays within ``FLAT_RATIO`` of the smallest
  size and never exceeds the budget by more than ``BUDGET_SLACK`` units,
  while the breadth-first baseline's residency grows with the trace;
* **throughput** — streaming wall time on the medium fixture stays
  within ``TIME_RATIO`` of breadth-first;
* **ladder** — a supervised run with a starving ``memory_limit`` and
  ``streaming_threshold_bytes=0`` memory-outs the in-memory rungs and
  lands on the streaming tier, which verifies.

Usage:

    PYTHONPATH=src python benchmarks/bench_streaming.py          # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.checker import BreadthFirstChecker, StreamingWindowChecker  # noqa: E402
from repro.checker.supervisor import CheckSupervisor, SupervisorConfig  # noqa: E402
from repro.cnf import parse_dimacs_file  # noqa: E402
from tools.gen_trace import generate  # noqa: E402

#: Streaming resident-unit budget used for every sized run.
BUDGET_UNITS = 4096
#: Absolute overshoot the enforcement loop may leave: the in-flight
#: build and the sources it reloads, admitted before the window spills
#: back under the budget.
BUDGET_SLACK = 64
#: Max allowed max/min spread of streaming peak residency across sizes.
FLAT_RATIO = 1.25
#: Streaming wall time on the medium fixture vs breadth-first. Quick mode
#: uses a looser gate: on tiny fixtures the constant costs (mmap setup,
#: counting pass) dominate and the ratio is all noise — quick verifies
#: wiring, the full run verifies performance.
TIME_RATIO = 1.5
QUICK_TIME_RATIO = 2.5
#: The 10x fixture must be at least this many times larger than the
#: largest trace previously benchmarked into results/ (php(9,8)).
PRIOR_MAX_TRACE_BYTES = 387_973


def run_streaming(cnf: str, trace: str) -> tuple[float, dict]:
    formula = parse_dimacs_file(cnf)
    start = time.perf_counter()
    report = StreamingWindowChecker(formula, trace, memory_budget=BUDGET_UNITS).check()
    elapsed = time.perf_counter() - start
    if not report.verified:
        raise SystemExit(f"streaming failed on {trace}: {report.failure}")
    return elapsed, dict(report.memory or {})


def run_bf(cnf: str, trace: str) -> tuple[float, dict]:
    formula = parse_dimacs_file(cnf)
    start = time.perf_counter()
    report = BreadthFirstChecker(formula, trace).check()
    elapsed = time.perf_counter() - start
    if not report.verified:
        raise SystemExit(f"breadth-first failed on {trace}: {report.failure}")
    return elapsed, dict(report.memory or {})


def run_ladder(cnf: str, trace: str) -> dict:
    """Supervised check forced through the degradation ladder to streaming."""
    formula = parse_dimacs_file(cnf)
    config = SupervisorConfig(
        method="df",
        policy="fallback",
        memory_limit=BUDGET_UNITS,
        streaming_threshold_bytes=0,
    )
    report = CheckSupervisor(formula, trace, config=config).check()
    attempts = [
        {"method": a["method"], "outcome": a["outcome"]}
        for a in (report.degradation or ())
    ]
    if not report.verified:
        raise SystemExit(f"supervised ladder run failed: {report.failure}")
    if report.method != "streaming":
        raise SystemExit(
            f"ladder was expected to land on streaming, got {report.method!r} "
            f"(attempts: {attempts})"
        )
    if not any(a["outcome"] == "memory-out" for a in attempts[:-1]):
        raise SystemExit(
            f"no in-memory rung memory-outed before streaming: {attempts}"
        )
    return {
        "verified": report.verified,
        "final_method": report.method,
        "attempts": attempts,
        "peak_resident_units": (report.memory or {}).get("peak_resident_units"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: small sizes, no JSON")
    parser.add_argument("--out", default="results/BENCH_streaming.json")
    args = parser.parse_args(argv)

    # 1x / 3x / 10x chain lengths. The full 10x fixture decodes to ~6 MB
    # of binary trace with ~385k learned records. Every quick size, 1x
    # included, holds more live learned clauses than the budget.
    chains = [16000, 48000, 160000] if args.quick else [35000, 105000, 350000]

    rows = []
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-streaming-") as tmp_dir:
        fixtures = []
        for chain in chains:
            stats = generate(os.path.join(tmp_dir, f"chain_{chain}"), chain)
            fixtures.append(stats)
        if not args.quick:
            largest = fixtures[-1]["trace_bytes"]
            if largest < 10 * PRIOR_MAX_TRACE_BYTES:
                failures.append(
                    f"10x fixture is only {largest} bytes; needs >= "
                    f"{10 * PRIOR_MAX_TRACE_BYTES} to dwarf prior results/"
                )

        for scale, stats in zip(("1x", "3x", "10x"), fixtures):
            elapsed, memory = run_streaming(stats["cnf"], stats["trace"])
            row = {
                "scale": scale,
                "chain": stats["chain"],
                "num_learned": stats["num_learned"],
                "trace_bytes": stats["trace_bytes"],
                "streaming_s": round(elapsed, 4),
                "peak_resident_units": memory.get("peak_resident_units"),
                "peak_unique_clauses": memory.get("peak_unique_clauses"),
                "spilled_clauses": memory.get("spilled_clauses"),
                "reloaded_clauses": memory.get("reloaded_clauses"),
            }
            rows.append(row)
            print(
                f"== {scale}: {row['num_learned']} learned, "
                f"{row['trace_bytes']} bytes -> streaming {elapsed:.2f}s, "
                f"peak {row['peak_resident_units']} units "
                f"({row['peak_unique_clauses']} clauses), "
                f"{row['spilled_clauses']} spills"
            )

        # Flatness gates. A size whose learned clauses fit the budget
        # never exercises the window, so its peak proves nothing.
        for row in rows:
            if not row["spilled_clauses"]:
                failures.append(
                    f"{row['scale']} (chain {row['chain']}) spilled no learned "
                    f"clause under the {BUDGET_UNITS}-unit budget; flatness "
                    "is untested at that size"
                )
        peaks = [row["peak_resident_units"] for row in rows]
        if max(peaks) > BUDGET_UNITS + BUDGET_SLACK:
            failures.append(
                f"peak residency {max(peaks)} exceeds budget "
                f"{BUDGET_UNITS} + slack {BUDGET_SLACK}"
            )
        if max(peaks) > FLAT_RATIO * min(peaks):
            failures.append(
                f"peak residency not flat across sizes: {peaks} "
                f"(ratio > {FLAT_RATIO})"
            )

        # Throughput gate on the medium fixture, plus the BF residency
        # contrast (grows with the trace; streaming must not).
        medium = fixtures[1]
        bf_s, bf_memory = run_bf(medium["cnf"], medium["trace"])
        bf_peak = bf_memory.get("peak_unique_clauses")
        streaming_s = rows[1]["streaming_s"]
        ratio = streaming_s / bf_s if bf_s > 0 else float("inf")
        time_gate = QUICK_TIME_RATIO if args.quick else TIME_RATIO
        print(
            f"== medium: bf {bf_s:.2f}s ({bf_peak} resident clauses) vs "
            f"streaming {streaming_s:.2f}s "
            f"({rows[1]['peak_unique_clauses']} resident clauses), "
            f"ratio {ratio:.2f}"
        )
        if ratio > time_gate:
            failures.append(
                f"streaming {streaming_s:.2f}s is {ratio:.2f}x bf {bf_s:.2f}s "
                f"(gate {time_gate}x)"
            )
        if bf_peak is not None and bf_peak <= rows[1]["peak_unique_clauses"]:
            failures.append(
                "breadth-first residency should dwarf streaming's on the "
                f"hub family; got bf={bf_peak} vs streaming="
                f"{rows[1]['peak_unique_clauses']}"
            )

        # Ladder gate: the supervisor reaches the streaming tier under a
        # forced memory budget and verifies there.
        small = fixtures[0]
        ladder = run_ladder(small["cnf"], small["trace"])
        print(
            f"== ladder: {' -> '.join(a['method'] for a in ladder['attempts'])} "
            f"(final verified via {ladder['final_method']})"
        )

    if not args.quick:
        payload = {
            "benchmark": "streaming shifting-window checker",
            "budget_units": BUDGET_UNITS,
            "gates": {
                "flat_ratio": FLAT_RATIO,
                "budget_slack_units": BUDGET_SLACK,
                "time_ratio_vs_bf": TIME_RATIO,
            },
            "rows": rows,
            "medium_bf": {
                "bf_s": round(bf_s, 4),
                "peak_unique_clauses": bf_peak,
                "streaming_over_bf": round(ratio, 3),
            },
            "ladder": ladder,
            "failures": failures,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all streaming gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
