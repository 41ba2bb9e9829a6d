"""Before/after benchmark for the resolution kernel overhaul.

Measures, in one run:

* **decode** — the binary trace hot loop, the byte-at-a-time reference
  decoder (``tests/trace/reference_decoder.py``) vs the batched chunk
  decoder;
* **resolve** — chain resolution over the in-memory trace, frozenset
  reference engine vs the marking-array kernel (with an oracle gate: the
  kernel's resolvent must equal the reference's on every chain);
* **end-to-end** — each checker mode (bf / df / hybrid) run old-style
  (reference engine + byte-at-a-time decoder) and new-style (kernel +
  batched decoder) against the same traces, plus a per-phase breakdown
  for the breadth-first checker (decode vs resolve vs bookkeeping).

Usage:

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full, writes JSON
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # CI smoke

Exits non-zero if the kernel ever disagrees with the frozenset oracle, or
if any checker run fails to verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.checker import (  # noqa: E402
    BreadthFirstChecker,
    DepthFirstChecker,
    HybridChecker,
)
from repro.checker.kernel import KernelEngine, ReferenceEngine  # noqa: E402
from repro.cnf import CnfFormula  # noqa: E402
from repro.generators.pigeonhole import pigeonhole  # noqa: E402
from repro.solver import solve_formula  # noqa: E402
from repro.trace import binary_format, io as trace_io  # noqa: E402
from repro.trace.io import load_trace, open_trace_writer  # noqa: E402
from repro.trace.records import LearnedClause, Trace  # noqa: E402
from tests.trace.reference_decoder import iter_binary_records_unbatched  # noqa: E402


def best_of(repeats: int, fn, *args):
    """Run ``fn`` ``repeats`` times; return (best_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def best_of_pair(repeats: int, fn_a, fn_b):
    """Interleaved best-of timing for an A/B pair.

    Alternating the two sides within each repeat keeps machine noise from
    landing on one side only and skewing the reported ratio.
    """
    a_s = b_s = float("inf")
    a_r = b_r = None
    for _ in range(repeats):
        start = time.perf_counter()
        a_r = fn_a()
        a_s = min(a_s, time.perf_counter() - start)
        start = time.perf_counter()
        b_r = fn_b()
        b_s = min(b_s, time.perf_counter() - start)
    return a_s, a_r, b_s, b_r


def prepare(pigeons: int, holes: int, tmp_dir: str) -> tuple[CnfFormula, str, Trace]:
    formula = pigeonhole(pigeons, holes)
    path = os.path.join(tmp_dir, f"php_{pigeons}_{holes}.rtb")
    writer = open_trace_writer(path, fmt="binary")
    result = solve_formula(formula, trace_writer=writer)
    writer.close()
    if result.status != "UNSAT":
        raise SystemExit(f"php({pigeons},{holes}) did not come back UNSAT")
    return formula, path, load_trace(path)


# -- phase: decode -----------------------------------------------------------


def bench_decode(path: str, repeats: int) -> dict:
    def drain_legacy():
        return sum(1 for _ in iter_binary_records_unbatched(path))

    def drain_batched():
        return sum(1 for _ in binary_format.iter_binary_records(path))

    legacy_s, n_legacy, batched_s, n_batched = best_of_pair(
        repeats, drain_legacy, drain_batched
    )
    if n_legacy != n_batched:
        raise SystemExit(
            f"decoder disagreement: legacy saw {n_legacy} records, "
            f"batched saw {n_batched}"
        )
    return {
        "records": n_legacy,
        "legacy_s": round(legacy_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(legacy_s / batched_s, 2) if batched_s else None,
    }


# -- phase: resolve ----------------------------------------------------------


def _replay_chains(engine, trace: Trace) -> list:
    """Re-derive every learned clause, keeping everything resident."""
    built = {}

    def get_clause(cid):
        clause = built.get(cid)
        if clause is None:
            clause = engine.original(cid)
            built[cid] = clause
        return clause

    out = []
    for record in trace.learned.values():
        clause = engine.chain(record.cid, record.sources, get_clause)
        built[record.cid] = clause
        out.append(clause)
    return out


def bench_resolve(formula: CnfFormula, trace: Trace, repeats: int) -> dict:
    reference_s, ref_clauses, kernel_s, kernel_clauses = best_of_pair(
        repeats,
        lambda: _replay_chains(ReferenceEngine(formula), trace),
        lambda: _replay_chains(KernelEngine(formula), trace),
    )
    # Oracle gate: the kernel must agree with the frozenset reference on
    # every derived clause.
    mismatches = 0
    for ref, ker in zip(ref_clauses, kernel_clauses):
        if frozenset(ker) != ref:
            mismatches += 1
    if mismatches:
        raise SystemExit(
            f"ORACLE DISAGREEMENT: kernel differs from frozenset reference "
            f"on {mismatches}/{len(ref_clauses)} chains"
        )
    return {
        "chains": len(ref_clauses),
        "reference_s": round(reference_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(reference_s / kernel_s, 2) if kernel_s else None,
    }


# -- phase: end-to-end -------------------------------------------------------


def _make_checker(mode: str, formula: CnfFormula, path: str, use_kernel: bool):
    if mode == "bf":
        if use_kernel:
            return BreadthFirstChecker(formula, path)
        # The old decoder has no fused extent/count scan. A count chunk
        # spanning every clause ID keeps BF on its record-streaming
        # passes with the same single counting pass.
        return BreadthFirstChecker(
            formula, path, use_kernel=False, count_chunk_size=sys.maxsize
        )
    if mode == "df":
        return DepthFirstChecker(formula, load_trace(path), use_kernel=use_kernel)
    if mode == "hybrid":
        return HybridChecker(formula, path, use_kernel=use_kernel)
    raise ValueError(mode)


def bench_end_to_end(formula: CnfFormula, path: str, repeats: int, modes) -> dict:
    results = {}
    for mode in modes:
        def run_old():
            # Every trace-file read goes through the byte-at-a-time decoder.
            with mock.patch.object(
                trace_io, "iter_binary_records", iter_binary_records_unbatched
            ):
                return _make_checker(mode, formula, path, use_kernel=False).check()

        def run_new():
            report = _make_checker(mode, formula, path, use_kernel=True).check()
            return report

        # Interleave the old/new timings so a noisy stretch of machine
        # time degrades both sides alike instead of skewing the ratio.
        old_s = new_s = float("inf")
        old_report = new_report = None
        for _ in range(repeats):
            start = time.perf_counter()
            old_report = run_old()
            old_s = min(old_s, time.perf_counter() - start)
            start = time.perf_counter()
            new_report = run_new()
            new_s = min(new_s, time.perf_counter() - start)
        for label, report in (("old", old_report), ("new", new_report)):
            if not report.verified:
                raise SystemExit(f"{mode}/{label} failed to verify: {report.failure}")
        if old_report.clauses_built != new_report.clauses_built:
            raise SystemExit(
                f"{mode}: old built {old_report.clauses_built} clauses, "
                f"new built {new_report.clauses_built}"
            )
        results[mode] = {
            "old_s": round(old_s, 6),
            "new_s": round(new_s, 6),
            "speedup": round(old_s / new_s, 2) if new_s else None,
            "clauses_built": new_report.clauses_built,
            "peak_units": new_report.peak_memory_units,
        }
    return results


def bf_breakdown(end_to_end: dict, decode: dict, resolve: dict) -> dict:
    """Split the BF checker's new-path time into decode / resolve /
    bookkeeping. BF streams the trace three times (extent, counting,
    checking), so decode is charged 3x."""
    total = end_to_end["bf"]["new_s"]
    decode_s = 3 * decode["batched_s"]
    resolve_s = resolve["kernel_s"]
    return {
        "total_s": round(total, 6),
        "decode_s": round(decode_s, 6),
        "resolve_s": round(resolve_s, 6),
        "bookkeeping_s": round(max(0.0, total - decode_s - resolve_s), 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: small instance, no JSON")
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument("--out", default="results/BENCH_kernel.json")
    args = parser.parse_args(argv)

    if args.quick:
        instances = [(6, 5)]
        repeats = args.repeats or 1
        modes = ["bf", "df"]
    else:
        instances = [(8, 7), (9, 8)]
        # Best-of-9 keeps the old/new ratio stable to within a few percent
        # on a noisy machine; interleaving (best_of_pair) does the rest.
        repeats = args.repeats or 9
        modes = ["bf", "df", "hybrid"]

    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-kernel-") as tmp_dir:
        for pigeons, holes in instances:
            formula, path, trace = prepare(pigeons, holes, tmp_dir)
            decode = bench_decode(path, repeats)
            resolve = bench_resolve(formula, trace, repeats)
            end_to_end = bench_end_to_end(formula, path, repeats, modes)
            row = {
                "instance": f"php({pigeons},{holes})",
                "num_vars": formula.num_vars,
                "num_clauses": formula.num_clauses,
                "num_learned": trace.num_learned,
                "trace_bytes": os.path.getsize(path),
                "decode": decode,
                "resolve": resolve,
                "end_to_end": end_to_end,
                "bf_breakdown": bf_breakdown(end_to_end, decode, resolve),
            }
            rows.append(row)
            print(f"== {row['instance']}: {trace.num_learned} learned, "
                  f"{row['trace_bytes']} bytes")
            print(f"   decode  legacy {decode['legacy_s']:.4f}s  "
                  f"batched {decode['batched_s']:.4f}s  ({decode['speedup']}x)")
            print(f"   resolve reference {resolve['reference_s']:.4f}s  "
                  f"kernel {resolve['kernel_s']:.4f}s  ({resolve['speedup']}x)")
            for mode, stats in end_to_end.items():
                print(f"   e2e {mode:8s} old {stats['old_s']:.4f}s  "
                      f"new {stats['new_s']:.4f}s  ({stats['speedup']}x)")

    print("oracle gate: kernel == frozenset reference on every chain")
    if not args.quick:
        worst_bf = min(row["end_to_end"]["bf"]["speedup"] for row in rows)
        payload = {
            "benchmark": "resolution kernel overhaul",
            "quick": False,
            "repeats": repeats,
            "worst_bf_speedup": worst_bf,
            "rows": rows,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out} (worst BF end-to-end speedup: {worst_bf}x)")
        if worst_bf < 2.0:
            print("WARNING: BF speedup below the 2x target", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
