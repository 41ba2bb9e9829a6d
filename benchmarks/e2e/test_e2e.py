"""Self-test of the end-to-end benchmark: ``PYTHONPATH=src pytest benchmarks/e2e``.

Runs the benchmark in ``--smoke`` mode (tiny populations, short rounds),
once untraced and once traced, and checks the contract of its output.
Not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import fixtures, harness, reference, spans, workloads
from repro.cnf import parse_dimacs_file

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "3", "--out", str(out), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[int, tuple[list[dict], Path]]:
    runs = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp(f"trace{trace}")
        completed = _run(out, "--trace", str(trace))
        assert completed.returncode == 0, completed.stderr
        lines = [json.loads(line) for line in completed.stdout.splitlines()]
        runs[trace] = (lines, out)
    return runs


def test_workloads_are_the_declared_ones():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_are_the_declared_ones(smoke):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
        lines, _ = smoke[trace]
        per_workload = lines[:-1]
        assert len(per_workload) == len(workloads.WORKLOADS)
        for line in per_workload:
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in line["metrics"].items()}
            assert printed == declared


def test_every_span_maps_to_a_declared_layer_metric(smoke):
    declared = {entry["name"] for entry in BENCHMARK["per_layer"]}
    assert {f"{layer}.self_pct" for layer in spans.LAYERS} <= declared
    _, out = smoke[1]
    names = {json.loads(line)["name"] for line in (out / "spans.jsonl").open()}
    assert spans.ROOT in names and "service.jobs.submit" in names
    assert names <= set(spans.LAYERS)


def test_spans_nest_within_their_requests(smoke):
    _, out = smoke[1]
    logged = [json.loads(line) for line in (out / "spans.jsonl").open()]
    by_id = {(span["workload"], span["round"], span["id"]): span for span in logged}
    roots = 0
    for span in logged:
        assert span["start_ns"] <= span["end_ns"]
        parent = by_id.get((span["workload"], span["round"], span["parent"]))
        if span["name"] == spans.ROOT:
            roots += 1
            assert parent is None and span["request"] is not None
        if parent is not None:
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
            assert (parent["thread"], parent["request"]) == (span["thread"], span["request"])
    assert roots


def test_layer_self_times_add_up_to_each_request(smoke):
    lines, out = smoke[1]
    record = json.loads((out / "result.json").read_text())
    for workload in ("trace-bf", "trace-stream", "drup-backward"):
        metrics = record["workloads"][workload]["metrics"]
        total = sum(metrics[f"{layer}.self_pct"] for layer in spans.LAYERS)
        assert total == pytest.approx(100.0, abs=1.0), workload


def test_negatives_are_rejected(smoke, tmp_path):
    for trace in (0, 1):
        _, out = smoke[trace]
        record = json.loads((out / "result.json").read_text())
        for workload, summary in record["workloads"].items():
            details = summary["details"]
            assert summary["wrong_verdicts"] == 0, workload
            assert details["negatives_checked"] > 0, workload
            assert details["negatives_rejected"] == details["negatives_checked"], workload
    for name in ("trace", "drup"):
        generated = fixtures.generate(name, fixtures.SMOKE_POPULATIONS[name], tmp_path / name)
        workload = "trace-bf" if name == "trace" else "drup-backward"
        for fixture in generated:
            report = workloads.check(workload, parse_dimacs_file(fixture.formula), fixture)
            assert report.verified == fixture.expect, fixture.name


def test_manifest_is_deterministic(tmp_path):
    population = fixtures.SMOKE_POPULATIONS["service"]
    pools = [fixtures.ensure_pool("service", population, tmp_path / root) for root in "ab"]

    def digest(pool, seed: int) -> str:
        chosen = fixtures.select("service", population, pool, seed)
        return fixtures.manifest("service", population, seed, chosen)["digest"]

    assert digest(pools[0], 5) == digest(pools[1], 5)
    assert digest(pools[0], 5) != digest(pools[0], 6)


def test_requests_without_a_verdict_add_no_lemmas_or_latency():
    fixture = fixtures.Fixture("f", "positive", "tseitin", 20, 1, 100, "f.cnf", "f.rtb")
    # The host ran at half the baseline's speed: scaled times are halved.
    ref = 2 * reference.NOMINAL_S
    checked = {"i": 0, "verified": True, "start": 0.0, "lat": 1.0, "ref": ref}
    raised = {"i": 0, "error": "RuntimeError: boom", "start": 1.0, "lat": 0.001, "ref": ref}
    half = {"ops": [checked, raised], "traced": False}
    assert harness._latencies("trace-bf", [half]) == [1.0]
    assert harness._latencies("trace-bf", [half], scale=True) == [0.5]
    assert harness._round_rate("trace-bf", [fixture], half) == pytest.approx(100 / 1.001)
    assert harness._scaled_rate("trace-bf", [fixture], [half]) == pytest.approx(100 / 0.5005)
    run = {"halves": [half], "ready": 1.0, "spawned": 0.0, "rss_self_kb": 1, "rss_children_kb": 1}
    summary = harness.summarize("trace-bf", [fixture], [run], 0)
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["metrics"]["check_latency_gmean_ms"] == pytest.approx(500.0)
    assert summary["metrics"]["setup_s"] == pytest.approx(0.5)
    assert summary["details"]["wall_check_latency_p50_ms"] == pytest.approx(1000.0)
    assert summary["details"]["wall_setup_s"] == pytest.approx(1.0)

    def job(state, settle, check_s, from_cache=False):
        return {"i": 0, "due": 0.0, "submit": 0.0, "state": state, "verified": True,
                "from_cache": from_cache, "check_s": check_s, "settle": settle, "ref": ref}

    jobs = {"jobs": [job("DONE", 0.5, 0.25), job("FAILED", 1.0, 0.1), job("DONE", 0.01, 0.0, True)],
            "traced": False}
    assert harness._latencies("service-mixed", [jobs], checked=True) == [0.5]
    assert harness._latencies("service-mixed", [jobs], checked=True, scale=True) == [0.25]
    assert harness._round_rate("service-mixed", [fixture], jobs) == pytest.approx(100.0)
    assert harness._scaled_rate("service-mixed", [fixture], [jobs]) == pytest.approx(100 / 0.175)
    assert harness._latency_gmean("service-mixed", [fixture], [jobs]) == pytest.approx(0.25)


def test_a_job_takes_the_reference_timed_near_it():
    refs = [(0.0, 0.010), (0.5, 0.012), (3.0, 0.020), (3.2, 0.022), (3.4, 0.030)]
    assert workloads._nearby_reference(refs, 0.2) == pytest.approx(0.011)
    assert workloads._nearby_reference(refs, 3.1) == pytest.approx(0.022)
    assert workloads._nearby_reference(refs, 10.0) == pytest.approx(0.020)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e")
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "trace-bf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
