"""The verdict cache: hits, the safety rejections, atomicity, LRU."""

import json

from repro.checker.report import REPORT_SCHEMA_VERSION, CheckReport
from repro.service.cache import VerdictCache
from repro.service.metrics import MetricsRegistry


def make_fingerprint(seed: str) -> dict:
    return {
        "formula_sha256": f"f-{seed}",
        "trace_sha256": f"t-{seed}",
        "options_sha256": f"o-{seed}",
        "key": f"key-{seed}",
    }


def make_report(verified: bool = True) -> CheckReport:
    return CheckReport(method="breadth-first", verified=verified, total_learned=10,
                       clauses_built=10, check_time=0.5)


def test_round_trip(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report())
    got = cache.get(fingerprint)
    assert got is not None and got.verified and got.from_cache
    assert got.fingerprint["trace_sha256"] == "t-a"
    assert cache.metrics.counter("cache.hits").value == 1


def test_miss_on_absent_key(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    assert cache.get(make_fingerprint("nope")) is None
    assert cache.metrics.counter("cache.misses").value == 1


def test_never_returns_entry_for_mismatched_component_digest(tmp_path):
    """Negative test required by the acceptance criteria: an entry must not
    come back for a different (formula, trace, options) fingerprint."""
    cache = VerdictCache(tmp_path / "cache")
    stored = make_fingerprint("a")
    cache.put(stored, make_report())
    for component in ("formula_sha256", "trace_sha256", "options_sha256"):
        probe = dict(stored)
        probe[component] = "something-else"
        # Same key on disk (we force it) but a different component digest:
        # the defense-in-depth re-check must refuse.
        assert cache.get(probe) is None
    assert cache.metrics.counter("cache.fingerprint_rejects").value == 3


def test_rejects_different_schema_version(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report())
    path = cache._entry_path(fingerprint["key"])
    entry = json.loads(path.read_text())
    entry["schema_version"] = REPORT_SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(fingerprint) is None
    assert cache.metrics.counter("cache.schema_rejects").value == 1


def test_rejects_entry_whose_report_schema_differs(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report())
    path = cache._entry_path(fingerprint["key"])
    entry = json.loads(path.read_text())
    entry["report"]["schema_version"] = REPORT_SCHEMA_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(fingerprint) is None
    assert cache.metrics.counter("cache.corrupt_entries").value == 1


def test_corrupt_entry_degrades_to_miss(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report())
    cache._entry_path(fingerprint["key"]).write_text("{torn json")
    assert cache.get(fingerprint) is None
    assert cache.metrics.counter("cache.corrupt_entries").value == 1


def test_entry_with_a_retired_failure_kind_is_a_miss(tmp_path):
    # "interface-mismatch" belonged to a checker that no longer exists.
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report(verified=False))
    path = cache._entry_path(fingerprint["key"])
    entry = json.loads(path.read_text())
    entry["report"]["failure"] = {"kind": "interface-mismatch", "message": "windows disagree"}
    path.write_text(json.dumps(entry))
    assert cache.get(fingerprint) is None
    assert cache.metrics.counter("cache.corrupt_entries").value == 1


def test_failure_reports_round_trip(tmp_path):
    from repro.checker.errors import CheckFailure, FailureKind

    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("bad")
    report = CheckReport(
        method="depth-first",
        verified=False,
        failure=CheckFailure(FailureKind.BAD_RESOLUTION, "no clashing variable", cid=7),
    )
    cache.put(fingerprint, report)
    got = cache.get(fingerprint)
    assert got is not None and not got.verified
    assert got.failure.kind is FailureKind.BAD_RESOLUTION
    assert got.failure.context["cid"] == 7


def test_lru_eviction_over_bound(tmp_path):
    import os

    cache = VerdictCache(tmp_path / "cache", max_entries=3)
    prints = [make_fingerprint(str(index)) for index in range(4)]
    for index, fingerprint in enumerate(prints[:3]):
        cache.put(fingerprint, make_report())
        # mtime-ordered LRU: force distinct, increasing mtimes.
        os.utime(cache._entry_path(fingerprint["key"]), (index, index))
    cache.put(prints[3], make_report())
    assert cache.get(prints[0]) is None  # stalest entry evicted
    assert cache.get(prints[3]) is not None
    assert len(cache) == 3
    assert cache.metrics.counter("cache.evictions").value == 1


def test_invalidate(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report())
    assert cache.invalidate(fingerprint["key"]) is True
    assert cache.invalidate(fingerprint["key"]) is False
    assert cache.get(fingerprint) is None


def test_shared_metrics_registry(tmp_path):
    metrics = MetricsRegistry()
    cache = VerdictCache(tmp_path / "cache", metrics=metrics)
    cache.get(make_fingerprint("a"))
    assert metrics.counter("cache.misses").value == 1


# -- batched writes ------------------------------------------------------------


def test_batch_mode_serves_pending_before_flush(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=3)
    first, second = make_fingerprint("a"), make_fingerprint("b")
    cache.put(first, make_report())
    cache.put(second, make_report())
    assert not list((tmp_path / "cache").glob("seg-*.jsonl"))  # still buffered
    assert cache.get(first).verified is True
    assert cache.get(second).from_cache is True
    assert cache.metrics.counter("cache.batched_stores").value == 2
    assert cache.metrics.counter("cache.flushes").value == 0


def test_batch_flushes_one_segment_when_full(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=2)
    cache.put(make_fingerprint("a"), make_report())
    cache.put(make_fingerprint("b"), make_report())  # batch full -> flush
    segments = list((tmp_path / "cache").glob("seg-*.jsonl"))
    assert len(segments) == 1
    assert len(segments[0].read_text().splitlines()) == 2
    assert cache.metrics.counter("cache.flushes").value == 1
    assert cache.metrics.counter("cache.stores").value == 2


def test_flushed_segments_survive_reopen(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=8)
    for seed in ("a", "b", "c"):
        cache.put(make_fingerprint(seed), make_report())
    cache.flush()
    reopened = VerdictCache(tmp_path / "cache", batch_size=8)
    assert len(reopened) == 3
    for seed in ("a", "b", "c"):
        assert reopened.get(make_fingerprint(seed)).from_cache is True


def test_newest_segment_wins_for_rewritten_key(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=4)
    fingerprint = make_fingerprint("a")
    cache.put(fingerprint, make_report(verified=True))
    cache.flush()
    cache.put(fingerprint, make_report(verified=False))
    cache.flush()
    assert len(list((tmp_path / "cache").glob("seg-*.jsonl"))) == 2
    reopened = VerdictCache(tmp_path / "cache", batch_size=4)
    assert reopened.get(fingerprint).verified is False


def test_unflushed_entries_are_lost_never_corrupt(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=100)
    cache.put(make_fingerprint("a"), make_report())
    # A crash before flush: reopening sees a clean, empty cache.
    reopened = VerdictCache(tmp_path / "cache", batch_size=100)
    assert len(reopened) == 0
    assert reopened.get(make_fingerprint("a")) is None


def test_eviction_weighs_segments_by_entry_count(tmp_path):
    import os

    cache = VerdictCache(tmp_path / "cache", max_entries=4, batch_size=3)
    for seed in ("a", "b", "c"):
        cache.put(make_fingerprint(seed), make_report())  # one 3-entry segment
    segment = next((tmp_path / "cache").glob("seg-*.jsonl"))
    os.utime(segment, (1, 1))  # make the segment the stalest file
    for seed in ("d", "e"):
        cache.put(make_fingerprint(seed), make_report())
    cache.flush()
    # 3 + 2 = 5 entries > 4: the stale 3-entry segment goes as one unit.
    assert not segment.exists()
    assert cache.metrics.counter("cache.evictions").value == 3
    assert cache.get(make_fingerprint("a")) is None
    assert cache.get(make_fingerprint("d")) is not None


def test_invalidate_covers_pending_and_segments(tmp_path):
    cache = VerdictCache(tmp_path / "cache", batch_size=4)
    buffered, flushed = make_fingerprint("a"), make_fingerprint("b")
    cache.put(flushed, make_report())
    cache.flush()
    cache.put(buffered, make_report())
    assert cache.invalidate(buffered["key"]) is True
    assert cache.invalidate(flushed["key"]) is True
    assert cache.get(buffered) is None
    assert cache.get(flushed) is None
