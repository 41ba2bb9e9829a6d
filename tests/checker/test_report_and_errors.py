"""CheckReport and CheckFailure plumbing."""

import pickle

import pytest

from repro.checker import CheckFailure, CheckReport, FailureKind, MemoryLimitExceeded


class TestCheckFailure:
    def test_message_carries_kind_and_context(self):
        failure = CheckFailure(FailureKind.BAD_RESOLUTION, "boom", cid=7, literal=-3)
        text = str(failure)
        assert "[bad-resolution]" in text
        assert "cid=7" in text
        assert failure.context == {"cid": 7, "literal": -3}

    def test_message_without_context(self):
        failure = CheckFailure(FailureKind.BAD_STATUS, "nothing to check")
        assert str(failure) == "[bad-status] nothing to check"

    def test_every_kind_has_a_distinct_slug(self):
        slugs = [kind.value for kind in FailureKind]
        assert len(set(slugs)) == len(slugs)
        assert "memory-out" in slugs
        assert "timeout" in slugs
        assert "worker-crash" in slugs

    def test_subclass_survives_pickling(self):
        """Regression: subclasses with non-standard __init__ signatures
        (e.g. ``MemoryLimitExceeded(used, limit)``) used to blow up on
        unpickle when crossing the worker-process boundary."""
        failure = MemoryLimitExceeded(100, 64)
        clone = pickle.loads(pickle.dumps(failure))
        assert type(clone) is MemoryLimitExceeded
        assert clone.kind is FailureKind.MEMORY_OUT
        assert clone.context == failure.context


class TestCheckReport:
    def _verified(self):
        return CheckReport(
            method="depth-first",
            verified=True,
            clauses_built=10,
            total_learned=40,
            peak_memory_units=123,
            check_time=0.5,
        )

    def test_built_pct(self):
        assert self._verified().built_pct == 25.0
        empty = CheckReport(method="x", verified=True, total_learned=0)
        assert empty.built_pct == 0.0

    def test_summary_succeeded(self):
        text = self._verified().summary()
        assert "Check Succeeded" in text
        assert "10/40" in text
        assert "25.0%" in text

    def test_summary_failed(self):
        failure = CheckFailure(FailureKind.UNKNOWN_CLAUSE, "missing", cid=5)
        report = CheckReport(method="bf", verified=False, failure=failure)
        assert "Check Failed" in report.summary()
        assert "missing" in report.summary()

    def test_raise_if_failed(self):
        self._verified().raise_if_failed()  # no-op
        failure = CheckFailure(FailureKind.CYCLIC_TRACE, "loop", cid=9)
        report = CheckReport(method="bf", verified=False, failure=failure)
        with pytest.raises(CheckFailure) as excinfo:
            report.raise_if_failed()
        assert excinfo.value.kind == FailureKind.CYCLIC_TRACE

    def test_unverified_without_failure_is_a_bug(self):
        report = CheckReport(method="bf", verified=False)
        with pytest.raises(AssertionError):
            report.raise_if_failed()


class TestReportJson:
    """The stable JSON schema behind the verdict cache and --format json."""

    def _full(self):
        return CheckReport(
            method="depth-first",
            verified=False,
            failure=CheckFailure(FailureKind.BAD_RESOLUTION, "no pivot", cid=9),
            clauses_built=3,
            total_learned=12,
            peak_memory_units=77,
            check_time=0.123456789,
            resolutions=42,
            original_core={5, 1, 3},
            learned_used={20, 15},
            degradation=[{"method": "df", "outcome": "memory-out", "elapsed_s": 0.1}],
            fingerprint={"formula_sha256": "f", "trace_sha256": "t",
                         "options_sha256": "o", "key": "k"},
        )

    def test_round_trip_preserves_everything(self):
        from repro.checker.report import REPORT_SCHEMA_VERSION

        payload = self._full().to_json()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        clone = CheckReport.from_json(payload)
        assert clone.method == "depth-first" and clone.verified is False
        assert clone.failure.kind is FailureKind.BAD_RESOLUTION
        assert clone.failure.context == {"cid": 9}
        assert clone.original_core == {1, 3, 5}
        assert clone.learned_used == {15, 20}
        assert clone.check_time == 0.123457  # rounded at serialization
        assert clone.degradation[0]["outcome"] == "memory-out"
        assert clone.fingerprint["key"] == "k"
        assert clone.from_cache is False

    def test_sets_serialize_sorted_and_deterministic(self):
        import json

        first = json.dumps(self._full().to_json(), sort_keys=True)
        second = json.dumps(self._full().to_json(), sort_keys=True)
        assert first == second
        assert json.loads(first)["original_core"] == [1, 3, 5]

    def test_optional_fields_absent_when_unset(self):
        payload = CheckReport(method="breadth-first", verified=True).to_json()
        for absent in ("failure", "original_core", "learned_used",
                       "window_stats", "degradation", "fingerprint"):
            assert absent not in payload
        assert "from_cache" not in payload  # runtime-only flag

    def test_payload_with_retired_recovery_field_still_loads(self):
        # Cache entries and job results written while reports carried a
        # ``recovery`` event log keep loading; the field is ignored.
        payload = self._full().to_json()
        payload["recovery"] = [{"event": "retry", "window": 0, "round": 1}]
        clone = CheckReport.from_json(payload)
        assert clone.to_json() == self._full().to_json()

    def test_from_json_rejects_other_schema_versions(self):
        from repro.checker.report import REPORT_SCHEMA_VERSION

        payload = self._full().to_json()
        payload["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            CheckReport.from_json(payload)
        del payload["schema_version"]
        with pytest.raises(ValueError, match="schema version"):
            CheckReport.from_json(payload)

    def test_exotic_failure_context_degrades_to_repr(self):
        from repro.checker.report import failure_to_json

        failure = CheckFailure(
            FailureKind.MALFORMED_TRACE, "weird", literals=(1, -2), vars={3, 1}, blob=object()
        )
        context = failure_to_json(failure)["context"]
        assert context["literals"] == [1, -2]
        assert context["vars"] == [1, 3]
        assert context["blob"].startswith("<object object")
