"""The fault-injection plane itself: parsing, firing, env plumbing, retries."""

import errno
import io
import os

import pytest

from repro import faults
from repro.faults import (
    PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_point,
    fault_write,
    parse_spec,
    registered_points,
)
from repro.service.client import RetryPolicy, call_with_retries
from repro.service.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def clean_plane(monkeypatch):
    """Every test starts with no plan armed and no fault env leaking in."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


# -- spec parsing --------------------------------------------------------------


def test_parse_spec_full_grammar(tmp_path):
    spec = parse_spec(
        "point=jobs.journal.append, kind=torn, after=3, repeat=1, key=done, "
        f"arg=0.5, then=raise, token={tmp_path / 't'}, mark={tmp_path / 'm'}"
    )
    assert spec.point == "jobs.journal.append"
    assert spec.kind == "torn"
    assert spec.after == 3
    assert spec.repeat is True
    assert spec.key == "done"
    assert spec.arg == 0.5
    assert spec.then == "raise"
    assert spec.token == str(tmp_path / "t")
    assert spec.mark == str(tmp_path / "m")


@pytest.mark.parametrize("bad", [
    "kind=kill",                          # no point
    "point=x",                            # no kind
    "point=x,kind=frobnicate",            # unknown kind
    "point=x,kind=kill,color=red",        # unknown field
    "point=x,kind=torn,then=explode",     # bad then
    "just-words",                         # not key=value
])
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_plan_parses_multiple_entries():
    plan = FaultPlan.parse(
        "point=pool.task.start,kind=kill;point=cache.segment.rename,kind=enospc;;"
    )
    assert [s.point for s in plan.specs] == ["pool.task.start", "cache.segment.rename"]
    assert not plan.empty


# -- matching and firing -------------------------------------------------------


def test_match_exact_wildcard_and_key():
    spec = FaultSpec(point="cache.*", kind="raise")
    assert spec.matches("cache.segment.rename", None)
    assert not spec.matches("jobs.journal.append", None)
    keyed = FaultSpec(point="supervisor.attempt", kind="raise", key="df")
    assert keyed.matches("supervisor.attempt", "df")
    assert not keyed.matches("supervisor.attempt", "bf")
    assert not keyed.matches("supervisor.attempt", None)


def test_after_counts_hits_and_one_shot_by_default():
    spec = FaultSpec(point="p", kind="raise", after=3)
    assert [spec.should_fire() for _ in range(5)] == [False, False, True, False, False]
    repeating = FaultSpec(point="p", kind="raise", after=2, repeat=True)
    assert [repeating.should_fire() for _ in range(4)] == [False, True, True, True]


def test_token_gate_is_a_cross_process_one_shot(tmp_path):
    token = tmp_path / "token"
    token.write_text("armed\n")
    spec = FaultSpec(point="p", kind="raise", token=str(token), repeat=True)
    assert spec.should_fire() is True          # wins the unlink
    assert not token.exists()
    assert spec.should_fire() is False         # token gone: never again
    unarmed = FaultSpec(point="p", kind="raise", token=str(tmp_path / "absent"))
    assert unarmed.should_fire() is False


def test_fault_point_noop_without_plan():
    fault_point("jobs.journal.append")  # must not raise, sleep or kill


def test_fault_point_raise_enospc_and_mark(tmp_path):
    mark = tmp_path / "fired"
    faults.install_plan(f"point=p.raise,kind=raise,mark={mark}")
    with pytest.raises(FaultInjected):
        fault_point("p.raise")
    assert mark.exists()
    fault_point("p.raise")  # one-shot: spent

    faults.install_plan("point=p.disk,kind=enospc")
    with pytest.raises(OSError) as exc_info:
        fault_point("p.disk")
    assert exc_info.value.errno == errno.ENOSPC


def test_fault_point_slow_proceeds(monkeypatch):
    faults.install_plan("point=p.slow,kind=slow,arg=0.001")
    fault_point("p.slow")  # sleeps briefly, then returns normally


def test_fault_write_passthrough_and_torn():
    sink = io.StringIO()
    fault_write("p.write", sink, "full record\n")
    assert sink.getvalue() == "full record\n"

    faults.install_plan("point=p.write,kind=torn,then=raise,arg=4")
    torn = io.StringIO()
    with pytest.raises(FaultInjected):
        fault_write("p.write", torn, "full record\n")
    assert torn.getvalue() == "full"  # only the prefix made it out

    faults.install_plan("point=p.write,kind=enospc")
    lost = io.StringIO()
    with pytest.raises(OSError):
        fault_write("p.write", lost, "full record\n")
    assert lost.getvalue() == ""  # disk-full loses the whole record


def test_torn_fraction_and_byte_count():
    spec = FaultSpec(point="p", kind="torn", arg=0.25)
    assert faults._torn_length(spec, 100) == 25
    spec = FaultSpec(point="p", kind="torn", arg=7)
    assert faults._torn_length(spec, 100) == 7
    spec = FaultSpec(point="p", kind="torn")
    assert faults._torn_length(spec, 100) == 50


def test_key_gated_entry_only_fires_on_its_key():
    faults.install_plan("point=jobs.journal.append,kind=raise,key=done")
    fault_point("jobs.journal.append", key="submit")  # other keys pass
    with pytest.raises(FaultInjected):
        fault_point("jobs.journal.append", key="done")


# -- env plumbing --------------------------------------------------------------


def test_env_plan_reparsed_when_env_changes(monkeypatch):
    assert faults.active_plan() is None
    monkeypatch.setenv(PLAN_ENV, "point=a,kind=raise")
    plan = faults.active_plan()
    assert [s.point for s in plan.specs] == ["a"]
    assert faults.active_plan() is plan  # stable env keeps hit counters
    monkeypatch.setenv(PLAN_ENV, "point=b,kind=raise")
    assert [s.point for s in faults.active_plan().specs] == ["b"]
    monkeypatch.delenv(PLAN_ENV)
    assert faults.active_plan() is None


def test_registry_covers_every_hardened_subsystem():
    points = registered_points()
    expected = {
        "jobs.journal.append", "jobs.journal.replay", "jobs.dead_letter.write",
        "cache.entry.write", "cache.segment.write", "cache.segment.rename",
        "scheduler.claim", "scheduler.finalize",
        "pool.task.start", "pool.task.dispatch", "pool.result.collect",
        "daemon.spool.ingest", "daemon.wakeup", "daemon.heartbeat.write",
        "supervisor.attempt", "checkpoint.write",
    }
    assert expected <= set(points)
    assert points["jobs.journal.append"]["writes"] is True


# -- client retry policy -------------------------------------------------------


def test_retry_policy_delays_are_capped_exponential():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.3,
                         jitter=0.0)
    assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3]


def test_retry_policy_jitter_is_seedable():
    policy = RetryPolicy(seed=42)
    assert list(policy.delays()) == list(RetryPolicy(seed=42).delays())
    base = RetryPolicy(seed=42, jitter=0.0)
    for jittered, flat in zip(policy.delays(), base.delays()):
        assert flat <= jittered <= flat * 1.2


def test_call_with_retries_recovers_then_reraises():
    sleeps = []
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise OSError(errno.EIO, "transient")
        return "ok"

    metrics = MetricsRegistry()
    result = call_with_retries(
        flaky, RetryPolicy(max_attempts=4, jitter=0.0),
        metrics=metrics, sleep=sleeps.append,
    )
    assert result == "ok"
    assert len(sleeps) == 2
    assert metrics.counter("client.retries").value == 2

    attempts["n"] = -100  # now it never recovers: budget exhausts, re-raises
    with pytest.raises(OSError):
        call_with_retries(flaky, RetryPolicy(max_attempts=2, jitter=0.0),
                          sleep=sleeps.append)


def test_call_with_retries_gives_up_on_deterministic_errors():
    calls = {"n": 0}

    def missing():
        calls["n"] += 1
        raise FileNotFoundError("no such artifact")

    with pytest.raises(FileNotFoundError):
        call_with_retries(missing, RetryPolicy(max_attempts=5, jitter=0.0),
                          give_up_on=(FileNotFoundError,), sleep=lambda _: None)
    assert calls["n"] == 1  # not retried: FileNotFoundError is not transient
