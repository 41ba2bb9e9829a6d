"""The service CLI verbs, driven in-process: serve/submit/status/results,
plus `repro check --format json` and `repro check --cache`."""

import json

import pytest

from repro.checker.report import REPORT_SCHEMA_VERSION
from repro.cli import check_main, main, results_main, serve_main, status_main, submit_main


def test_check_format_json_is_stable_and_versioned(artifacts, capsys):
    _, cnf, ascii_path, _ = artifacts
    assert check_main([cnf, ascii_path, "--method", "bf", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["verified"] is True
    assert payload["method"] == "breadth-first"
    assert payload["from_cache"] is False
    assert "check_time_s" in payload


def test_check_format_json_failure_exit_code(artifacts, second_artifacts, capsys):
    _, cnf, _, _ = artifacts
    _, _, wrong_trace = second_artifacts
    code = check_main([cnf, wrong_trace, "--method", "bf", "--policy", "strict",
                       "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert "failure" in payload and "kind" in payload["failure"]


def test_check_cache_warm_hit(artifacts, tmp_path, capsys):
    _, cnf, ascii_path, _ = artifacts
    cache = str(tmp_path / "cache")
    assert check_main([cnf, ascii_path, "--method", "bf", "--cache", cache]) == 0
    first = capsys.readouterr().out
    assert "cached" not in first
    assert check_main([cnf, ascii_path, "--method", "bf", "--cache", cache]) == 0
    assert "cached" in capsys.readouterr().out


def test_check_cache_json_reports_cache_state(artifacts, tmp_path, capsys):
    _, cnf, ascii_path, _ = artifacts
    cache = str(tmp_path / "cache")
    check_main([cnf, ascii_path, "--method", "bf", "--cache", cache,
                "--format", "json"])
    assert json.loads(capsys.readouterr().out)["from_cache"] is False
    check_main([cnf, ascii_path, "--method", "bf", "--cache", cache,
                "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["from_cache"] is True
    assert "fingerprint" in payload


def test_check_refresh_requires_cache(artifacts):
    _, cnf, ascii_path, _ = artifacts
    with pytest.raises(SystemExit):
        check_main([cnf, ascii_path, "--refresh"])


def test_check_cache_rejects_checkpoint_combo(artifacts, tmp_path):
    _, cnf, ascii_path, _ = artifacts
    with pytest.raises(SystemExit):
        check_main([cnf, ascii_path, "--cache", str(tmp_path / "c"),
                    "--checkpoint", str(tmp_path / "ckpt")])


def test_submit_serve_status_results_round_trip(artifacts, tmp_path, capsys):
    _, cnf, ascii_path, _ = artifacts
    spool = str(tmp_path / "spool")

    assert submit_main([spool, cnf, ascii_path, "--method", "bf"]) == 0
    assert "submitted" in capsys.readouterr().out

    assert status_main([spool]) == 0
    assert "incoming 1" in capsys.readouterr().out

    assert serve_main([spool, "--once", "--workers", "1"]) == 0
    assert "drained: 1 done" in capsys.readouterr().out

    assert status_main([spool, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "DONE=1" in out
    assert "jobs.done" in out  # the rendered metrics snapshot

    assert results_main([spool]) == 0
    out = capsys.readouterr().out
    assert "job-000001 verified" in out

    assert results_main([spool, "job-000001", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert payloads[0]["report"]["verified"] is True
    assert payloads[0]["report"]["schema_version"] == REPORT_SCHEMA_VERSION


def test_submit_prune_rides_through_the_spool(artifacts, tmp_path, capsys):
    _, cnf, ascii_path, _ = artifacts
    spool = str(tmp_path / "spool")
    assert submit_main([spool, cnf, ascii_path, "--method", "bf", "--prune"]) == 0
    capsys.readouterr()
    assert serve_main([spool, "--once", "--workers", "1"]) == 0
    capsys.readouterr()
    assert results_main([spool, "job-000001", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert payloads[0]["report"]["verified"] is True
    assert payloads[0]["report"]["prune"]["total_learned"] > 0


def test_results_unknown_job_id(tmp_path, capsys):
    spool = str(tmp_path / "spool")
    assert serve_main([spool, "--once"]) == 0
    capsys.readouterr()
    assert results_main([spool, "job-999999"]) == 1
    assert "no terminal job" in capsys.readouterr().err


def test_submit_missing_artifact_errors(tmp_path):
    with pytest.raises(SystemExit):
        submit_main([str(tmp_path / "spool"), "/no.cnf", "/no.trace"])


def test_submit_rejects_out_of_range_numbers_before_queueing(artifacts, tmp_path, capsys):
    """A value no worker could run is a usage error, not a FAILED job."""
    _, cnf, ascii_path, _ = artifacts
    spool = tmp_path / "spool"
    with pytest.raises(SystemExit) as excinfo:
        submit_main([str(spool), cnf, ascii_path, "--method", "streaming",
                     "--window-records", "0"])
    assert excinfo.value.code == 2
    assert "--window-records must be at least 1" in capsys.readouterr().err
    assert not spool.exists()


def test_umbrella_dispatches_service_verbs(artifacts, tmp_path, capsys):
    _, cnf, ascii_path, _ = artifacts
    spool = str(tmp_path / "spool")
    assert main(["submit", spool, cnf, ascii_path, "--method", "bf"]) == 0
    assert main(["serve", spool, "--once"]) == 0
    assert main(["status", spool]) == 0
    assert main(["results", spool]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
