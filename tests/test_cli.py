"""CLI entry points, driven in-process."""

import json

import pytest

from repro.cli import (
    check_main,
    core_main,
    lint_trace_main,
    main,
    solve_main,
    submit_main,
    trace_stats_main,
)
from repro.cnf import write_dimacs_file
from repro.generators import pigeonhole
from repro.cnf import CnfFormula


@pytest.fixture
def unsat_cnf(tmp_path):
    path = tmp_path / "php.cnf"
    write_dimacs_file(pigeonhole(4, 3), path)
    return path


@pytest.fixture
def sat_cnf(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs_file(CnfFormula(3, [[1, 2], [-1, 3]]), path)
    return path


def test_solve_unsat(unsat_cnf, capsys):
    assert solve_main([str(unsat_cnf)]) == 0
    out = capsys.readouterr().out
    assert "s UNSAT" in out
    assert "conflicts=" in out


def test_solve_sat_prints_model(sat_cnf, capsys):
    assert solve_main([str(sat_cnf)]) == 0
    out = capsys.readouterr().out
    assert "s SAT" in out
    assert out.splitlines()[1].startswith("v ")


def test_solve_budget_unknown(unsat_cnf, capsys):
    assert solve_main([str(unsat_cnf), "--max-conflicts", "1"]) == 1
    assert "s UNKNOWN" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["df", "bf", "hybrid"])
def test_solve_then_check(unsat_cnf, tmp_path, capsys, method):
    trace = tmp_path / "p.trace"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--method", method]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_binary_trace_roundtrip(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.rtb"
    assert solve_main([str(unsat_cnf), "--trace", str(trace), "--trace-format", "binary"]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--method", "bf"]) == 0


def test_check_rejects_mismatched_formula(unsat_cnf, sat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert check_main([str(sat_cnf), str(trace)]) == 1
    assert "Check Failed" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["kernel", "reference"])
def test_check_engine_selection(unsat_cnf, tmp_path, capsys, engine):
    trace = tmp_path / "trace.txt"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--engine", engine]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_check_profile_emits_hot_functions(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert solve_main([str(unsat_cnf), "--trace", str(trace)]) == 0
    assert check_main([str(unsat_cnf), str(trace), "--profile"]) == 0
    captured = capsys.readouterr()
    assert "Check Succeeded" in captured.out
    # The cProfile table goes to stderr so the report stays parseable.
    assert "cumtime" in captured.err


def test_check_show_core(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert check_main([str(unsat_cnf), str(trace), "--show-core"]) == 0
    assert "core clause ids:" in capsys.readouterr().out


def test_drup_and_rup_check(unsat_cnf, tmp_path, capsys):
    proof = tmp_path / "p.drup"
    assert solve_main([str(unsat_cnf), "--drup", str(proof)]) == 0
    assert check_main([str(unsat_cnf), str(proof), "--method", "rup"]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_solve_validate_flag(unsat_cnf, sat_cnf, capsys):
    assert solve_main([str(unsat_cnf), "--validate"]) == 0
    assert "proof validated" in capsys.readouterr().out
    assert solve_main([str(sat_cnf), "--validate"]) == 0


def test_trim_cli(unsat_cnf, tmp_path, capsys):
    from repro.cli import trim_main

    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    trimmed = tmp_path / "trimmed.trace"
    assert trim_main([str(unsat_cnf), str(trace), str(trimmed)]) == 0
    assert "kept" in capsys.readouterr().out
    assert check_main([str(unsat_cnf), str(trimmed), "--method", "hybrid"]) == 0


def test_core_cli(unsat_cnf, capsys):
    assert core_main([str(unsat_cnf), "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "input:" in out
    assert "core clause ids:" in out


def test_trace_stats_cli(unsat_cnf, tmp_path, capsys):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    assert trace_stats_main([str(trace)]) == 0
    assert "learned clauses" in capsys.readouterr().out


@pytest.fixture
def clean_trace(unsat_cnf, tmp_path):
    trace = tmp_path / "p.trace"
    solve_main([str(unsat_cnf), "--trace", str(trace)])
    return trace


def test_lint_trace_accepts_clean_trace(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace)]) == 0
    out = capsys.readouterr().out
    assert "[lint] clean" in out
    assert "reachability" in out


def test_lint_trace_flags_corrupted_trace(clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(line for line in lines if not line.startswith("CONF")) + "\n")
    assert lint_trace_main([str(broken)]) == 1
    out = capsys.readouterr().out
    assert "T007" in out and "error" in out


def test_lint_trace_json_output(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["streaming"] is True
    assert payload["num_learned"] > 0


def test_lint_trace_rule_filter_and_no_reachability(clean_trace, capsys):
    assert lint_trace_main([str(clean_trace), "--rules", "T001,T005", "--no-reachability"]) == 0
    assert "reachability" not in capsys.readouterr().out


def test_lint_trace_binary_format(unsat_cnf, tmp_path):
    trace = tmp_path / "p.rtb"
    solve_main([str(unsat_cnf), "--trace", str(trace), "--trace-format", "binary"])
    assert lint_trace_main([str(trace)]) == 0


def test_repro_umbrella_dispatch(clean_trace, unsat_cnf, capsys):
    assert main(["lint-trace", str(clean_trace)]) == 0
    assert main(["check", str(unsat_cnf), str(clean_trace), "--precheck"]) == 0
    assert "Check Succeeded" in capsys.readouterr().out
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


def test_check_precheck_fails_fast_on_garbage(unsat_cnf, clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(line for line in lines if not line.startswith("CONF")) + "\n")
    assert check_main([str(unsat_cnf), str(broken), "--method", "bf", "--precheck"]) == 1
    out = capsys.readouterr().out
    assert "static-precheck" in out


# -- the derivation-graph surface ---------------------------------------------


def test_analyze_text_output(clean_trace, capsys):
    from repro.cli import analyze_main

    assert analyze_main([str(clean_trace)]) == 0
    out = capsys.readouterr().out
    assert "core:" in out
    assert "dag:" in out
    assert "status UNSAT" in out


def test_analyze_json_output(clean_trace, capsys):
    from repro.cli import analyze_main

    assert analyze_main([str(clean_trace), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["schema_version"] == 1
    assert payload["graph"]["core_learned"] > 0
    assert payload["graph"]["prunable"] is True


def test_analyze_flags_broken_trace(clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    broken = tmp_path / "broken.trace"
    broken.write_text(
        "\n".join(line for line in lines if not line.startswith("CONF")) + "\n"
    )
    from repro.cli import analyze_main

    assert analyze_main([str(broken)]) == 1
    assert "T007" in capsys.readouterr().out


def test_lint_trace_graph_flag_reports_dead_lemmas(tmp_path, capsys):
    trace = tmp_path / "dead.trace"
    trace.write_text(
        "T 3 3\n"
        "CL 4 1 2\n"
        "CL 5 4 3\n"
        "CL 6 5 1\n"  # never reaches the final conflict: a dead lemma
        "V 1 1 4\n"
        "CONF 5\n"
        "R UNSAT\n"
    )
    assert lint_trace_main([str(trace)]) == 0
    assert "T013" not in capsys.readouterr().out
    assert lint_trace_main([str(trace), "--graph"]) == 0  # info severity
    out = capsys.readouterr().out
    assert "T013" in out
    assert "graph:" in out  # the DAG summary line rides along


def test_check_prune_flag(unsat_cnf, clean_trace, capsys):
    for method in ("df", "bf", "hybrid"):
        assert (
            check_main(
                [str(unsat_cnf), str(clean_trace), "--method", method, "--prune"]
            )
            == 0
        )
        assert "Check Succeeded" in capsys.readouterr().out


def test_check_prune_rejects_plain_rup(unsat_cnf, clean_trace):
    with pytest.raises(SystemExit):
        check_main(
            [str(unsat_cnf), str(clean_trace), "--method", "rup", "--prune"]
        )


def test_trim_verify_cli(unsat_cnf, clean_trace, tmp_path, capsys):
    from repro.cli import trim_main

    trimmed = tmp_path / "trimmed.trace"
    assert trim_main([str(unsat_cnf), str(clean_trace), str(trimmed), "--verify"]) == 0
    assert "deletions kept" in capsys.readouterr().out
    assert check_main([str(unsat_cnf), str(trimmed), "--method", "bf"]) == 0


def test_umbrella_knows_analyze(clean_trace, capsys):
    assert main(["analyze", str(clean_trace)]) == 0
    assert "core:" in capsys.readouterr().out


# -- one path from flags to verdict: supervised checks, shared options -------


@pytest.fixture
def drup_proof(unsat_cnf, tmp_path):
    proof = tmp_path / "p.drup"
    assert solve_main([str(unsat_cnf), "--drup", str(proof)]) == 0
    return proof


def test_check_malformed_trace_is_a_failed_check(unsat_cnf, clean_trace, tmp_path, capsys):
    lines = clean_trace.read_text().splitlines()
    lines[3] = "CL 999 x y"
    broken = tmp_path / "broken.trace"
    broken.write_text("\n".join(lines) + "\n")
    assert check_main([str(unsat_cnf), str(broken)]) == 1  # default df, auto
    assert "[malformed-trace] line 4" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tail,kind",
    [
        (["--proof-format", "trace"], "malformed-trace"),
        (["--method", "rup"], "malformed-proof"),
        ([], "malformed-trace"),  # auto detection cannot read it either
        (["--cache", "cache"], "malformed-trace"),
    ],
)
def test_check_missing_input_is_a_failed_check(unsat_cnf, tmp_path, capsys, tail, kind):
    missing = tmp_path / "missing"
    tail = [str(tmp_path / arg) if arg == "cache" else arg for arg in tail]
    assert check_main([str(unsat_cnf), str(missing), *tail]) == 1
    out = capsys.readouterr().out
    assert f"[{kind}] {missing}: " in out


@pytest.mark.parametrize(
    "proof,tail",
    [
        ("drup", ["--method", "rup", "--prune"]),
        ("drup", ["--method", "drat", "--precheck"]),
        ("trace", ["--method", "bf", "--policy", "strict", "--memory-window", "64"]),
        ("trace", ["--method", "bf", "--policy", "strict", "--window-records", "8"]),
        ("trace", ["--backward"]),
        ("trace", ["--precheck", "--method", "rup"]),
        ("drup", ["--prune", "--method", "drat"]),
        ("trace", ["--timeout", "-1"]),
    ],
)
def test_check_and_submit_reject_the_same_invocations(
    unsat_cnf, clean_trace, drup_proof, tmp_path, capsys, proof, tail
):
    argv = [str(unsat_cnf), str(clean_trace if proof == "trace" else drup_proof), *tail]
    with pytest.raises(SystemExit) as excinfo:
        check_main(argv)
    assert excinfo.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1].split("error: ", 1)[1]
    spool = tmp_path / "spool"
    with pytest.raises(SystemExit) as excinfo:
        submit_main([str(spool), *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not list((spool / "incoming").glob("*"))


@pytest.mark.parametrize(
    "tail",
    [["--method", "drat"], [], ["--proof-format", "drup"], ["--method", "hybrid"]],
    ids=["drat", "auto-drat", "drup", "hybrid"],
)
def test_check_resume_rejects_a_method_it_would_override(
    unsat_cnf, drup_proof, tmp_path, capsys, tail
):
    argv = [str(unsat_cnf), str(drup_proof), "--resume", str(tmp_path / "x.ckpt"), *tail]
    with pytest.raises(SystemExit) as excinfo:
        check_main(argv)
    assert excinfo.value.code == 2
    assert "--resume restarts breadth-first checks only" in capsys.readouterr().err


def test_check_resume_keeps_the_default_method(unsat_cnf, clean_trace, tmp_path, capsys):
    argv = [str(unsat_cnf), str(clean_trace), "--resume", str(tmp_path / "absent.ckpt")]
    assert check_main(argv) == 0
    assert capsys.readouterr().out.startswith("[breadth-first] Check Succeeded")


def test_conflict_messages_name_only_what_the_user_gave(
    unsat_cnf, clean_trace, drup_proof, tmp_path, capsys
):
    with pytest.raises(SystemExit):
        check_main([str(unsat_cnf), str(drup_proof), "--stream"])
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.endswith("--stream conflicts with the detected proof format drat")
    with pytest.raises(SystemExit):
        check_main([str(unsat_cnf), str(drup_proof), "--stream", "--proof-format", "drup"])
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "--stream conflicts with --proof-format drup"
    )
    with pytest.raises(SystemExit):
        submit_main([
            str(tmp_path / "spool"), str(unsat_cnf), str(clean_trace),
            "--method", "bf", "--policy", "strict", "--window-records", "8",
        ])
    message = capsys.readouterr().err.splitlines()[-1]
    assert "apply to the streaming checker" in message
    assert "--stream" not in message


def _submitted_options(spool, argv) -> dict:
    assert submit_main([str(spool), *argv]) == 0
    (job,) = (spool / "incoming").glob("job-*.json")
    return json.loads(job.read_text())["options"]


def test_submit_without_policy_keeps_the_fallback_window(unsat_cnf, clean_trace, tmp_path):
    """A job without --policy runs fallback, whose ladder can reach streaming."""
    argv = [str(unsat_cnf), str(clean_trace), "--method", "bf", "--memory-window", "64"]
    assert _submitted_options(tmp_path / "spool", argv) == {"method": "bf", "memory_window": 64}


@pytest.mark.parametrize(
    "proof,tail",
    [
        ("trace", ["--method", "bf"]),
        ("trace", ["--method", "streaming", "--memory-window", "64"]),
        ("drup", ["--method", "drat", "--backward"]),
    ],
    ids=["bf", "streaming-window", "drat-backward"],
)
def test_check_cache_and_submit_key_a_check_alike(
    unsat_cnf, clean_trace, drup_proof, tmp_path, capsys, proof, tail
):
    from repro.service.fingerprint import fingerprint_options

    argv = [str(unsat_cnf), str(clean_trace if proof == "trace" else drup_proof), *tail]
    cache = tmp_path / "cache"
    assert check_main([*argv, "--cache", str(cache), "--format", "json"]) == 0
    fingerprint = json.loads(capsys.readouterr().out)["fingerprint"]
    options = _submitted_options(tmp_path / "spool", [*argv, "--policy", "strict"])
    assert fingerprint["options_sha256"] == fingerprint_options(options)


def test_every_option_the_builder_emits_is_allowed(unsat_cnf, clean_trace, drup_proof, tmp_path):
    """Job options pass the scheduler's allow-list, which only names
    SupervisorConfig fields a job may set."""
    from dataclasses import fields

    from repro.checker import SupervisorConfig
    from repro.service.scheduler import ALLOWED_JOB_OPTIONS

    cnf = str(unsat_cnf)
    emitted = set()
    for index, argv in enumerate([
        [cnf, str(clean_trace), "--method", "bf", "--policy", "fallback", "--timeout", "5",
         "--memory-limit", "100", "--memory-window", "64", "--window-records", "8",
         "--precheck", "--prune", "--engine", "reference"],
        [cnf, str(drup_proof), "--method", "drat", "--backward"],
    ]):
        emitted |= set(_submitted_options(tmp_path / f"spool{index}", argv))
    assert emitted == {
        "method", "policy", "timeout", "memory_limit", "memory_window", "window_records",
        "precheck", "prune", "use_kernel", "proof_format", "backward",
    }
    assert emitted <= ALLOWED_JOB_OPTIONS
    assert ALLOWED_JOB_OPTIONS <= {field.name for field in fields(SupervisorConfig)}
