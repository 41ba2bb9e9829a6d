"""CLI surface for clausal proofs: --proof-format routing, --backward,
solve --drup-format, and the validation errors between them."""

from __future__ import annotations

import json

import pytest

from repro.cli import check_main, solve_main
from repro.proofs import detect_proof_encoding

from tools.gen_drat import generate


@pytest.fixture
def drat_files(tmp_path):
    inst = generate(core=3, dead=4, rat=1)
    cnf = tmp_path / "inst.cnf"
    inst.write_cnf(cnf)
    text = tmp_path / "inst.drat"
    inst.write_proof(text, "text")
    binary = tmp_path / "inst.bdrat"
    inst.write_proof(binary, "binary")
    return str(cnf), str(text), str(binary)


@pytest.mark.parametrize("which", [1, 2])  # text, binary
def test_check_drat_explicit(drat_files, capsys, which):
    cnf = drat_files[0]
    proof = drat_files[which]
    assert check_main([cnf, proof, "--method", "drat"]) == 0
    assert "Check Succeeded" in capsys.readouterr().out


def test_check_auto_detects_clausal_proof(drat_files, capsys):
    """No flags at all: the default df method sniffs the file and routes a
    clausal proof to the DRAT checker."""
    cnf, text, binary = drat_files
    for proof in (text, binary):
        assert check_main([cnf, proof, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "drat"
        assert payload["verified"] is True


def test_check_proof_format_drup_routes_to_rup(drat_files, tmp_path, capsys):
    cnf = drat_files[0]
    inst = generate(core=3, dead=2, rat=0)  # pure RUP content
    cnf = tmp_path / "rup.cnf"
    inst.write_cnf(cnf)
    proof = tmp_path / "rup.drup"
    inst.write_proof(proof, "text")
    assert check_main([str(cnf), str(proof), "--proof-format", "drup",
                       "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "rup"


def test_check_backward_reports_prune(drat_files, capsys):
    cnf, text, _ = drat_files
    assert check_main([cnf, text, "--method", "drat", "--backward",
                       "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["prune"]["mode"] == "backward"
    assert payload["prune"]["skipped"] >= 4


def test_check_flipped_proof_fails(drat_files, tmp_path, capsys):
    cnf, text, _ = drat_files
    from pathlib import Path

    lines = Path(text).read_text().splitlines()
    tokens = lines[0].split()
    tokens[0] = str(-int(tokens[0]))
    lines[0] = " ".join(tokens)
    flipped = tmp_path / "flipped.drat"
    flipped.write_text("\n".join(lines) + "\n")
    assert check_main([cnf, str(flipped), "--method", "drat"]) == 1
    assert "Check Failed" in capsys.readouterr().out


@pytest.mark.parametrize("argv_tail", [
    ["--method", "rup", "--proof-format", "trace"],
    ["--method", "drat", "--proof-format", "trace"],
    ["--method", "drat", "--proof-format", "drup"],
    ["--method", "rup", "--proof-format", "drat"],
    ["--method", "bf", "--proof-format", "drat"],
    ["--method", "bf", "--backward"],    # --backward needs the drat method
    ["--method", "drat", "--prune"],     # trace-only flag
    ["--method", "drat", "--precheck"],  # trace-only flag
])
def test_check_rejects_conflicting_proof_flags(drat_files, argv_tail):
    cnf, text, _ = drat_files
    with pytest.raises(SystemExit):
        check_main([cnf, text, *argv_tail])


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_solve_drup_format_end_to_end(tmp_path, fmt):
    from repro.cnf import write_dimacs_file
    from repro.generators import pigeonhole

    cnf = tmp_path / "php.cnf"
    write_dimacs_file(pigeonhole(4, 3), cnf)
    proof = tmp_path / "php.proof"
    assert solve_main([str(cnf), "--drup", str(proof),
                       "--drup-format", fmt]) == 0
    assert detect_proof_encoding(proof) == fmt
    # Both clausal checkers accept the solver's proof in either encoding.
    assert check_main([str(cnf), str(proof), "--method", "drat"]) == 0
    assert check_main([str(cnf), str(proof), "--method", "rup"]) == 0
