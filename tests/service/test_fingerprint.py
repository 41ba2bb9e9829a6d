"""Content addressing: same content ⇒ same key, any difference ⇒ different."""

import shutil

from repro.cnf import CnfFormula
from repro.service.fingerprint import (
    fingerprint_check,
    fingerprint_formula,
    fingerprint_options,
    fingerprint_trace,
    job_key,
)
from repro.trace import load_trace, sha256_file, trace_content_hash


def test_formula_fingerprint_is_content_stable():
    a = CnfFormula(3, [[1, 2], [-1, 3]])
    b = CnfFormula(3, [[1, 2], [-1, 3]])
    assert fingerprint_formula(a) == fingerprint_formula(b)


def test_formula_fingerprint_sees_clause_order():
    # Clause IDs are positional, so swapped clauses are a different check.
    a = CnfFormula(3, [[1, 2], [-1, 3]])
    b = CnfFormula(3, [[-1, 3], [1, 2]])
    assert fingerprint_formula(a) != fingerprint_formula(b)


def test_formula_fingerprint_sees_dimensions():
    a = CnfFormula(3, [[1, 2]])
    b = CnfFormula(4, [[1, 2]])
    assert fingerprint_formula(a) != fingerprint_formula(b)


def test_trace_file_hash_matches_bytes(artifacts, tmp_path):
    _, _, ascii_path, _ = artifacts
    copy = tmp_path / "copy.trace"
    shutil.copy(ascii_path, copy)
    assert trace_content_hash(ascii_path) == trace_content_hash(copy)
    assert trace_content_hash(ascii_path) == sha256_file(ascii_path)


def test_trace_file_hash_sees_any_byte_change(artifacts, tmp_path):
    _, _, ascii_path, _ = artifacts
    mutated = tmp_path / "mutated.trace"
    data = bytearray(open(ascii_path, "rb").read())
    data[len(data) // 2] ^= 0x01
    mutated.write_bytes(bytes(data))
    assert trace_content_hash(ascii_path) != trace_content_hash(mutated)


def test_trace_object_hash_is_canonical(artifacts):
    _, _, ascii_path, _ = artifacts
    first = load_trace(ascii_path)
    second = load_trace(ascii_path)
    assert trace_content_hash(first) == trace_content_hash(second)


def test_ascii_and_binary_encodings_are_distinct_artifacts(artifacts):
    # Same proof, different bytes: deliberately different fingerprints.
    _, _, ascii_path, binary_path = artifacts
    assert fingerprint_trace(ascii_path) != fingerprint_trace(binary_path)


def test_options_fingerprint_ignores_non_verdict_options():
    base = fingerprint_options({"method": "bf"})
    assert fingerprint_options({"method": "bf", "checkpoint_path": "/x"}) == base
    assert fingerprint_options({"method": "bf", "timeout": None}) == base
    assert fingerprint_options({"method": "df"}) != base
    assert fingerprint_options({"method": "bf", "memory_limit": 100}) != base


def test_options_fingerprint_is_pinned_across_keyed_option_changes():
    # Unset options never reach the hash, so dropping a name from
    # KEYED_OPTIONS leaves every cache line written without it valid.
    assert fingerprint_options({"method": "bf"}) == (
        "ffa5f0fb4e6e20913d7e913bc119fdc493f487c1c636a6fe428748642493b1d2"
    )


def test_options_fingerprint_separates_pruned_from_unpruned():
    base = fingerprint_options({"method": "bf"})
    assert fingerprint_options({"method": "bf", "prune": True}) != base


def test_job_key_depends_on_every_component():
    key = job_key("a", "b", "c")
    assert job_key("x", "b", "c") != key
    assert job_key("a", "x", "c") != key
    assert job_key("a", "b", "x") != key


def test_fingerprint_check_from_paths(artifacts):
    formula, cnf, ascii_path, _ = artifacts
    by_path = fingerprint_check(cnf, ascii_path, {"method": "bf"})
    assert set(by_path) == {"formula_sha256", "trace_sha256", "options_sha256", "key"}
    by_object = fingerprint_check(formula, ascii_path, {"method": "bf"})
    # Path mode hashes the DIMACS bytes, object mode the canonical clauses:
    # same trace/options digests, same determinism within each mode.
    assert by_path["trace_sha256"] == by_object["trace_sha256"]
    assert by_path["options_sha256"] == by_object["options_sha256"]
    assert fingerprint_check(cnf, ascii_path, {"method": "bf"}) == by_path
