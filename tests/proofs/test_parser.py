"""Clausal proof parser: round-trip parity, detection, malformed inputs.

The text and binary encodings must be perfectly interchangeable: any step
sequence written through either writer reads back as the same steps, and
the two encodings of one proof are step-for-step identical. Malformations
are a distinct verdict (MALFORMED_PROOF), never a crash or a silent
acceptance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.errors import CheckFailure, FailureKind
from repro.proofs import (
    BinaryProofWriter,
    TextProofWriter,
    detect_proof_encoding,
    detect_source_format,
    iter_proof_steps,
    open_proof_writer,
    read_proof,
)

literal = st.integers(min_value=-60, max_value=60).filter(lambda lit: lit != 0)
clause = st.lists(literal, max_size=6)
step = st.tuples(st.sampled_from(["add", "delete"]), clause)
steps_strategy = st.lists(step, max_size=24)


def _write(path, steps, fmt):
    with open_proof_writer(path, fmt) as writer:
        for kind, literals in steps:
            if kind == "delete":
                writer.delete_clause(literals)
            else:
                writer.add_clause(literals)


# -- round-trip parity ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(steps=steps_strategy)
def test_text_binary_round_trip_parity(steps, tmp_path_factory):
    """Both encodings of one step list decode back to exactly that list."""
    root = tmp_path_factory.mktemp("proofs")
    decoded = {}
    for fmt in ("text", "binary"):
        path = root / f"p.{fmt}"
        _write(path, steps, fmt)
        assert detect_proof_encoding(path) == fmt or not steps
        decoded[fmt] = list(iter_proof_steps(path, encoding=fmt))
    expected = [(kind, list(lits)) for kind, lits in steps]
    assert decoded["text"] == expected
    assert decoded["binary"] == expected


@settings(max_examples=50, deadline=None)
@given(steps=steps_strategy)
def test_auto_detection_round_trip(steps, tmp_path_factory):
    """encoding='auto' picks the right decoder for either encoding."""
    root = tmp_path_factory.mktemp("proofs")
    for fmt in ("text", "binary"):
        path = root / f"p.{fmt}"
        _write(path, steps, fmt)
        assert list(iter_proof_steps(path)) == [
            (kind, list(lits)) for kind, lits in steps
        ]


def test_read_proof_counts(tmp_path):
    path = tmp_path / "p.drat"
    path.write_text("1 2 0\nd 1 2 0\nc comment\n-3 0\n0\n")
    doc = read_proof(path)
    assert doc.encoding == "text"
    assert doc.num_adds == 2
    assert doc.num_deletes == 1
    assert doc.has_empty
    assert list(doc) == [
        ("add", [1, 2]),
        ("delete", [1, 2]),
        ("add", [-3]),
        ("add", []),
    ]


def test_empty_proof_round_trip(tmp_path):
    """A zero-length file is the valid (if useless) empty proof."""
    for fmt in ("text", "binary"):
        path = tmp_path / f"empty.{fmt}"
        _write(path, [], fmt)
        doc = read_proof(path)
        assert doc.steps == []
        assert not doc.has_empty


def test_finish_unsat_is_the_empty_add(tmp_path):
    for fmt in ("text", "binary"):
        path = tmp_path / f"p.{fmt}"
        with open_proof_writer(path, fmt) as writer:
            writer.add_clause([1])
            writer.finish_unsat()
        assert list(iter_proof_steps(path)) == [("add", [1]), ("add", [])]


# -- encoding / source detection -----------------------------------------------


def test_detect_encoding_text_shapes(tmp_path):
    for body in ("1 2 0\n", "-1 0\n", "c hi\n1 0\n", "d 1 0\n", "0\n", ""):
        path = tmp_path / "p.drup"
        path.write_text(body)
        assert detect_proof_encoding(path) == "text", repr(body)


def test_detect_encoding_binary_shapes(tmp_path):
    path = tmp_path / "p.bdrat"
    path.write_bytes(bytes([0x61, 0x02, 0x00]))  # "a 1 0"
    assert detect_proof_encoding(path) == "binary"
    path.write_bytes(bytes([0x64, 0x02, 0x00]))  # "d 1 0" binary
    assert detect_proof_encoding(path) == "binary"


def test_detect_source_format(tmp_path):
    from repro.trace.binary_format import MAGIC

    proof = tmp_path / "p.drat"
    proof.write_text("1 2 0\n0\n")
    assert detect_source_format(proof) == "proof"

    trace = tmp_path / "t.trace"
    trace.write_text("# resolution trace\nCL 1 1 2 0\n")
    assert detect_source_format(trace) == "trace"
    trace.write_text("T 10 5\n")
    assert detect_source_format(trace) == "trace"

    binary_trace = tmp_path / "t.rtb"
    binary_trace.write_bytes(MAGIC + b"\x00\x01")
    assert detect_source_format(binary_trace) == "trace"

    binary_proof = tmp_path / "p.bdrat"
    binary_proof.write_bytes(bytes([0x61, 0x02, 0x00]))
    assert detect_source_format(binary_proof) == "proof"


# -- malformed proofs ----------------------------------------------------------


def _malformed(path, encoding="auto"):
    with pytest.raises(CheckFailure) as excinfo:
        list(iter_proof_steps(path, encoding=encoding))
    assert excinfo.value.kind == FailureKind.MALFORMED_PROOF
    return excinfo.value


def test_text_missing_terminator(tmp_path):
    path = tmp_path / "p.drup"
    path.write_text("1 2\n")
    failure = _malformed(path)
    assert failure.context["line_number"] == 1


def test_text_non_integer_token(tmp_path):
    path = tmp_path / "p.drup"
    path.write_text("1 banana 0\n")
    _malformed(path)


def test_text_stray_zero_inside_clause(tmp_path):
    path = tmp_path / "p.drup"
    path.write_text("1 0 2 0\n")
    _malformed(path)


def test_binary_bytes_parsed_as_text(tmp_path):
    """Forcing encoding='text' on a binary proof is malformed, not a crash."""
    path = tmp_path / "p.bdrat"
    with open_proof_writer(path, "binary") as writer:
        for lit in range(1, 200):
            writer.add_clause([lit, -(lit + 1)])
    _malformed(path, encoding="text")


def test_binary_bogus_tag(tmp_path):
    path = tmp_path / "p.bdrat"
    path.write_bytes(bytes([0x62, 0x02, 0x00]))
    failure = _malformed(path)
    assert "tag" in failure.message


def test_binary_missing_step_terminator(tmp_path):
    path = tmp_path / "p.bdrat"
    path.write_bytes(bytes([0x61, 0x02]))  # "a 1" then EOF
    _malformed(path)


def test_binary_truncated_varint(tmp_path):
    path = tmp_path / "p.bdrat"
    path.write_bytes(bytes([0x61, 0x80]))  # continuation bit, no next byte
    _malformed(path)


@pytest.mark.parametrize(
    "payload,message",
    [
        (bytes([0x61, 0x02, 0x84]), "truncated varint at end of proof"),
        (bytes([0x61, 0x02, 0x84, 0x81]), "truncated varint at end of proof"),
        (bytes([0x61, 0x02] + [0xFF] * 11 + [0x01, 0x00]), "varint too long"),
    ],
    ids=["truncated", "truncated-multi-byte", "too-long"],
)
def test_binary_varint_failures_name_the_varint_start(tmp_path, payload, message):
    """The offset is the first byte of the offending literal's varint."""
    path = tmp_path / "p.bdrat"
    path.write_bytes(payload)
    failure = _malformed(path)
    assert (failure.message, failure.context) == (message, {"offset": 2})


def test_binary_multi_byte_varints_decode(tmp_path):
    big = [64, -64, 8191, -8192, 2**20 + 3, -(2**40)]
    path = tmp_path / "p.bdrat"
    _write(path, [("add", big), ("delete", big[::-1])], "binary")
    # A zero spelled over two bytes still ends its step.
    path.write_bytes(path.read_bytes() + bytes([0x61, 0x02, 0x80, 0x00]))
    assert list(iter_proof_steps(path)) == [("add", big), ("delete", big[::-1]), ("add", [1])]


@settings(max_examples=80, deadline=None)
@given(cut=st.integers(min_value=0, max_value=200))
def test_truncated_binary_proof_never_crashes(cut, tmp_path_factory):
    """Any prefix of a valid binary proof parses or is MALFORMED_PROOF."""
    root = tmp_path_factory.mktemp("proofs")
    full = root / "full.bdrat"
    steps = [("add", [i, -(i + 1), 300 + i]) for i in range(1, 40)]
    _write(full, steps, "binary")
    blob = full.read_bytes()
    truncated = root / "cut.bdrat"
    truncated.write_bytes(blob[: min(cut, len(blob))])
    try:
        list(iter_proof_steps(truncated, encoding="binary"))
    except CheckFailure as failure:
        assert failure.kind == FailureKind.MALFORMED_PROOF


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=120))
def test_random_bytes_never_crash_binary_decoder(payload, tmp_path_factory):
    root = tmp_path_factory.mktemp("proofs")
    path = root / "junk.bdrat"
    path.write_bytes(payload)
    try:
        list(iter_proof_steps(path, encoding="binary"))
    except CheckFailure as failure:
        assert failure.kind == FailureKind.MALFORMED_PROOF


# -- writers -------------------------------------------------------------------


def test_writers_reject_literal_zero(tmp_path):
    for fmt, cls in (("text", TextProofWriter), ("binary", BinaryProofWriter)):
        with cls(tmp_path / f"p.{fmt}") as writer:
            with pytest.raises(ValueError):
                writer.add_clause([1, 0, 2])
            with pytest.raises(ValueError):
                writer.delete_clause([0])


def test_open_proof_writer_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        open_proof_writer(tmp_path / "p", "gzip")


def test_unknown_encoding_rejected(tmp_path):
    path = tmp_path / "p.drup"
    path.write_text("0\n")
    with pytest.raises(ValueError):
        list(iter_proof_steps(path, encoding="morse"))
