"""Streaming parsers and writers for clausal proofs (DRUP/DRAT).

The paper's resolution traces are the direct ancestor of today's clausal
proof formats; this module is the repo's front door for the industry side
of that lineage. It understands both encodings every modern solver emits:

Text (one step per line, drat-trim compatible)::

    l1 l2 ... 0        add a clause
    d l1 l2 ... 0      delete a clause
    0                  add the empty clause (end of proof)
    c ...              comment

Binary DRAT (the standard ``a``/``d``-tagged variable-byte encoding)::

    step    := tag literal* 0x00
    tag     := 0x61 ('a', add) | 0x64 ('d', delete)
    literal := LEB128 varint of (2*l if l > 0 else -2*l + 1)

Binary proofs are decoded zero-copy off an ``mmap`` of the file in
batches, the same machinery :mod:`repro.trace.binary_format` uses for
RTB1 traces, so arbitrarily large proofs never fully reside in memory.
Malformations (truncated varints, missing terminators, bogus tags,
non-integer tokens) and a proof file that cannot be opened or read raise
:class:`~repro.checker.errors.CheckFailure` with
``FailureKind.MALFORMED_PROOF`` — a verdict about the proof artifact,
distinct from a failed RUP/RAT check.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

from repro import faults
from repro.checker.errors import CheckFailure, FailureKind
from repro.trace.binary_format import MAGIC as TRACE_MAGIC, encode_varint

FP_PARSE = faults.register_fault_point(
    "proofs.parse",
    doc="at the start of one proof parse pass (key = text|binary)",
)

_TAG_ADD = 0x61  # ord("a")
_TAG_DELETE = 0x64  # ord("d")

#: Steps decoded per zero-copy batch off the mapped binary proof.
DEFAULT_BATCH_STEPS = 4096

#: Bytes sniffed from the head of a file for format/encoding detection.
_SNIFF_BYTES = 4096

#: One proof step: ("add" | "delete", literals).
ProofStep = tuple[str, list[int]]


# -- encoding detection --------------------------------------------------------


def _unreadable(path: str | Path, exc: OSError) -> CheckFailure:
    return CheckFailure(FailureKind.MALFORMED_PROOF, f"{path}: {exc}")


def _sniff(path: str | Path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read(_SNIFF_BYTES)


def detect_proof_encoding(path: str | Path) -> str:
    """``"text"`` or ``"binary"``, from the file head (drat-trim style).

    A binary proof's first byte is an ``a``/``d`` tag; text proofs start
    with a digit, ``-``, a ``c`` comment, or ``d`` followed by a space.
    The 0x00 step terminator never occurs in text, so a NUL anywhere in
    the sniffed head also means binary. Empty proofs count as text.
    """
    head = _sniff(path)
    if not head:
        return "text"
    if head[0] == _TAG_ADD:
        return "binary"
    if head[0] == _TAG_DELETE and (len(head) == 1 or head[1] not in b" \t"):
        return "binary"
    if 0 in head:
        return "binary"
    return "text"


def detect_source_format(path: str | Path) -> str:
    """``"trace"`` or ``"proof"``: what kind of artifact is this file?

    Resolution traces are unmistakable: binary traces open with the RTB1
    magic, ASCII traces with a record keyword (``T``, ``CL``, ``D``,
    ``V``, ``CONF``, ``R``) or a ``#`` comment. Everything else — digits,
    ``c`` comments, ``d`` deletions, binary DRAT tags — is a clausal
    proof. This is what ``repro check --proof-format auto`` runs on.
    """
    head = _sniff(path)
    if head.startswith(TRACE_MAGIC):
        return "trace"
    if detect_proof_encoding(path) == "binary":
        return "proof"
    for raw in head.decode("ascii", errors="replace").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return "trace"
        token = line.split()[0]
        return "trace" if token in ("T", "CL", "D", "V", "CONF", "R") else "proof"
    return "proof"


# -- text decoding -------------------------------------------------------------


def iter_text_proof(path: str | Path) -> Iterator[ProofStep]:
    """Yield ("add" | "delete", literals) steps from a text DRUP/DRAT file."""
    try:
        handle = open(path, "r", encoding="ascii")
    except OSError as exc:
        raise _unreadable(path, exc) from None
    with handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("c"):
                    continue
                kind = "add"
                if line.startswith("d ") or line == "d":
                    kind = "delete"
                    line = line[2:]
                tokens = line.split()
                if not tokens or tokens[-1] != "0":
                    raise CheckFailure(
                        FailureKind.MALFORMED_PROOF,
                        "proof line does not end with the terminating 0",
                        line_number=lineno,
                    )
                try:
                    literals = [int(tok) for tok in tokens[:-1]]
                except ValueError:
                    raise CheckFailure(
                        FailureKind.MALFORMED_PROOF,
                        "proof line contains a non-integer token",
                        line_number=lineno,
                    ) from None
                if 0 in literals:
                    raise CheckFailure(
                        FailureKind.MALFORMED_PROOF,
                        "literal 0 inside a clause (stray terminator)",
                        line_number=lineno,
                    )
                yield kind, literals
        except UnicodeDecodeError as exc:
            raise CheckFailure(
                FailureKind.MALFORMED_PROOF,
                f"proof is not ASCII text ({exc.reason}); "
                "binary proofs must be parsed with encoding='binary'",
                path=str(path),
            ) from None
        except OSError as exc:
            raise _unreadable(path, exc) from None


# -- binary decoding (mmap zero-copy) ------------------------------------------


class MappedProof:
    """A zero-copy ``mmap`` view of a binary DRAT file.

    Same shape as :class:`~repro.trace.binary_format.MappedBinaryTrace`,
    minus the magic: binary DRAT has no header, steps start at offset 0.
    A zero-length file maps to an empty view (the empty proof).
    """

    __slots__ = ("path", "_file", "_map", "view", "size")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self._file: IO[bytes] | None = open(self.path, "rb")
        except OSError as exc:
            raise _unreadable(path, exc) from None
        self._map: mmap.mmap | None = None
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            # Zero-length files cannot be mapped; an empty proof is valid
            # input (it just fails NOT_EMPTY later).
            self.view: memoryview | None = memoryview(b"")
        except OSError as exc:
            self._file.close()
            self._file = None
            raise CheckFailure(
                FailureKind.MALFORMED_PROOF,
                f"cannot map binary proof ({exc})",
                path=str(path),
            ) from None
        else:
            self.view = memoryview(self._map)
        self.size = len(self.view)

    def close(self) -> None:
        if self.view is not None:
            self.view.release()
            self.view = None
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MappedProof":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def decode_proof_batch(
    view: memoryview, pos: int, max_steps: int
) -> tuple[list[ProofStep], int]:
    """Decode up to ``max_steps`` steps from a mapped binary proof at ``pos``.

    Returns ``(steps, new_pos)``; empty ``steps`` means end of proof. The
    buffer is the whole mapping, so running off the end of the view is a
    truncated proof, not a torn chunk to rewind.
    """
    steps: list[ProofStep] = []
    append = steps.append
    end = len(view)
    try:
        while max_steps > 0 and pos < end:
            max_steps -= 1
            step_start = pos
            tag = view[pos]
            pos += 1
            if tag == _TAG_ADD:
                kind = "add"
            elif tag == _TAG_DELETE:
                kind = "delete"
            else:
                raise CheckFailure(
                    FailureKind.MALFORMED_PROOF,
                    f"bad step tag 0x{tag:02x} (want 'a' or 'd')",
                    offset=step_start,
                )
            literals: list[int] = []
            lit_append = literals.append
            while True:
                # The varint is inlined; failures name its first byte.
                start = pos
                value = view[pos]
                pos += 1
                if value & 0x80:
                    value &= 0x7F
                    shift = 7
                    while True:
                        byte = view[pos]
                        pos += 1
                        value |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise CheckFailure(
                                FailureKind.MALFORMED_PROOF,
                                "varint too long",
                                offset=start,
                            )
                if not value:
                    break
                lit_append(-(value >> 1) if value & 1 else value >> 1)
            append((kind, literals))
    except IndexError:
        if start >= end:
            raise CheckFailure(
                FailureKind.MALFORMED_PROOF,
                "proof ends inside a step (missing terminating 0)",
                offset=step_start,
            ) from None
        raise CheckFailure(
            FailureKind.MALFORMED_PROOF,
            "truncated varint at end of proof",
            offset=start,
        ) from None
    return steps, pos


def iter_binary_proof(
    path: str | Path, batch_steps: int = DEFAULT_BATCH_STEPS
) -> Iterator[ProofStep]:
    """Stream steps from a binary DRAT file via mapped batch decoding."""
    with MappedProof(path) as mapped:
        view = mapped.view
        assert view is not None
        pos = 0
        while True:
            steps, pos = decode_proof_batch(view, pos, batch_steps)
            if not steps:
                return
            yield from steps


# -- the unified entry points --------------------------------------------------


def _resolve_encoding(path: str | Path, encoding: str) -> str:
    if encoding != "auto":
        return encoding
    try:
        return detect_proof_encoding(path)
    except OSError as exc:
        raise _unreadable(path, exc) from None


def iter_proof_steps(
    path: str | Path, encoding: str = "auto"
) -> Iterator[ProofStep]:
    """Stream ("add" | "delete", literals) steps from either encoding."""
    encoding = _resolve_encoding(path, encoding)
    faults.fault_point(FP_PARSE, key=encoding)
    if encoding == "binary":
        yield from iter_binary_proof(path)
    elif encoding == "text":
        yield from iter_text_proof(path)
    else:
        raise ValueError(f"unknown proof encoding {encoding!r}")


@dataclass
class ProofDocument:
    """A fully parsed proof plus the counts one streaming pass yields.

    ``num_adds`` counts non-empty add steps — the figure core-first
    pruning aligns against — folded into the same pass that materializes
    the steps, so callers never re-read the file just to count.
    """

    steps: list[ProofStep]
    encoding: str
    num_adds: int
    num_deletes: int
    has_empty: bool

    def __iter__(self) -> Iterator[ProofStep]:
        return iter(self.steps)


def read_proof(path: str | Path, encoding: str = "auto") -> ProofDocument:
    """Materialize a proof in one pass, counting as it goes."""
    encoding = _resolve_encoding(path, encoding)
    steps: list[ProofStep] = []
    num_adds = 0
    num_deletes = 0
    has_empty = False
    for step in iter_proof_steps(path, encoding):
        steps.append(step)
        kind, literals = step
        if kind == "delete":
            num_deletes += 1
        elif literals:
            num_adds += 1
        else:
            has_empty = True
    return ProofDocument(
        steps=steps,
        encoding=encoding,
        num_adds=num_adds,
        num_deletes=num_deletes,
        has_empty=has_empty,
    )


# -- writers -------------------------------------------------------------------


class TextProofWriter:
    """Writes DRUP/DRAT steps in the one-clause-per-line text format."""

    encoding = "text"

    def __init__(self, path: str | Path):
        self._handle: IO[str] = open(path, "w", encoding="ascii")
        self._closed = False

    def _render(self, literals: Sequence[int]) -> str:
        if 0 in literals:
            raise ValueError("literal 0 cannot appear inside a clause")
        return " ".join(map(str, literals))

    def add_clause(self, literals: Sequence[int]) -> None:
        self._handle.write(self._render(literals) + " 0\n")

    def delete_clause(self, literals: Sequence[int]) -> None:
        self._handle.write("d " + self._render(literals) + " 0\n")

    def finish_unsat(self) -> None:
        self._handle.write("0\n")

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "TextProofWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class BinaryProofWriter:
    """Writes the standard binary DRAT encoding (see module docstring)."""

    encoding = "binary"

    def __init__(self, path: str | Path):
        self._handle: IO[bytes] = open(path, "wb")
        self._closed = False

    def _step(self, tag: int, literals: Sequence[int]) -> None:
        out = bytearray((tag,))
        for lit in literals:
            if lit == 0:
                raise ValueError("literal 0 cannot appear inside a clause")
            out += encode_varint((lit << 1) if lit > 0 else ((-lit) << 1) | 1)
        out.append(0)
        self._handle.write(bytes(out))

    def add_clause(self, literals: Sequence[int]) -> None:
        self._step(_TAG_ADD, literals)

    def delete_clause(self, literals: Sequence[int]) -> None:
        self._step(_TAG_DELETE, literals)

    def finish_unsat(self) -> None:
        self._step(_TAG_ADD, ())

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "BinaryProofWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_proof_writer(
    path: str | Path, fmt: str = "text"
) -> TextProofWriter | BinaryProofWriter:
    """A proof writer for ``fmt`` ("text" or "binary")."""
    if fmt == "text":
        return TextProofWriter(path)
    if fmt == "binary":
        return BinaryProofWriter(path)
    raise ValueError(f"unknown proof format {fmt!r} (want 'text' or 'binary')")
