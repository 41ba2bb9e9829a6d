"""Clausal proof formats (DRUP/DRAT): parsing, writing, RAT checking.

The front end for industry proof formats, closing the ROADMAP's "ingest
DRUP/DRAT" gap: streaming parsers for the text and binary encodings
(:mod:`repro.proofs.parser`), proof writers the solver's DRUP path plugs
into, :class:`DratChecker` — RUP with a full RAT fallback, forward or
backward/core-first — and :class:`RupChecker`, its forward pass with the
RAT fallback off (:mod:`repro.proofs.drat`).
"""

from repro.proofs.parser import (
    BinaryProofWriter,
    MappedProof,
    ProofDocument,
    TextProofWriter,
    decode_proof_batch,
    detect_proof_encoding,
    detect_source_format,
    iter_binary_proof,
    iter_proof_steps,
    iter_text_proof,
    open_proof_writer,
    read_proof,
)
from repro.proofs.drat import DratChecker, RupChecker

__all__ = [
    "BinaryProofWriter",
    "DratChecker",
    "MappedProof",
    "ProofDocument",
    "RupChecker",
    "TextProofWriter",
    "decode_proof_batch",
    "detect_proof_encoding",
    "detect_source_format",
    "iter_binary_proof",
    "iter_proof_steps",
    "iter_text_proof",
    "open_proof_writer",
    "read_proof",
]
