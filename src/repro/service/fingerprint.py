"""Content-addressing for checking work: what makes two checks "the same".

A verdict is a function of exactly three inputs: the formula, the trace,
and the checking options that can change the verdict's *content* (method,
budgets, policy). The service keys all persistent state — verdict cache
entries, job dedup — on streaming SHA-256 fingerprints of those three,
combined into one hex ``job_key``. Cruz-Filipe et al.'s observation that
pre-processed proof artifacts are worth persisting only holds if the
artifact can never be confused with another; the full 256-bit key is that
guarantee.

Trace hashing lives in :mod:`repro.trace.fingerprint` (the checkpoint
format shares it); this module adds the formula and options sides plus
the key combinator.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cnf import CnfFormula
from repro.trace.fingerprint import sha256_file, sha256_text, trace_content_hash
from repro.trace.records import Trace

#: Option names whose values feed the cache key. Anything else (profiling,
#: checkpoint paths, worker counts) changes *how* a verdict is computed,
#: not *what* it says — two runs differing only in those must share a
#: cache line.
KEYED_OPTIONS = (
    "method",
    "policy",
    "timeout",
    "memory_limit",
    "use_kernel",
    "precheck",
    # Pruning changes the report's content (prune stats, clauses_built), so
    # pruned and unpruned verdicts must occupy distinct cache lines even
    # though the verdict itself is guaranteed identical.
    "prune",
    # The streaming checker's window_stats and memory payloads depend on
    # both of these, so they are keyed like prune above.
    "memory_window",
    "window_records",
    # DRAT proofs: backward (core-first) checking changes the report's
    # content (prune/proof stats) exactly like trace pruning does, and the
    # declared proof format is part of what the verdict asserts.
    "backward",
    "proof_format",
)


def fingerprint_formula(formula: CnfFormula) -> str:
    """Streaming hash of a formula: dimensions plus every clause in ID order.

    Clause IDs are positional (1..m), so hashing the literal tuples in
    order pins both the clauses and the ID assignment the checkers rely
    on.
    """
    digest = hashlib.sha256()
    feed = digest.update
    feed(f"p cnf {formula.num_vars} {formula.num_clauses}\n".encode())
    for clause in formula:
        feed(" ".join(map(str, clause.literals)).encode())
        feed(b"\n")
    return digest.hexdigest()


def fingerprint_options(options: dict) -> str:
    """Hash of the verdict-relevant checking options, canonically encoded.

    Only :data:`KEYED_OPTIONS` participate; unset/None entries are
    dropped so "no timeout" and an absent key hash identically.
    """
    keyed = {
        name: options[name]
        for name in KEYED_OPTIONS
        if options.get(name) is not None
    }
    return sha256_text(json.dumps(keyed, sort_keys=True, separators=(",", ":")))


def fingerprint_trace(source: str | Path | Trace) -> str:
    """Content hash of the trace artifact (file bytes or canonical records)."""
    return trace_content_hash(source)


def job_key(formula_sha: str, trace_sha: str, options_sha: str) -> str:
    """Combine the three component digests into the cache/job key."""
    return sha256_text(f"{formula_sha}\n{trace_sha}\n{options_sha}")


def fingerprint_check(
    formula: CnfFormula | str | Path,
    trace_source: str | Path | Trace,
    options: dict,
) -> dict:
    """All four digests for one prospective check, as the dict the service
    threads through :attr:`CheckReport.fingerprint` and the cache.

    ``formula`` may be given as a DIMACS path — then the *file bytes* are
    hashed, which is cheaper than parsing and just as binding (the parse
    is deterministic).
    """
    if isinstance(formula, CnfFormula):
        formula_sha = fingerprint_formula(formula)
    else:
        formula_sha = sha256_file(formula)
    trace_sha = fingerprint_trace(trace_source)
    options_sha = fingerprint_options(options)
    return {
        "formula_sha256": formula_sha,
        "trace_sha256": trace_sha,
        "options_sha256": options_sha,
        "key": job_key(formula_sha, trace_sha, options_sha),
    }
