"""Static pre-pass for the checkers: reject garbage before the replay.

All three checkers accept ``precheck=True``; the pre-pass runs the
:mod:`repro.analysis` linter over the trace source (streaming for file
sources) and converts any error-severity diagnostic into a
:class:`~repro.checker.errors.CheckFailure` of kind ``STATIC_PRECHECK``
*before* a single clause is built or a single resolution performed. The
failure context carries the rule IDs so callers can triage without
re-running the linter. A trace file the linter cannot open or read is a
``MALFORMED_TRACE`` failure, as it is for the checkers themselves.
"""

from __future__ import annotations

from repro.checker.errors import CheckFailure, FailureKind


def run_precheck(source) -> "AnalysisReport":  # noqa: F821 - forward ref in doc
    """Lint ``source``; raise :class:`CheckFailure` if any error rule fired.

    Returns the full :class:`~repro.analysis.diagnostics.AnalysisReport` so
    callers can surface warnings and reachability even on success. Imported
    lazily to keep :mod:`repro.analysis` free of checker dependencies (the
    analyzer must never touch resolution).
    """
    from repro.analysis import analyze_trace

    try:
        report = analyze_trace(source)
    except OSError as exc:
        raise CheckFailure(FailureKind.MALFORMED_TRACE, f"{source}: {exc}") from None
    if not report.ok:
        first = report.errors[0]
        raise CheckFailure(
            FailureKind.STATIC_PRECHECK,
            "static trace analysis rejected the trace before replay: "
            + first.message,
            rules=sorted({d.rule_id for d in report.errors}),
            num_errors=len(report.errors),
            record_index=first.record_index,
            cids=list(first.cids),
        )
    return report
