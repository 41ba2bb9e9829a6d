"""The streaming analysis engine: one pass, no resolution, no Trace.

``analyze_trace`` accepts an in-memory :class:`~repro.trace.records.Trace`,
a trace file path (ASCII or binary, auto-detected), or any iterable of
trace records. File sources are *streamed*: records flow straight from the
format iterator into the rules and are dropped — the full ``Trace`` is
never assembled, so the analyzer scales to traces the depth-first checker
memory-outs on (Table 2). The only per-clause state retained is the set of
defined IDs plus, when the reachability rule is enabled, the integer ID
graph (no literals, ever).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.rules import (
    RULE_REGISTRY,
    MalformedRecordRule,
    Rule,
    ScanState,
    default_rules,
    graph_rules,
)
from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    Trace,
    TraceError,
    TraceHeader,
    TraceRecord,
    TraceResult,
)

TraceSource = Trace | str | Path | Iterable[TraceRecord]


def _resolve_rules(rules: Sequence[str] | None) -> list[type[Rule]]:
    if rules is None:
        return default_rules()
    selected: list[type[Rule]] = []
    for rule_id in rules:
        try:
            selected.append(RULE_REGISTRY[rule_id])
        except KeyError:
            raise ValueError(
                f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULE_REGISTRY))}"
            ) from None
    return selected


def _open_source(source: TraceSource) -> tuple[Iterator[TraceRecord], str, bool]:
    """Return (record iterator, label, streaming?) for any supported source."""
    if isinstance(source, Trace):
        return source.records(), "<in-memory trace>", False
    if isinstance(source, (str, Path)):
        from repro.trace.io import iter_trace_records

        return iter_trace_records(source), str(source), True
    return iter(source), "<record stream>", True


def analyze_trace(
    source: TraceSource,
    rules: Sequence[str] | None = None,
    compute_reachability: bool = True,
    graph: bool = False,
) -> AnalysisReport:
    """Lint a resolution trace in a single streaming pass.

    ``rules`` restricts the pass to the given rule IDs (default: all
    stream-tier rules). ``compute_reachability=False`` drops rules that
    need the ID graph, making the pass strictly O(#learned) memory for the
    defined-ID set and O(1) per record otherwise. ``graph=True`` enables
    the graph tier: the derivation DAG is assembled from the scan, the
    global rules (T013+) run over it, and the report carries its stats —
    this implies reachability.
    """
    start = time.perf_counter()
    rule_classes = _resolve_rules(rules)
    if graph and rules is None:
        rule_classes = rule_classes + graph_rules()
    if not compute_reachability and not graph:
        rule_classes = [cls for cls in rule_classes if not cls.needs_graph]

    diagnostics: list[Diagnostic] = []
    active = [cls(diagnostics.append) for cls in rule_classes]
    build_graph = graph or any(cls.graph_only for cls in rule_classes)
    keep_graph = build_graph or any(cls.needs_graph for cls in rule_classes)

    state = ScanState()
    if keep_graph:
        state.sources_by_cid = {}
    if build_graph:
        state.learned_index = {}
        state.last_use_index = {}

    records, label, streaming = _open_source(source)
    index = 0
    while True:
        try:
            record = next(records)
        except StopIteration:
            break
        except TraceError as exc:
            MalformedRecordRule(diagnostics.append).parse_error(index, exc)
            break
        if isinstance(record, TraceHeader):
            for rule in active:
                rule.on_header(state, index, record)
            if state.header is None:
                state.header = record
                state.header_index = index
            else:
                state.extra_header_indices.append(index)
        elif isinstance(record, LearnedClause):
            if state.header is None:
                state.records_before_header += 1
            for rule in active:
                rule.on_learned(state, index, record)
            if record.cid not in state.defined:
                state.num_learned += 1
            else:
                state.duplicate_learned = True
            state.defined.add(record.cid)
            state.last_learned_cid = record.cid
            if state.sources_by_cid is not None:
                state.sources_by_cid[record.cid] = record.sources
            if state.learned_index is not None:
                state.learned_index.setdefault(record.cid, index)
            if state.last_use_index is not None:
                for source in record.sources:
                    state.last_use_index[source] = index
        elif isinstance(record, LevelZeroAssignment):
            if state.header is None:
                state.records_before_header += 1
            for rule in active:
                rule.on_level_zero(state, index, record)
            state.level_zero.append((index, record))
            if state.last_use_index is not None:
                state.last_use_index[record.antecedent] = index
        elif isinstance(record, FinalConflict):
            if state.header is None:
                state.records_before_header += 1
            for rule in active:
                rule.on_final_conflict(state, index, record)
            state.final_conflicts.append((index, record.cid))
            if state.last_use_index is not None:
                state.last_use_index[record.cid] = index
        elif isinstance(record, TraceResult):
            if state.header is None:
                state.records_before_header += 1
            for rule in active:
                rule.on_result(state, index, record)
            if state.status is None:
                state.status = record.status
            else:
                state.extra_result_indices.append(index)
        elif isinstance(record, ClauseDeletion):
            if state.header is None:
                state.records_before_header += 1
            for rule in active:
                rule.on_deletion(state, index, record)
            state.deletions.append((index, record.cid))
        else:  # pragma: no cover - defensive
            MalformedRecordRule(diagnostics.append).parse_error(
                index, TraceError(f"unknown record type {type(record).__name__}")
            )
        index += 1

    state.num_records = index
    if build_graph:
        from repro.analysis.graph import DerivationGraph

        state.graph = DerivationGraph.from_scan(state)

    for rule in active:
        rule.finish(state)

    diagnostics.sort(
        key=lambda d: (d.record_index is None, d.record_index or 0, d.rule_id)
    )
    graph_info: dict[str, Any] | None = None
    if state.graph is not None:
        graph_info = state.graph.stats().to_dict()
        graph_info["status"] = state.graph.status
        graph_info["prunable"] = state.graph.prune_plan() is not None
    return AnalysisReport(
        source=label,
        diagnostics=diagnostics,
        records_scanned=index,
        num_learned=state.num_learned,
        reachable_learned=state.reachable_learned,
        streaming=streaming,
        analysis_time=time.perf_counter() - start,
        graph=graph_info,
    )
