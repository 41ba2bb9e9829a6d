"""The lint rule registry: structural invariants of a resolution trace.

Each rule is a small class with a stable ID (``T001`` …), a severity, and a
one-line rationale; the catalog is rendered into ``docs/static_analysis.md``.
Rules observe the record stream through event hooks and emit structured
:class:`~repro.analysis.diagnostics.Diagnostic` objects — they never build a
clause and never perform a resolution step, which is what makes the whole
pass a cheap single scan over the antecedent graph.

Shared bookkeeping (defined-ID set, trail, ID graph) lives in
:class:`ScanState`, maintained by the engine in ``analyzer.py``; rules only
read it. A rule that needs the full ID graph (reachability) sets
``needs_graph`` so the engine can skip graph retention when the rule is
disabled — that is what keeps streaming mode lean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.graph import backward_closure, cone_roots
from repro.trace.records import (
    ClauseDeletion,
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    TraceHeader,
    TraceResult,
)

if TYPE_CHECKING:
    from repro.analysis.graph import DerivationGraph


@dataclass
class ScanState:
    """What the engine has seen so far; shared read-only by all rules."""

    header: TraceHeader | None = None
    header_index: int | None = None
    extra_header_indices: list[int] = field(default_factory=list)
    records_before_header: int = 0
    defined: set[int] = field(default_factory=set)
    last_learned_cid: int | None = None
    num_learned: int = 0
    sources_by_cid: dict[int, tuple[int, ...]] | None = None
    level_zero: list[tuple[int, LevelZeroAssignment]] = field(default_factory=list)
    final_conflicts: list[tuple[int, int]] = field(default_factory=list)
    status: str | None = None
    extra_result_indices: list[int] = field(default_factory=list)
    reachable_learned: int | None = None
    duplicate_learned: bool = False
    num_records: int = 0
    deletions: list[tuple[int, int]] = field(default_factory=list)
    # Detail maps, maintained only in graph mode (``None`` otherwise):
    learned_index: dict[int, int] | None = None
    last_use_index: dict[int, int] | None = None
    # The assembled DAG, attached by the engine before finish() in graph mode.
    graph: DerivationGraph | None = None

    @property
    def num_original(self) -> int | None:
        return None if self.header is None else self.header.num_original_clauses

    @property
    def num_vars(self) -> int | None:
        return None if self.header is None else self.header.num_vars

    def is_defined(self, cid: int) -> bool:
        """Whether ``cid`` names an original clause or an already-seen learned one."""
        num_original = self.num_original or 0
        return 1 <= cid <= num_original or cid in self.defined


Emit = Callable[[Diagnostic], None]


class Rule:
    """Base class: a single structural invariant over the record stream."""

    rule_id: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[Severity]
    rationale: ClassVar[str]
    needs_graph: ClassVar[bool] = False
    # Graph-tier rules (T013+) read the assembled DerivationGraph and only
    # run when the caller opts in (``analyze_trace(graph=True)`` / explicit
    # selection) — keeping the default pass and its verdicts unchanged.
    graph_only: ClassVar[bool] = False

    def __init__(self, emit: Emit) -> None:
        self._emit = emit

    def report(
        self,
        message: str,
        index: int | None = None,
        cids: tuple[int, ...] = (),
        severity: Severity | None = None,
        **context: object,
    ) -> None:
        self._emit(
            Diagnostic(
                rule_id=self.rule_id,
                severity=severity or self.severity,
                message=message,
                record_index=index,
                cids=cids,
                context=dict(context),
            )
        )

    # Event hooks: the engine calls these BEFORE folding the record into the
    # shared state, so e.g. the duplicate-ID rule sees "defined before me".
    def on_header(self, state: ScanState, index: int, record: TraceHeader) -> None: ...

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None: ...

    def on_level_zero(
        self, state: ScanState, index: int, record: LevelZeroAssignment
    ) -> None: ...

    def on_final_conflict(
        self, state: ScanState, index: int, record: FinalConflict
    ) -> None: ...

    def on_result(self, state: ScanState, index: int, record: TraceResult) -> None: ...

    def on_deletion(
        self, state: ScanState, index: int, record: ClauseDeletion
    ) -> None: ...

    def finish(self, state: ScanState) -> None: ...


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    if cls.rule_id in RULE_REGISTRY:  # pragma: no cover - defensive
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def default_rules() -> list[type[Rule]]:
    """All stream-tier rules (graph-tier excluded), in rule-ID order."""
    return [
        RULE_REGISTRY[rule_id]
        for rule_id in sorted(RULE_REGISTRY)
        if not RULE_REGISTRY[rule_id].graph_only
    ]


def graph_rules() -> list[type[Rule]]:
    """The graph-tier rules (T013+), in rule-ID order."""
    return [
        RULE_REGISTRY[rule_id]
        for rule_id in sorted(RULE_REGISTRY)
        if RULE_REGISTRY[rule_id].graph_only
    ]


@register_rule
class DanglingReferenceRule(Rule):
    """A record names a clause ID that is never defined: the checker would
    hit an unknown clause deep into the replay; catch it in the scan."""

    rule_id = "T001"
    name = "dangling-reference"
    severity = Severity.ERROR
    rationale = (
        "Every resolve source, level-0 antecedent, and final conflict must "
        "name an original clause or a previously recorded learned clause."
    )

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None:
        if state.num_original is None:
            return  # no header: T008 owns this failure mode
        for source in record.sources:
            if source >= record.cid:
                continue  # forward/self reference: T002's finding
            if not state.is_defined(source):
                self.report(
                    "learned clause resolves from a source ID that is not an "
                    "original clause and was never recorded before this point",
                    index=index,
                    cids=(record.cid, source),
                    source=source,
                )

    def finish(self, state: ScanState) -> None:
        if state.num_original is None:
            return
        for index, entry in state.level_zero:
            if not state.is_defined(entry.antecedent):
                self.report(
                    "level-0 assignment cites an antecedent clause ID that "
                    "is never defined in the trace",
                    index=index,
                    cids=(entry.antecedent,),
                    var=entry.var,
                )
        for index, cid in state.final_conflicts:
            if not state.is_defined(cid):
                self.report(
                    "final conflict points at a clause ID that is never "
                    "defined in the trace",
                    index=index,
                    cids=(cid,),
                )


@register_rule
class ForwardReferenceRule(Rule):
    """Sources must precede the clause they build: a source ID >= the learned
    ID breaks the DAG topological order the checkers rely on."""

    rule_id = "T002"
    name = "forward-reference"
    severity = Severity.ERROR
    rationale = (
        "Resolution proofs are DAGs ordered by clause ID; a self or forward "
        "reference can never be replayed (the paper's checkers reject it as "
        "a cyclic trace)."
    )

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None:
        for source in record.sources:
            if source >= record.cid:
                kind = "itself" if source == record.cid else "a later clause"
                self.report(
                    f"learned clause resolves from {kind}: source ID is not "
                    "smaller than its own ID",
                    index=index,
                    cids=(record.cid, source),
                    source=source,
                )


@register_rule
class DuplicateIdRule(Rule):
    """Each clause ID must be defined exactly once; redefinition makes every
    later reference ambiguous."""

    rule_id = "T003"
    name = "duplicate-id"
    severity = Severity.ERROR
    rationale = (
        "Clause IDs are the only link between trace records; a duplicated "
        "definition silently rebinds every subsequent reference."
    )

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None:
        num_original = state.num_original
        if num_original is not None and record.cid <= num_original:
            self.report(
                "learned clause ID collides with the original clause range",
                index=index,
                cids=(record.cid,),
                num_original=num_original,
            )
        elif record.cid in state.defined:
            self.report(
                "learned clause ID was already defined earlier in the trace",
                index=index,
                cids=(record.cid,),
            )


@register_rule
class VariableRangeRule(Rule):
    """Level-0 variables must fit the header's declared variable count."""

    rule_id = "T004"
    name = "variable-out-of-range"
    severity = Severity.ERROR
    rationale = (
        "The header fixes the instance dimensions the solver and checker "
        "agreed on; a trail variable outside [1, num_vars] cannot belong to "
        "the formula."
    )

    def on_level_zero(
        self, state: ScanState, index: int, record: LevelZeroAssignment
    ) -> None:
        if record.var < 1:
            self.report(
                "level-0 assignment names a non-positive variable",
                index=index,
                var=record.var,
            )
        elif state.num_vars is not None and record.var > state.num_vars:
            self.report(
                "level-0 assignment names a variable beyond the header's "
                "variable count",
                index=index,
                var=record.var,
                num_vars=state.num_vars,
            )


@register_rule
class ShortChainRule(Rule):
    """A resolve chain with fewer than two sources performs no resolution."""

    rule_id = "T005"
    name = "short-chain"
    severity = Severity.ERROR
    rationale = (
        "A learned clause is the result of >= 1 resolution, which consumes "
        ">= 2 sources; a shorter chain is a copy, not a derivation (the "
        "solver never records those)."
    )

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None:
        if len(record.sources) < 2:
            self.report(
                "resolve chain is too short to resolve (fewer than 2 sources)",
                index=index,
                cids=(record.cid,),
                num_sources=len(record.sources),
            )


@register_rule
class UnreachableClauseRule(Rule):
    """Learned clauses unreachable from the empty-clause derivation are dead
    proof weight — the paper's Table 2 shows only 19-90 % are ever needed."""

    rule_id = "T006"
    name = "unreachable-learned"
    severity = Severity.INFO
    rationale = (
        "Clauses off every path from the final conflict and the level-0 "
        "antecedents cost trace size and checker parsing time for nothing; "
        "repro-trim can drop them."
    )
    needs_graph = True

    def finish(self, state: ScanState) -> None:
        if (
            state.sources_by_cid is None
            or state.status != "UNSAT"
            or not state.final_conflicts
            or state.num_original is None
        ):
            return
        roots = cone_roots(
            [cid for _, cid in state.final_conflicts],
            [entry.antecedent for _, entry in state.level_zero],
        )
        cone = backward_closure(roots, state.num_original, state.sources_by_cid)
        reachable = len(cone & state.defined)
        state.reachable_learned = reachable
        unreachable = state.num_learned - reachable
        if unreachable > 0 and state.num_learned > 0:
            pct = 100.0 * reachable / state.num_learned
            self.report(
                f"{unreachable} of {state.num_learned} learned clauses are "
                f"unreachable from the final conflict "
                f"(proof reachability {pct:.1f}%)",
                reachable=reachable,
                unreachable=unreachable,
                reachability_pct=round(pct, 1),
            )


@register_rule
class EmptyDerivationRule(Rule):
    """An UNSAT claim needs the raw material for an empty-clause derivation:
    at least one final conflicting clause."""

    rule_id = "T007"
    name = "missing-empty-derivation"
    severity = Severity.ERROR
    rationale = (
        "The checkers derive the empty clause starting from the final "
        "conflicting clause; an UNSAT trace without one (or with several) "
        "is missing its proof obligation."
    )

    def finish(self, state: ScanState) -> None:
        if state.status == "UNSAT":
            if not state.final_conflicts:
                self.report(
                    "trace claims UNSAT but records no final conflicting clause"
                )
            elif len(state.final_conflicts) > 1:
                self.report(
                    "trace records multiple final conflicting clauses; "
                    "checkers use only the first",
                    index=state.final_conflicts[1][0],
                    cids=tuple(cid for _, cid in state.final_conflicts),
                    severity=Severity.WARNING,
                )
        elif state.status == "SAT" and state.final_conflicts:
            self.report(
                "trace claims SAT yet records a final conflicting clause",
                index=state.final_conflicts[0][0],
                cids=(state.final_conflicts[0][1],),
                severity=Severity.WARNING,
            )


@register_rule
class HeaderRule(Rule):
    """Exactly one header, first, with sane dimensions."""

    rule_id = "T008"
    name = "bad-header"
    severity = Severity.ERROR
    rationale = (
        "Every downstream check is relative to the header's dimensions; "
        "without it (or with two of them) no record can be classified."
    )

    def on_header(self, state: ScanState, index: int, record: TraceHeader) -> None:
        if record.num_vars < 0 or record.num_original_clauses < 0:
            self.report(
                "header declares negative instance dimensions",
                index=index,
                num_vars=record.num_vars,
                num_original_clauses=record.num_original_clauses,
            )

    def finish(self, state: ScanState) -> None:
        if state.header is None:
            self.report("trace has no header record")
        if state.extra_header_indices:
            for index in state.extra_header_indices:
                self.report("duplicate trace header", index=index)
        if state.records_before_header:
            self.report(
                f"{state.records_before_header} record(s) appear before the header",
                index=0,
            )


@register_rule
class ResultRule(Rule):
    """The trace must end with the solver's claim — that claim is the thing
    being validated."""

    rule_id = "T009"
    name = "missing-result"
    severity = Severity.ERROR
    rationale = (
        "Without an R record there is no claim to check; an UNKNOWN claim "
        "is legal (budget exhausted) but leaves nothing for a checker to do."
    )

    def finish(self, state: ScanState) -> None:
        if state.status is None:
            self.report("trace has no result record")
        elif state.status not in ("SAT", "UNSAT", "UNKNOWN"):
            self.report(
                f"trace result {state.status!r} is not SAT, UNSAT, or UNKNOWN"
            )
        elif state.status == "UNKNOWN":
            self.report(
                "trace result is UNKNOWN: nothing for a checker to validate",
                severity=Severity.WARNING,
            )
        if state.extra_result_indices:
            self.report(
                "trace has multiple result records",
                index=state.extra_result_indices[0],
                severity=Severity.WARNING,
            )


@register_rule
class MonotonicIdRule(Rule):
    """Learned clause IDs must be recorded in strictly increasing order."""

    rule_id = "T010"
    name = "non-monotonic-id"
    severity = Severity.ERROR
    rationale = (
        "The breadth-first checker streams the trace in generation order and "
        "requires strictly increasing learned IDs; out-of-order definitions "
        "also defeat the binary format's delta encoding."
    )

    def on_learned(self, state: ScanState, index: int, record: LearnedClause) -> None:
        if (
            state.last_learned_cid is not None
            and record.cid <= state.last_learned_cid
            and record.cid not in state.defined  # exact duplicates are T003's
        ):
            self.report(
                "learned clause ID is not greater than the previously "
                "recorded one",
                index=index,
                cids=(record.cid,),
                previous=state.last_learned_cid,
            )


@register_rule
class TrailConsistencyRule(Rule):
    """The level-0 trail must assign each variable at most once."""

    rule_id = "T011"
    name = "inconsistent-trail"
    severity = Severity.ERROR
    rationale = (
        "A variable assigned both values at level 0 encodes a contradiction "
        "outside the resolution proof; a repeated identical assignment is "
        "redundant but harmless."
    )

    def finish(self, state: ScanState) -> None:
        seen: dict[int, tuple[int, bool]] = {}
        for index, entry in state.level_zero:
            previous = seen.get(entry.var)
            if previous is None:
                seen[entry.var] = (index, entry.value)
            elif previous[1] != entry.value:
                self.report(
                    "variable is assigned both values on the level-0 trail",
                    index=index,
                    var=entry.var,
                    first_record=previous[0],
                )
            else:
                self.report(
                    "variable is assigned twice (same value) on the level-0 trail",
                    index=index,
                    var=entry.var,
                    first_record=previous[0],
                    severity=Severity.WARNING,
                )


@register_rule
class MalformedRecordRule(Rule):
    """The trace file itself must parse; a torn or garbled record ends the
    analysis with a precise position instead of a stack trace."""

    rule_id = "T012"
    name = "malformed-record"
    severity = Severity.ERROR
    rationale = (
        "Truncated files and corrupted records are the cheapest faults to "
        "catch; the analyzer reports them as diagnostics rather than "
        "crashing the way a checker's parser would."
    )

    # No stream hooks: the engine emits through this rule when the record
    # iterator itself raises a TraceError.
    def parse_error(self, index: int, error: Exception) -> None:
        self.report(f"trace stream is malformed: {error}", index=index)


# -- graph-tier rules (T013+): run only with ``analyze_trace(graph=True)`` --


@register_rule
class DeadLemmaRule(Rule):
    """Per-lemma version of T006: name the learned clauses the proof never
    uses, so a trim (or a prune plan) can be sanity-checked by eye."""

    rule_id = "T013"
    name = "dead-lemma"
    severity = Severity.INFO
    rationale = (
        "A learned clause outside the backward-reachable cone of the final "
        "conflict is pure trace weight: every checker can skip it without "
        "affecting the verdict, and repro-trim drops it."
    )
    needs_graph = True
    graph_only = True

    #: Individual findings are capped; the remainder is summarized.
    max_individual: ClassVar[int] = 25

    def finish(self, state: ScanState) -> None:
        graph = state.graph
        if graph is None or state.status != "UNSAT" or not graph.final_conflicts:
            return
        cone = graph.cone()
        dead = [cid for cid in graph.sources_by_cid if cid not in cone]
        for cid in dead[: self.max_individual]:
            self.report(
                "learned clause is dead: no path from the final conflict or "
                "the level-0 trail reaches it",
                index=graph.learned_index.get(cid),
                cids=(cid,),
            )
        if len(dead) > self.max_individual:
            self.report(
                f"{len(dead) - self.max_individual} more dead lemmas "
                f"(first {self.max_individual} reported individually)",
                dead_total=len(dead),
            )


@register_rule
class DependencyCycleRule(Rule):
    """An explicit cycle in the derivation DAG: stronger than T002's local
    forward-reference finding, because it proves no replay order exists."""

    rule_id = "T014"
    name = "dependency-cycle"
    severity = Severity.ERROR
    rationale = (
        "A resolution derivation is a DAG; clauses that (transitively) "
        "resolve from themselves can never be built in any order, so the "
        "trace encodes no proof at all."
    )
    needs_graph = True
    graph_only = True

    def finish(self, state: ScanState) -> None:
        graph = state.graph
        if graph is None:
            return
        cycle = graph.find_cycle()
        if cycle:
            self.report(
                f"learned clauses form a dependency cycle of length {len(cycle)}",
                index=graph.learned_index.get(cycle[0]),
                cids=tuple(cycle),
                cycle_length=len(cycle),
            )


@register_rule
class UseAfterDeletionRule(Rule):
    """A clause referenced after its deletion record: the trace contradicts
    its own clause-lifetime claims."""

    rule_id = "T015"
    name = "use-after-deletion"
    severity = Severity.ERROR
    rationale = (
        "Deletion records are advisory, but a solver that resolves with a "
        "clause it claims to have deleted has a clause-database bug (the "
        "paper: antecedents of assigned variables must always be kept)."
    )
    needs_graph = True
    graph_only = True

    def finish(self, state: ScanState) -> None:
        graph = state.graph
        if graph is None:
            return
        first_deleted: dict[int, int] = {}
        for del_index, cid in graph.deletions:
            previous = first_deleted.get(cid)
            if previous is not None:
                self.report(
                    "clause is deleted twice",
                    index=del_index,
                    cids=(cid,),
                    first_deletion=previous,
                    severity=Severity.WARNING,
                )
                continue
            first_deleted[cid] = del_index
            if 1 <= cid <= graph.num_original:
                self.report(
                    "deletion record targets an original clause",
                    index=del_index,
                    cids=(cid,),
                    severity=Severity.WARNING,
                )
            elif cid not in graph.sources_by_cid:
                self.report(
                    "deletion record targets a clause ID that is never defined",
                    index=del_index,
                    cids=(cid,),
                    severity=Severity.WARNING,
                )
            elif graph.learned_index.get(cid, -1) > del_index:
                self.report(
                    "clause is deleted before it is defined",
                    index=del_index,
                    cids=(cid,),
                    severity=Severity.WARNING,
                )
            last_use = graph.last_use_index.get(cid)
            if last_use is not None and last_use > del_index:
                self.report(
                    "clause is used after its deletion record",
                    index=last_use,
                    cids=(cid,),
                    deleted_at=del_index,
                )


@register_rule
class RedundantDerivationRule(Rule):
    """Two learned clauses with identical resolve chains: the second
    derivation re-does work the checker already paid for."""

    rule_id = "T016"
    name = "redundant-derivation"
    severity = Severity.WARNING
    rationale = (
        "Identical source chains resolve to identical clauses; re-deriving "
        "one doubles the checker's resolution work for zero proof content."
    )
    needs_graph = True
    graph_only = True

    max_individual: ClassVar[int] = 25

    def finish(self, state: ScanState) -> None:
        graph = state.graph
        if graph is None:
            return
        duplicates = graph.redundant_derivations()
        for cid, earlier in duplicates[: self.max_individual]:
            self.report(
                "learned clause re-derives an identical resolve chain",
                index=graph.learned_index.get(cid),
                cids=(cid, earlier),
                first_derivation=earlier,
            )
        if len(duplicates) > self.max_individual:
            self.report(
                f"{len(duplicates) - self.max_individual} more redundant "
                f"derivations (first {self.max_individual} reported)",
                duplicate_total=len(duplicates),
            )


@register_rule
class SuspiciousCoreRule(Rule):
    """An UNSAT proof whose cone touches zero original clauses refutes
    nothing about the input formula."""

    rule_id = "T017"
    name = "suspicious-core-shape"
    severity = Severity.WARNING
    rationale = (
        "A refutation must ultimately rest on the input clauses; a cone "
        "that never reaches the original range means the trace was built "
        "against a different formula (or fabricated from thin air)."
    )
    needs_graph = True
    graph_only = True

    def finish(self, state: ScanState) -> None:
        graph = state.graph
        if graph is None or state.status != "UNSAT" or not graph.final_conflicts:
            return
        if not graph.original_core():
            self.report(
                "proof cone touches zero original clauses: the refutation "
                "does not depend on the input formula",
                cids=tuple(cid for _, cid in graph.final_conflicts[:1]),
            )
