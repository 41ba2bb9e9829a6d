"""Static derivation-DAG analysis: backward reachability without resolution.

The depth-first checker discovers "what clauses are needed for this proof"
(§3.2) as a side effect of replaying it. This module computes the same
knowledge *statically*: one streaming pass over any trace source collects
the integer clause-ID graph (never a literal), and a backward walk from the
final conflict plus the level-0 antecedents yields the proof cone — the
learned clauses a checker must actually build. Everything else is dead
weight, and "Efficient Certified Resolution Proof Checking" shows skipping
it is often the single biggest win available.

Three consumers sit on top:

* :class:`PrunePlan` — a precomputed skip set (plus breadth-first-exact use
  counts) that the resolution checkers accept via ``prune_plan=`` to avoid
  building unreachable learned clauses.
* The hybrid checker (:mod:`repro.checker.hybrid`), which streams the graph
  itself and then checks breadth-first over the plan's cone.
* The global lint rules T013–T017 and the ``repro analyze`` CLI, which read
  a :class:`DerivationGraph` assembled by the analysis engine; T006 walks
  the same cone with :func:`backward_closure` from :func:`cone_roots`.

A plan is only produced for traces whose ID graph is structurally clean
(no dangling/forward/duplicate references, monotonic IDs, single header,
an UNSAT claim with a final conflict). Anything else returns ``None`` and
the checkers run unpruned — so pruning can never change the verdict on a
trace the linter would reject, and a resolution-level fault inside the
cone is still replayed and still fails.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol, Sequence

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

if TYPE_CHECKING:
    from repro.analysis.rules import ScanState

TraceSource = Trace | str | Path | Iterable[TraceRecord]

#: Cap on recorded structural violations; one is enough to veto pruning,
#: a handful is enough for diagnostics.
_MAX_VIOLATIONS = 20


class DeadlinePoll(Protocol):
    """A wall-clock budget the graph pass polls (the checkers' ``Deadline``)."""

    def check(self) -> None: ...


@dataclass(frozen=True)
class GraphStats:
    """Aggregate shape of one derivation DAG (all pure graph arithmetic)."""

    num_records: int
    num_learned: int
    num_deletions: int
    core_learned: int
    dead_learned: int
    dead_fraction: float
    core_original: int
    depth: int
    width: int

    def to_dict(self) -> dict[str, int | float]:
        return {
            "num_records": self.num_records,
            "num_learned": self.num_learned,
            "num_deletions": self.num_deletions,
            "core_learned": self.core_learned,
            "dead_learned": self.dead_learned,
            "dead_fraction": round(self.dead_fraction, 4),
            "core_original": self.core_original,
            "depth": self.depth,
            "width": self.width,
        }

    def summary(self) -> str:
        return (
            f"core {self.core_learned}/{self.num_learned} learned "
            f"({100.0 * (1.0 - self.dead_fraction):.1f}% live, "
            f"{self.dead_learned} dead) | "
            f"{self.core_original} original clauses touched | "
            f"DAG depth {self.depth}, width {self.width} | "
            f"{self.num_deletions} deletions"
        )


@dataclass(frozen=True)
class PrunePlan:
    """A checkable skip set: which learned clauses a checker may not build.

    ``keep``/``skip`` partition the trace's learned clause IDs into the
    backward-reachable cone and the dead remainder. ``needed_counts`` are
    breadth-first-exact use counts restricted to the cone (references made
    by kept clauses, level-0 antecedents, and final-conflict records), so
    the BF checker can skip its counting pre-pass entirely.
    """

    num_vars: int
    num_original: int
    max_cid: int
    total_learned: int
    keep: frozenset[int]
    skip: frozenset[int]
    needed_counts: Mapping[int, int]

    @property
    def dead_fraction(self) -> float:
        if self.total_learned == 0:
            return 0.0
        return len(self.skip) / self.total_learned

    def digest(self) -> str:
        """Content fingerprint of the plan (checkpoint compatibility)."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.num_original} {self.max_cid} {self.total_learned}\n".encode()
        )
        for cid in sorted(self.skip):
            digest.update(f"{cid}\n".encode())
        return digest.hexdigest()

    def to_dict(self) -> dict[str, int | float]:
        return {
            "total_learned": self.total_learned,
            "kept": len(self.keep),
            "skipped": len(self.skip),
            "dead_fraction": round(self.dead_fraction, 4),
        }


class DerivationGraph:
    """The clause dependency graph of one trace, IDs only.

    Built either directly from a trace source (:meth:`stream` — a single
    streaming pass holding nothing but the ID graph) or from the analysis
    engine's scan state (:meth:`from_scan`). All derived quantities — the
    proof cone, the original-clause core, DAG depth/width, cycles, the
    prune plan — are pure graph computations over the collected IDs.
    """

    def __init__(
        self,
        num_vars: int,
        num_original: int,
        sources_by_cid: dict[int, tuple[int, ...]],
        learned_index: dict[int, int],
        level_zero_refs: list[tuple[int, int]],
        final_conflicts: list[tuple[int, int]],
        deletions: list[tuple[int, int]],
        last_use_index: dict[int, int],
        status: str | None,
        num_records: int,
        violations: list[str],
    ) -> None:
        self.num_vars = num_vars
        self.num_original = num_original
        #: learned cid -> resolve-source tuple, in stream order.
        self.sources_by_cid = sources_by_cid
        #: learned cid -> record index of its definition.
        self.learned_index = learned_index
        #: (record index, antecedent cid) per level-0 trail entry.
        self.level_zero_refs = level_zero_refs
        #: (record index, cid) per final-conflict record.
        self.final_conflicts = final_conflicts
        #: (record index, cid) per deletion record, in stream order.
        self.deletions = deletions
        #: cid -> record index of its last reference (source/antecedent/conflict).
        self.last_use_index = last_use_index
        self.status = status
        self.num_records = num_records
        #: Structural defects that make pruning unsafe (empty = clean DAG).
        self.violations = violations
        self._cone: frozenset[int] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def stream(
        cls,
        source: TraceSource,
        track_indices: bool = True,
        deadline: DeadlinePoll | None = None,
    ) -> "DerivationGraph":
        """Build the graph in one streaming pass over any trace source.

        ``track_indices=False`` skips the per-reference bookkeeping
        (``learned_index``/``last_use_index``) that only the graph-tier
        lint rules read — the prune-plan path uses it to keep the
        analyzer pass a small fraction of the check it shrinks.
        ``deadline`` is polled every 256 records, so a checker running the
        pass stays inside its wall-clock budget.
        """
        records = _open_records_raw(source)
        num_vars = 0
        num_original = 0
        saw_header = False
        sources_by_cid: dict[int, tuple[int, ...]] = {}
        learned_index: dict[int, int] = {}
        level_zero_refs: list[tuple[int, int]] = []
        final_conflicts: list[tuple[int, int]] = []
        deletions: list[tuple[int, int]] = []
        last_use_index: dict[int, int] = {}
        status: str | None = None
        violations: list[str] = []
        last_cid = 0
        index = 0

        def violate(message: str) -> None:
            if len(violations) < _MAX_VIOLATIONS:
                violations.append(message)

        while True:
            if deadline is not None and not index & 0xFF:
                deadline.check()
            try:
                record = next(records)
            except StopIteration:
                break
            except TraceError as exc:
                violate(f"parse error at record {index}: {exc}")
                break
            # Learned clauses may arrive as bare (cid, sources) tuples from
            # the raw binary decoder — the hot path, dispatched first.
            rec_type = type(record)
            if rec_type is tuple or rec_type is LearnedClause:
                if rec_type is tuple:
                    cid, raw_sources = record
                    sources: tuple[int, ...] = tuple(raw_sources)
                else:
                    cid = record.cid
                    sources = record.sources
                if not saw_header:
                    violate(f"learned clause before header at record {index}")
                if cid in sources_by_cid or (saw_header and cid <= num_original):
                    violate(f"duplicate or colliding clause id {cid}")
                elif cid <= last_cid:
                    violate(f"non-monotonic clause id {cid} after {last_cid}")
                if len(sources) < 2:
                    violate(f"clause {cid} has a short resolve chain")
                if track_indices:
                    for source in sources:
                        if source >= cid:
                            violate(f"clause {cid} references forward id {source}")
                        elif source > num_original and source not in sources_by_cid:
                            violate(f"clause {cid} references undefined id {source}")
                        elif source < 1:
                            violate(f"clause {cid} references non-positive id {source}")
                        last_use_index[source] = index
                    learned_index.setdefault(cid, index)
                else:
                    # Same validation, minus the per-reference index stores
                    # (duplicated so the hot loop stays branch-free inside).
                    for source in sources:
                        if source >= cid:
                            violate(f"clause {cid} references forward id {source}")
                        elif source > num_original and source not in sources_by_cid:
                            violate(f"clause {cid} references undefined id {source}")
                        elif source < 1:
                            violate(f"clause {cid} references non-positive id {source}")
                sources_by_cid[cid] = sources
                if cid > last_cid:
                    last_cid = cid
            elif isinstance(record, TraceHeader):
                if saw_header:
                    violate(f"duplicate header at record {index}")
                else:
                    saw_header = True
                    num_vars = record.num_vars
                    num_original = record.num_original_clauses
                    if num_vars < 0 or num_original < 0:
                        violate("header declares negative dimensions")
            elif isinstance(record, LevelZeroAssignment):
                level_zero_refs.append((index, record.antecedent))
                last_use_index[record.antecedent] = index
            elif isinstance(record, FinalConflict):
                final_conflicts.append((index, record.cid))
                last_use_index[record.cid] = index
            elif isinstance(record, TraceResult):
                if status is not None:
                    violate(f"duplicate result record at record {index}")
                else:
                    status = record.status
            elif isinstance(record, ClauseDeletion):
                deletions.append((index, record.cid))
            index += 1

        if not saw_header:
            violations.insert(0, "trace has no header")
        for _ref_index, antecedent in level_zero_refs:
            if not _is_defined(antecedent, num_original, sources_by_cid):
                violate(f"level-0 antecedent {antecedent} is undefined")
        for _ref_index, cid in final_conflicts:
            if not _is_defined(cid, num_original, sources_by_cid):
                violate(f"final conflict {cid} is undefined")

        return cls(
            num_vars=num_vars,
            num_original=num_original,
            sources_by_cid=sources_by_cid,
            learned_index=learned_index,
            level_zero_refs=level_zero_refs,
            final_conflicts=final_conflicts,
            deletions=deletions,
            last_use_index=last_use_index,
            status=status,
            num_records=index,
            violations=violations,
        )

    @classmethod
    def from_scan(cls, state: "ScanState") -> "DerivationGraph":
        """Assemble a graph from the analysis engine's scan state.

        The engine's rules (T001–T012) own structural diagnostics, so the
        violations list here records only what vetoes pruning — derived
        from the same state the rules see.
        """
        sources_by_cid = dict(state.sources_by_cid or {})
        num_original = state.num_original or 0
        violations: list[str] = []
        if state.header is None:
            violations.append("trace has no header")
        if state.extra_header_indices:
            violations.append("duplicate header")
        if state.records_before_header:
            violations.append("records before header")
        last_cid = 0
        for cid, sources in sources_by_cid.items():
            if cid <= last_cid or cid <= num_original:
                violations.append(f"non-monotonic or colliding clause id {cid}")
            last_cid = max(last_cid, cid)
            if len(sources) < 2:
                violations.append(f"clause {cid} has a short resolve chain")
            for source in sources:
                if source >= cid or source < 1:
                    violations.append(f"clause {cid} references invalid id {source}")
                elif source > num_original and source not in sources_by_cid:
                    violations.append(f"clause {cid} references undefined id {source}")
        if state.duplicate_learned:
            violations.append("duplicate learned clause id")
        for _index, entry in state.level_zero:
            if not _is_defined(entry.antecedent, num_original, sources_by_cid):
                violations.append(f"level-0 antecedent {entry.antecedent} is undefined")
        for _index, cid in state.final_conflicts:
            if not _is_defined(cid, num_original, sources_by_cid):
                violations.append(f"final conflict {cid} is undefined")
        return cls(
            num_vars=state.num_vars or 0,
            num_original=num_original,
            sources_by_cid=sources_by_cid,
            learned_index=dict(state.learned_index or {}),
            level_zero_refs=[
                (index, entry.antecedent) for index, entry in state.level_zero
            ],
            final_conflicts=list(state.final_conflicts),
            deletions=list(state.deletions),
            last_use_index=dict(state.last_use_index or {}),
            status=state.status,
            num_records=state.num_records,
            violations=violations[:_MAX_VIOLATIONS],
        )

    # -- graph computations ------------------------------------------------

    @property
    def num_learned(self) -> int:
        return len(self.sources_by_cid)

    def roots(self) -> list[int]:
        """The cone's roots (see :func:`cone_roots`)."""
        return cone_roots(
            [cid for _index, cid in self.final_conflicts],
            [antecedent for _index, antecedent in self.level_zero_refs],
        )

    def closure(self, roots: Iterable[int]) -> set[int]:
        """Learned clause IDs backward-reachable from ``roots``."""
        return backward_closure(roots, self.num_original, self.sources_by_cid)

    def cone(self) -> frozenset[int]:
        """The proof cone: learned IDs reachable from :meth:`roots` (cached)."""
        if self._cone is None:
            self._cone = frozenset(self.closure(self.roots()))
        return self._cone

    def original_core(self) -> frozenset[int]:
        """Original clause IDs the proof cone touches."""
        num_original = self.num_original
        core: set[int] = set()
        for cid in self.roots():
            if 1 <= cid <= num_original:
                core.add(cid)
        for cid in self.cone():
            for source in self.sources_by_cid.get(cid, ()):
                if 1 <= source <= num_original:
                    core.add(source)
        return frozenset(core)

    def find_cycle(self) -> list[int] | None:
        """A dependency cycle among learned clauses, or ``None``.

        Monotonic-ID traces are trivially acyclic; this exists for traces
        with forward references, where a genuine cycle means no replay
        order exists at all (stronger than T002's local finding).
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[int, int] = {}
        parent: dict[int, int] = {}
        sources_by_cid = self.sources_by_cid
        for start in sources_by_cid:
            if color.get(start, WHITE) != WHITE:
                continue
            stack: list[tuple[int, Iterator[int]]] = [
                (start, iter(sources_by_cid[start]))
            ]
            color[start] = GRAY
            while stack:
                cid, edges = stack[-1]
                advanced = False
                for source in edges:
                    if source not in sources_by_cid:
                        continue
                    state = color.get(source, WHITE)
                    if state == GRAY:
                        # Unwind the gray path into an explicit cycle.
                        cycle = [source, cid]
                        node = cid
                        while node != source and node in parent:
                            node = parent[node]
                            if node != source:
                                cycle.append(node)
                        cycle.reverse()
                        return cycle
                    if state == WHITE:
                        color[source] = GRAY
                        parent[source] = cid
                        stack.append((source, iter(sources_by_cid[source])))
                        advanced = True
                        break
                if not advanced:
                    color[cid] = BLACK
                    stack.pop()
        return None

    def redundant_derivations(self) -> list[tuple[int, int]]:
        """Learned clauses re-deriving an identical resolve chain.

        Identical source tuples resolve to identical clauses, so the later
        derivation is pure waste. Returns ``(duplicate_cid, first_cid)``
        pairs in stream order.
        """
        first_by_chain: dict[tuple[int, ...], int] = {}
        duplicates: list[tuple[int, int]] = []
        for cid, sources in self.sources_by_cid.items():
            earlier = first_by_chain.setdefault(sources, cid)
            if earlier != cid:
                duplicates.append((cid, earlier))
        return duplicates

    def stats(self) -> GraphStats:
        """Depth, width, core/dead split — the `repro analyze` numbers."""
        cone = self.cone()
        core_learned = len(cone & self.sources_by_cid.keys())
        dead_learned = self.num_learned - core_learned
        depth = 0
        width = 0
        if cone and not self.violations:
            # Stream order is a topological order on a clean DAG.
            num_original = self.num_original
            depth_of: dict[int, int] = {}
            level_width: dict[int, int] = {}
            for cid, sources in self.sources_by_cid.items():
                if cid not in cone:
                    continue
                best = 0
                for source in sources:
                    if source > num_original:
                        source_depth = depth_of.get(source, 0)
                        if source_depth > best:
                            best = source_depth
                depth_of[cid] = best + 1
                level_width[best + 1] = level_width.get(best + 1, 0) + 1
            if depth_of:
                depth = max(depth_of.values())
                width = max(level_width.values())
        dead_fraction = dead_learned / self.num_learned if self.num_learned else 0.0
        return GraphStats(
            num_records=self.num_records,
            num_learned=self.num_learned,
            num_deletions=len(self.deletions),
            core_learned=core_learned,
            dead_learned=dead_learned,
            dead_fraction=dead_fraction,
            core_original=len(self.original_core()),
            depth=depth,
            width=width,
        )

    # -- pruning -----------------------------------------------------------

    def prune_plan(self) -> PrunePlan | None:
        """Build a prune plan, or ``None`` when pruning would be unsafe.

        Requires a structurally clean DAG claiming UNSAT with a final
        conflict — anything else must be checked unpruned so the verdict
        cannot change.
        """
        if self.violations or self.status != "UNSAT" or not self.final_conflicts:
            return None
        cone = self.cone()
        keep = frozenset(cone & self.sources_by_cid.keys())
        skip = frozenset(self.sources_by_cid.keys() - keep)
        num_original = self.num_original
        needed_counts: dict[int, int] = {}
        for cid in keep:
            for source in self.sources_by_cid[cid]:
                if source > num_original:
                    needed_counts[source] = needed_counts.get(source, 0) + 1
        for _index, antecedent in self.level_zero_refs:
            if antecedent > num_original:
                needed_counts[antecedent] = needed_counts.get(antecedent, 0) + 1
        for _index, cid in self.final_conflicts:
            if cid > num_original and cid in keep:
                needed_counts[cid] = needed_counts.get(cid, 0) + 1
        max_cid = max(self.sources_by_cid, default=0)
        return PrunePlan(
            num_vars=self.num_vars,
            num_original=num_original,
            max_cid=max(max_cid, num_original),
            total_learned=self.num_learned,
            keep=keep,
            skip=skip,
            needed_counts=needed_counts,
        )


def build_graph(source: TraceSource) -> DerivationGraph:
    """Stream ``source`` once and return its :class:`DerivationGraph`."""
    return DerivationGraph.stream(source)


def compute_prune_plan(source: TraceSource) -> PrunePlan | None:
    """The one-call front door: analyze ``source``, return a plan or ``None``.

    ``None`` means "check this unpruned": the trace is structurally
    suspect, claims something other than UNSAT, or cannot be read or
    parsed. Never raises.
    """
    try:
        graph = DerivationGraph.stream(source, track_indices=False)
    except (TraceError, OSError):
        return None
    return graph.prune_plan()


def cone_roots(final_conflicts: Sequence[int], antecedents: Iterable[int]) -> list[int]:
    """The proof cone's roots: the first final conflict + every level-0 antecedent.

    This matches what every checker replays: the empty-clause derivation
    starts from the first final conflict and resolves against the level-0
    antecedents. Later final conflicts seed nothing.
    """
    roots = list(final_conflicts[:1])
    roots.extend(antecedents)
    return roots


def backward_closure(
    roots: Iterable[int],
    num_original: int,
    sources_by_cid: Mapping[int, Sequence[int]],
) -> set[int]:
    """Learned clause IDs backward-reachable from ``roots`` in the ID graph."""
    stack = [cid for cid in roots if cid > num_original]
    visited: set[int] = set()
    while stack:
        cid = stack.pop()
        if cid in visited:
            continue
        visited.add(cid)
        for source in sources_by_cid.get(cid, ()):
            if source > num_original and source not in visited:
                stack.append(source)
    return visited


def _is_defined(
    cid: int, num_original: int, sources_by_cid: Mapping[int, Sequence[int]]
) -> bool:
    return 1 <= cid <= num_original or cid in sources_by_cid


def _open_records(source: TraceSource) -> tuple[Iterator[TraceRecord], str]:
    if isinstance(source, Trace):
        return source.records(), "<in-memory trace>"
    if isinstance(source, (str, Path)):
        from repro.trace.io import iter_trace_records

        return iter_trace_records(source), str(source)
    return iter(source), "<record stream>"


def _open_records_raw(
    source: TraceSource,
) -> Iterator[TraceRecord | tuple[int, list[int]]]:
    """Like :func:`_open_records`, but learned clauses may arrive as bare
    ``(cid, sources)`` tuples when the source is a binary trace file —
    the same raw decode the breadth-first checking pass runs on, which
    keeps the graph pass a small fraction of the check it prunes."""
    if isinstance(source, (str, Path)):
        from repro.trace.binary_format import iter_binary_records_raw
        from repro.trace.io import _sniff_format

        if _sniff_format(source) == "binary":
            return iter_binary_records_raw(source)
    records, _label = _open_records(source)
    return records
