"""The hybrid checker — the paper's future-work design (§5).

"It is desirable to have a checker that has the advantage of both the
depth-first and breadth-first approaches without suffering from their
respective shortcomings."

The hybrid is the breadth-first checker run over the static analyzer's
proof cone:

1. **Graph pass**: :meth:`DerivationGraph.stream
   <repro.analysis.graph.DerivationGraph.stream>` reads the trace keeping
   only the clause-ID graph — integers, no literals — and
   :meth:`~repro.analysis.graph.DerivationGraph.prune_plan` turns it into
   the cone of learned clauses reachable from the final conflict and the
   level-0 antecedents, with use counts restricted to it. This is the same
   code ``--prune`` runs.
2. **Checking pass**: the BF pass builds only the cone, deleting each
   clause as soon as its last needed use completes.

Compared to DF it never holds unneeded literals; compared to BF it builds
only the DF subset (Table 2's "Built %"). It still holds the ID graph in
memory during the graph pass — a disk-based DFS (the paper cites
external-memory graph traversal) would remove that too — so the graph is
charged to the memory meter, keeping the trade-off visible in the
benchmarks. A trace whose ID graph the analyzer rejects yields no plan and
is checked exactly as BF checks it. A caller-supplied plan skips the graph
pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.checker.breadth_first import BreadthFirstChecker
from repro.checker.errors import check_clause_count, check_unsat_claim
from repro.checker.kernel import ClauseLits
from repro.checker.memory import Deadline
from repro.checker.report import CheckReport
from repro.cnf import CnfFormula
from repro.trace.records import Trace, TraceError

if TYPE_CHECKING:
    from repro.analysis.graph import PrunePlan


class HybridChecker(BreadthFirstChecker):
    """Streams the clause-ID graph, then checks breadth-first over its cone."""

    method = "hybrid"

    def __init__(
        self,
        formula: CnfFormula,
        trace_source: str | Path | Trace,
        memory_limit: int | None = None,
        precheck: bool = False,
        use_kernel: bool = True,
        deadline: Deadline | None = None,
        prune_plan=None,
    ):
        super().__init__(
            formula,
            trace_source,
            memory_limit=memory_limit,
            precheck=precheck,
            use_kernel=use_kernel,
            deadline=deadline,
            prune_plan=prune_plan,
        )
        self._caller_pruned = prune_plan is not None
        # Every clause ID fetched: the sources of the built clauses plus
        # the final conflict and the antecedents the derivation resolves on.
        self._used: set[int] = set()

    def check(self) -> CheckReport:
        report = super().check()
        if not self._caller_pruned:
            report.prune = None  # the cone is how hybrid works, not a caller's pruning
        if report.verified:
            num_original = self._num_original
            assert num_original is not None
            report.original_core = {cid for cid in self._used if cid <= num_original}
            report.learned_used = self._used - report.original_core
        return report

    def _extent_and_counts(self) -> tuple[int, str]:
        if self._plan is None:
            self._plan = self._graph_pass()
        return super()._extent_and_counts()

    def _graph_pass(self) -> PrunePlan | None:
        """Stream the ID graph and return its plan; ``None`` when vetoed.

        On a clean graph, a clause-count mismatch or an UNSAT claim without
        a final conflict fails here with nothing charged; the graph is then
        charged to the memory meter, and a claim other than UNSAT fails
        after that. Nothing is built in any of these cases.
        """
        from repro.analysis.graph import DerivationGraph

        try:
            graph = DerivationGraph.stream(
                self._source, track_indices=False, deadline=self._deadline
            )
        except OSError as exc:
            raise TraceError(f"{self._source}: {exc}") from None
        if graph.violations:
            return None
        check_clause_count(self.formula.num_clauses, graph.num_original)
        status = graph.status or "UNKNOWN"
        if status == "UNSAT":
            check_unsat_claim(status, graph.final_conflicts)
        self._total_learned = graph.num_learned
        graph_units = sum(
            self.meter.record_units(1 + len(sources))
            for sources in graph.sources_by_cid.values()
        )
        self.meter.allocate(graph_units)
        self.meter.release(graph_units)
        check_unsat_claim(status, graph.final_conflicts)
        return graph.prune_plan()

    def _get_clause(self, cid: int) -> ClauseLits:
        self._used.add(cid)
        # An explicit base call: zero-argument super() costs a few percent
        # of the checking pass on this per-source path.
        return BreadthFirstChecker._get_clause(self, cid)
