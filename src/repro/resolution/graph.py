"""Explicit resolution-proof DAGs.

"Essentially the checker creates and traverses the resolution graph,
which is a directed acyclic graph that describes the sequence of
resolutions starting from the original clauses at the leaves and ending
with the empty clause at the root." (§3.1)

This module materializes that graph: leaves are original clauses,
internal nodes are learned clauses (edges to their resolve sources), and
the root is the empty clause derived in the final phase. Useful for proof
analytics (size, depth, core width) and for downstream applications that
consume proofs rather than just verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.checker.depth_first import DepthFirstChecker
from repro.checker.level_zero import LevelZeroState, derive_empty_clause
from repro.cnf import CnfFormula
from repro.trace.records import Trace

EMPTY_CLAUSE_ID = 0  # reserved node ID for the derived empty clause


@dataclass
class ProofStats:
    """Summary numbers for a resolution proof DAG."""

    num_nodes: int
    num_leaves: int
    num_internal: int
    num_edges: int
    depth: int
    total_resolutions: int
    core_clauses: int
    core_variables: int


@dataclass
class ResolutionGraph:
    """A verified resolution derivation of the empty clause.

    ``parents[cid]`` lists the resolve sources (in resolution order) of
    each derived node; leaves (original clauses) have no entry. Node
    ``EMPTY_CLAUSE_ID`` is the empty clause root; its parents are the
    final conflicting clause followed by the level-0 antecedents used.
    """

    literals: dict[int, FrozenSet[int]] = field(default_factory=dict)
    parents: dict[int, tuple[int, ...]] = field(default_factory=dict)
    num_original: int = 0

    @classmethod
    def from_trace(cls, formula: CnfFormula, trace: Trace) -> "ResolutionGraph":
        """Build (and fully validate) the proof DAG for an UNSAT trace.

        Runs the depth-first checker under the hood; raises the checker's
        failure if the trace does not constitute a valid proof.
        """
        checker = DepthFirstChecker(formula, trace)
        report = checker.check()
        report.raise_if_failed()

        graph = cls(num_original=trace.header.num_original_clauses)
        # Nodes: everything the checker built (originals it touched
        # included).
        for cid, lits in checker.built.items():
            graph.literals[cid] = frozenset(lits)
        for cid in list(graph.literals):
            if cid > graph.num_original:
                graph.parents[cid] = trace.learned[cid].sources

        # Re-run the final phase to recover the root's parent order.
        final_cid = trace.final_conflicts[0]
        level_zero = LevelZeroState(trace.level_zero)
        used: list[int] = []
        derive_empty_clause(
            final_cid,
            graph.literals[final_cid],
            level_zero,
            get_clause=lambda cid: graph.literals[cid]
            if cid in graph.literals
            else frozenset(formula[cid].literals),
            on_use=used.append,
        )
        for cid in used:
            if cid not in graph.literals:
                graph.literals[cid] = frozenset(formula[cid].literals)
        graph.literals[EMPTY_CLAUSE_ID] = frozenset()
        graph.parents[EMPTY_CLAUSE_ID] = tuple(used)
        return graph

    # -- queries ---------------------------------------------------------------

    def is_leaf(self, cid: int) -> bool:
        return cid not in self.parents

    def leaves(self) -> set[int]:
        """Original clause IDs that participate in the proof."""
        return {cid for cid in self.literals if self.is_leaf(cid) and cid != EMPTY_CLAUSE_ID}

    def depth_of(self, cid: int) -> int:
        """Longest leaf-to-node path length (0 for leaves)."""
        memo: dict[int, int] = {}
        stack = [cid]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if self.is_leaf(node):
                memo[node] = 0
                stack.pop()
                continue
            pending = [p for p in self.parents[node] if p not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[node] = 1 + max(memo[p] for p in self.parents[node])
            stack.pop()
        return memo[cid]

    def stats(self) -> ProofStats:
        leaves = self.leaves()
        internal = [cid for cid in self.parents if cid != EMPTY_CLAUSE_ID]
        edges = sum(len(sources) for sources in self.parents.values())
        resolutions = sum(
            len(sources) - 1 for sources in self.parents.values()
        )
        variables = {abs(lit) for cid in leaves for lit in self.literals[cid]}
        return ProofStats(
            num_nodes=len(self.literals),
            num_leaves=len(leaves),
            num_internal=len(internal),
            num_edges=edges,
            depth=self.depth_of(EMPTY_CLAUSE_ID),
            total_resolutions=resolutions,
            core_clauses=len(leaves),
            core_variables=len(variables),
        )

    def check_acyclic(self) -> bool:
        """Defensive check: derived nodes only reference smaller IDs
        (the root references anything)."""
        for cid, sources in self.parents.items():
            if cid == EMPTY_CLAUSE_ID:
                continue
            if any(source >= cid for source in sources):
                return False
        return True
