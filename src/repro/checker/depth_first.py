"""The depth-first checker (Fig. 3 of the paper).

Builds learned clauses lazily, on demand, starting from one final
conflicting clause. Only clauses that the empty-clause derivation actually
touches are ever constructed — 19-90 % of the learned clauses in the
paper's Table 2 — but the whole trace (and every built clause) stays
resident, which is where the memory blowup comes from.

Byproduct (§4): the set of original clauses touched is an unsatisfiable
core of the input formula.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Mapping

from repro.checker.errors import (
    CheckFailure,
    FailureKind,
    check_clause_count,
    check_sources,
    check_unsat_claim,
)
from repro.checker.kernel import ClauseLits, engine_memory_stats, make_engine
from repro.checker.level_zero import LevelZeroState, derive_empty_clause
from repro.checker.memory import Deadline, MemoryMeter
from repro.checker.report import CheckReport
from repro.checker.resolution import ResolutionError
from repro.cnf import CnfFormula
from repro.trace.records import Trace, TraceError


class DepthFirstChecker:
    """Validates an UNSAT claim by lazy, recursive clause construction."""

    method = "depth-first"

    def __init__(
        self,
        formula: CnfFormula,
        trace: Trace,
        memory_limit: int | None = None,
        precheck: bool = False,
        use_kernel: bool = True,
        deadline: Deadline | None = None,
        prune_plan=None,
    ):
        self.formula = formula
        self.trace = trace
        # DF already builds lazily (only the cone), so a prune plan cannot
        # change what is built — but it does shrink the charged trace
        # memory: statically dead records need not be held for the replay.
        self._plan = prune_plan
        self._precheck = precheck
        self.precheck_report = None
        self.meter = MemoryMeter(limit=memory_limit)
        self._deadline = deadline
        self._engine = make_engine(use_kernel, formula)
        self._built: dict[int, ClauseLits] = {}
        self._num_original = trace.header.num_original_clauses
        self._original_core: set[int] = set()
        self._learned_used: set[int] = set()
        self._resolutions = 0

    # -- public API ----------------------------------------------------------

    def check(self) -> CheckReport:
        """Run the check; never raises — failures land in the report."""
        start = time.perf_counter()
        failure: CheckFailure | None = None
        verified = False
        try:
            if self._precheck:
                from repro.checker.precheck import run_precheck

                self.precheck_report = run_precheck(self.trace)
            if self._deadline is not None:
                self._deadline.check()
            self._check_preamble()
            self._charge_trace_memory()
            final_cid = self.trace.final_conflicts[0]
            level_zero = LevelZeroState(self.trace.level_zero)
            final_clause = self._build(final_cid)
            steps = derive_empty_clause(
                final_cid,
                final_clause,
                level_zero,
                get_clause=self._build,
                on_use=self._note_use,
                resolve_fn=self._engine.resolve,
                deadline=self._deadline,
            )
            self._resolutions += steps
            verified = True
        except CheckFailure as exc:
            failure = exc
        except TraceError as exc:
            # A hand-built Trace can hold records normal parsing rejects;
            # the contract is "never raises", so convert instead.
            failure = CheckFailure(FailureKind.MALFORMED_TRACE, str(exc))
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=sum(1 for cid in self._built if cid > self._num_original),
            total_learned=self.trace.num_learned,
            peak_memory_units=self.meter.peak,
            check_time=time.perf_counter() - start,
            resolutions=self._resolutions,
            original_core=self._original_core if verified else None,
            learned_used=self._learned_used if verified else None,
            prune=self._plan.to_dict() if self._plan is not None else None,
            memory=engine_memory_stats(self._engine, self.meter),
        )

    @property
    def built(self) -> Mapping[int, ClauseLits]:
        """Read-only view of every clause built so far, originals included."""
        return MappingProxyType(self._built)

    # -- internals -------------------------------------------------------------

    def _check_preamble(self) -> None:
        check_unsat_claim(self.trace.status, self.trace.final_conflicts)
        check_clause_count(self.formula.num_clauses, self._num_original)

    def _charge_trace_memory(self) -> None:
        """The DF checker reads the entire trace into main memory (§3.2).

        Under a prune plan, statically dead records are not needed for the
        replay and are not charged (a disk-backed DF would not load them).
        """
        skip = self._plan.skip if self._plan is not None else frozenset()
        units = 0
        for cid, record in self.trace.learned.items():
            if cid in skip:
                continue
            units += self.meter.record_units(1 + len(record.sources))
        units += self.meter.record_units(3) * len(self.trace.level_zero)
        self.meter.allocate(units)

    def _note_use(self, cid: int) -> None:
        if cid <= self._num_original:
            self._original_core.add(cid)
        else:
            self._learned_used.add(cid)

    def _build(self, cid: int) -> ClauseLits:
        """recursive_build of Fig. 3, iteratively (traces run deep)."""
        cached = self._built.get(cid)
        if cached is not None:
            return cached
        if cid <= self._num_original:
            return self._materialize_original(cid)

        stack = [cid]
        deadline = self._deadline
        ticks = 0
        while stack:
            # The recursion-turned-loop is the DF checker's streaming loop:
            # poll the wall-clock budget every few hundred build steps.
            if deadline is not None:
                ticks += 1
                if not ticks & 0xFF:
                    deadline.check()
            top = stack[-1]
            if top in self._built:
                stack.pop()
                continue
            record = self.trace.learned.get(top)
            if record is None:
                raise CheckFailure(
                    FailureKind.UNKNOWN_CLAUSE,
                    "trace references a clause ID that was never defined",
                    cid=top,
                )
            pending = []
            for source in record.sources:
                if source >= top:
                    check_sources(top, record.sources)
                if source not in self._built:
                    if source <= self._num_original:
                        self._materialize_original(source)
                    else:
                        pending.append(source)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            self._resolve_record(top, record.sources)
        return self._built[cid]

    def _materialize_original(self, cid: int) -> ClauseLits:
        clause = self._engine.original(cid)
        self._built[cid] = clause
        return clause

    def _resolve_record(self, cid: int, sources: tuple[int, ...]) -> None:
        if not sources:
            check_sources(cid, sources)
        try:
            clause = self._engine.chain(cid, sources, self._built.__getitem__)
        except ResolutionError as exc:
            # Count the steps that succeeded before the chain broke, so
            # failure reports match the old fold's bookkeeping.
            self._resolutions += max(0, (exc.context.get("chain_position") or 1) - 1)
            raise
        for source in sources:
            self._note_use(source)
        self._resolutions += len(sources) - 1
        self._built[cid] = clause
        self.meter.allocate(self.meter.clause_units(len(clause)))
