"""The constant-memory shifting-window checker.

"Fast Verifying Proofs of Propositional Unsatisfiability via Window
Shifting" observes that a resolution proof ordered by clause ID can be
verified inside a bounded window that slides over the proof: at any
moment only the clauses the remaining proof still references need to be
resident. This checker is that idea on top of the repo's BF machinery:

* **Zero-copy decoding, once.** A binary trace is ``mmap``'d
  (:class:`~repro.trace.binary_format.MappedBinaryTrace`) and decoded
  straight off the mapping by the counting pass
  (:func:`~repro.trace.binary_format.scan_mapped_learned`), which spools
  every record it decodes (:mod:`repro.checker.counts`); the checking
  pass replays the spool in ``window_records``-sized batches. A run under
  a prune plan has no counting pass and decodes its batches off the
  mapping (:func:`~repro.trace.binary_format.decode_mapped_batch`). The
  full :class:`~repro.trace.records.Trace` is never materialized, so
  decoding memory is one batch or spool block, regardless of trace size.
  ASCII traces and in-memory ``Trace`` objects are counted by one
  :func:`~repro.checker.counts.count_records` sweep and checked through
  the generic record path in the same batches.
* **Counting pre-pass.** Like BF, a first streaming pass writes each
  learned clause's total use count to a temp file
  (:mod:`repro.checker.counts`). Unless the counting is chunked, it also
  records each clause's *last use* — the stream position of its final
  reference — which orders the window's retirement decisions.
* **Originals are read from the formula.** The checker holds only the
  clauses the trace defines: learned clauses. An original clause is the
  caller's :class:`~repro.cnf.CnfFormula` entry, handed to the kernel as
  the deduplicated literal tuple the formula already holds. It is never
  copied, frozen or counted, so there is nothing to evict.
* **Bounded residency, never memory-out.** Resident learned clauses are
  bounded by ``memory_budget`` (logical units, the ``--memory-window``
  budget). Like BF's meter, the budget never counts originals. When the
  window overflows, learned clauses are *spilled* to a temp file and
  transparently reloaded on demand. Unlike every other checker,
  exceeding the budget is therefore never a failure: this is the
  supervisor's last-resort tier that trades disk traffic for a hard
  memory ceiling.
* **Spill the clause needed latest, by expected next use.** A clause
  entering the window (built, or reloaded) is keyed by its expected gap
  to its next use, ``(last_use - position) / remaining_uses``: the
  distance to its last reference, spread evenly over the uses it has
  left. The largest gap spills first, so a clause used every few records
  until the end of the proof stays resident, where keying by last use
  alone would spill it first and reload it straight back. The key costs
  nothing per use: it is computed only when a clause enters the window.
  Ranking by exact next use instead would re-key a clause on every use,
  which costs as much as the spills it saves. Without last uses (a prune
  plan or chunked counting) the oldest clause spills first. A spilled
  clause is written at the spill file's end offset and read back from
  its own offset, one system call each.

Verdicts are byte-identical to BF/DF, failure context included: the
same build, consume and level-zero derivation code paths run, and the
level-zero checks name an offending literal in sorted order whether a
clause arrives as the formula's tuple or as a frozen kernel clause.
Only residency management differs.
"""

from __future__ import annotations

import errno
import os
import time
from array import array
from heapq import heappop, heappush
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from repro.checker.counts import (
    CountsReader,
    count_records,
    iter_spool,
    new_counts_file,
    new_spool,
    open_spool,
    reading,
    write_count_range,
    write_plan_counts,
)
from repro.checker.errors import (
    CheckFailure,
    FailureKind,
    check_headers,
    check_sources,
    check_unsat_claim,
)
from repro.checker.kernel import ClauseLits, engine_memory_stats, make_engine
from repro.checker.level_zero import LevelZeroState, derive_empty_clause
from repro.checker.memory import CLAUSE_OVERHEAD, Deadline, MemoryMeter
from repro.checker.report import CheckReport
from repro.checker.resolution import ResolutionError
from repro.cnf import CnfFormula
from repro.trace.binary_format import (
    MAGIC,
    MappedBinaryTrace,
    decode_mapped_batch,
    scan_mapped_learned,
)
from repro.trace.io import iter_trace_records
from repro.trace.records import (
    FinalConflict,
    LearnedClause,
    LevelZeroAssignment,
    Trace,
    TraceError,
    TraceRecord,
    TraceResult,
)
from repro.trace.windows import ShiftingWindow


class StreamingWindowChecker:
    """Validates an UNSAT claim in bounded memory over an mmap'd trace."""

    method = "streaming"

    def __init__(
        self,
        formula: CnfFormula,
        trace_source: str | Path | Trace,
        memory_budget: int | None = None,
        window_records: int | None = None,
        count_chunk_size: int | None = None,
        tmp_dir: str | Path | None = None,
        precheck: bool = False,
        use_kernel: bool = True,
        deadline: Deadline | None = None,
        prune_plan=None,
    ):
        if count_chunk_size is not None and count_chunk_size < 1:
            raise ValueError(f"count_chunk_size must be positive, got {count_chunk_size}")
        if memory_budget is not None and memory_budget < 0:
            raise ValueError(f"memory_budget must be non-negative, got {memory_budget}")
        self.formula = formula
        self._source = trace_source
        self._plan = prune_plan
        self._precheck = precheck
        self.precheck_report = None
        # No limit= here, by design: the streaming checker converts memory
        # pressure into spills, so the meter only observes, never raises.
        self.meter = MemoryMeter()
        self._engine = make_engine(use_kernel, formula)
        self._budget = memory_budget
        self._window = ShiftingWindow(window_records)
        self._chunk_size = count_chunk_size
        self._tmp_dir = str(tmp_dir) if tmp_dir is not None else None
        self._deadline = deadline
        self._num_original: int | None = None
        self._originals = formula.clauses
        self._total_learned = 0
        self._clauses_built = 0
        self._resolutions = 0
        # Residency state. ``_resident`` holds learned clauses, keyed by
        # cid; originals are never resident (``_get_clause`` reads them
        # from the formula). ``_resident_units`` is what ``memory_budget``
        # bounds — learned clause units only, excluding the O(num_vars)
        # level-zero trail.
        self._resident: dict[int, ClauseLits] = {}
        self._remaining: dict[int, int] = {}
        self._resident_units = 0
        self._peak_resident_units = 0
        # Retirement order: a lazy-deletion min-heap of (key, cid), keyed
        # when a clause enters the window (see _admit). With last uses
        # known, the key is minus the clause's expected gap to its next
        # use, so the clause expected to be needed latest spills first.
        # Without them (prune plan or chunked counting), the key is the
        # cid: oldest clause first.
        self._last_use: dict[int, int] = {}
        self._position = 0  # ordinal of the record being checked: the last-use clock
        self._evict_heap: list[tuple[float, int]] = []
        # Spill file: append-only raw literal arrays written at
        # _spill_end, cid -> (offset, nbytes).
        self._spill_fd: int | None = None
        self._spill_path: str | None = None
        self._spill_end = 0
        self._spill_index: dict[int, tuple[int, int]] = {}
        self.spills = 0
        self.reloads = 0
        self._mapped: MappedBinaryTrace | None = None
        self._spool_path: str | None = None  # the counting pass's record spool

    # -- public API ----------------------------------------------------------

    def check(self) -> CheckReport:
        """Run the check; never raises — failures land in the report."""
        start = time.perf_counter()
        failure: CheckFailure | None = None
        verified = False
        counts_path: str | None = None
        try:
            if self._deadline is not None:
                self._deadline.check()
            if self._precheck:
                from repro.checker.precheck import run_precheck

                self.precheck_report = run_precheck(self._source)
            self._open_mapping()
            max_cid, counts_path = self._counting_pass()
            with open(counts_path, "rb") as counts_file, open_spool(
                self._spool_path
            ) as spool:
                assert self._num_original is not None
                counts = CountsReader(counts_file, self._num_original + 1)
                verified = self._checking_pass(counts, spool)
        except CheckFailure as exc:
            failure = exc
        except TraceError as exc:
            failure = CheckFailure(FailureKind.MALFORMED_TRACE, str(exc))
        finally:
            if counts_path is not None:
                os.unlink(counts_path)
            if self._spool_path is not None:
                os.unlink(self._spool_path)
                self._spool_path = None
            self._close_spill()
            if self._mapped is not None:
                self._mapped.close()
                self._mapped = None
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=self._clauses_built,
            total_learned=self._total_learned,
            peak_memory_units=self.meter.peak,
            check_time=time.perf_counter() - start,
            resolutions=self._resolutions,
            window_stats=self._window.entries or None,
            prune=self._plan.to_dict() if self._plan is not None else None,
            memory=self._memory_stats(),
        )

    # -- source plumbing ------------------------------------------------------

    def _open_mapping(self) -> None:
        """Map the source when it is a binary trace file; else stay generic."""
        if not isinstance(self._source, (str, Path)):
            return
        try:
            with open(self._source, "rb") as handle:
                is_binary = handle.read(len(MAGIC)) == MAGIC
        except OSError as exc:
            raise TraceError(f"{self._source}: {exc}") from None
        if is_binary:
            self._mapped = MappedBinaryTrace(self._source)

    def _records(self) -> Iterator[TraceRecord]:
        if isinstance(self._source, Trace):
            return self._source.records()
        return reading(iter_trace_records, self._source)

    def _batches(self, spool: BinaryIO | None) -> Iterator[list]:
        """The trace as ``window_records``-sized batches.

        A spool replays the records the counting pass decoded; a mapped
        source without one (a prune plan replaced the counting pass)
        decodes straight off the mmap view. Both yield learned records as
        bare ``(cid, sources)`` tuples. Everything else batches the generic
        record stream. Either way only one batch is ever held.
        """
        size = self._window.window_records
        if spool is None and self._mapped is not None:
            view = self._mapped.view
            pos = self._mapped.payload_start
            while True:
                items, pos = decode_mapped_batch(view, pos, size)
                if not items:
                    return
                yield items
        else:
            records = iter_spool(spool) if spool is not None else self._records()
            while True:
                batch = list(islice(records, size))
                if not batch:
                    return
                yield batch

    # -- pass 1: extent + counts (+ last uses) --------------------------------

    def _counting_pass(self) -> tuple[int, str]:
        """Write the use-count file; returns ``(max_cid, counts_path)``.

        Sets ``_num_original``/``_total_learned`` and, unless counting is
        chunked or a prune plan replaces it, fills ``_last_use`` with each
        clause's final-reference stream position. A record stream (ASCII
        or in memory) is counted in one sweep, chunked or not.
        """
        formula_clauses = self.formula.num_clauses
        plan = self._plan
        if plan is not None:
            path = write_plan_counts(plan, formula_clauses, self._tmp_dir, "stream-counts-")
            self._num_original = plan.num_original
            self._total_learned = plan.total_learned
            return plan.max_cid, path
        mapped = self._mapped
        # Chunked counting (the paper's multi-pass mode) counts nothing on
        # the mapped first pass (an empty count range), then makes one pass
        # per clause-ID chunk. Last uses are not collected then — they
        # would need the full range in one pass — so eviction falls back to
        # oldest-first. Either way this pass spools every record.
        chunk = self._chunk_size if mapped is not None else None
        if mapped is not None:
            with new_spool(self._tmp_dir, prefix="stream-spool-") as spool:
                headers, max_cid, num_learned, counts, last_use = scan_mapped_learned(
                    mapped.view,
                    count_range=None if chunk is None else (0, 0),
                    track_last_use=chunk is None,
                    spool=spool,
                )
            self._spool_path = spool.path
        else:
            headers, max_cid, num_learned, counts, last_use = count_records(
                self._records(), formula_clauses, track_last_use=True, deadline=self._deadline
            )
        num_original = check_headers(formula_clauses, headers)
        self._total_learned = num_learned
        self._num_original = num_original
        self._last_use = last_use
        max_cid = max(max_cid, num_original)
        first_learned = num_original + 1
        with new_counts_file(self._tmp_dir, prefix="stream-counts-") as (path, handle):
            if chunk is None:
                write_count_range(handle, first_learned, max_cid + 1, counts.get)
            else:
                assert mapped is not None
                for low in range(first_learned, max_cid + 1, chunk):
                    high = min(low + chunk, max_cid + 1)
                    _, _, _, counts, _ = scan_mapped_learned(
                        mapped.view, count_range=(low, high)
                    )
                    write_count_range(handle, low, high, counts.get)
        return max_cid, path

    # -- residency management -------------------------------------------------

    def _spill_file(self) -> int:
        """The spill file's descriptor, created on the first spill."""
        if self._spill_fd is None:
            import tempfile

            self._spill_fd, self._spill_path = tempfile.mkstemp(
                prefix="stream-spill-", dir=self._tmp_dir
            )
        return self._spill_fd

    def _close_spill(self) -> None:
        if self._spill_fd is not None:
            os.close(self._spill_fd)
            self._spill_fd = None
        if self._spill_path is not None:
            os.unlink(self._spill_path)
            self._spill_path = None

    def _admit(self, cid: int, clause: ClauseLits, remaining: int) -> None:
        """Make a learned clause resident and queue it for retirement.

        ``remaining`` is how many uses the clause has left. The key is
        computed here, once per entry into the window, never per use.
        """
        self._resident[cid] = clause
        units = len(clause) + CLAUSE_OVERHEAD  # type: ignore[arg-type]
        self._resident_units += units
        if self._resident_units > self._peak_resident_units:
            self._peak_resident_units = self._resident_units
        self.meter.allocate(units)
        last_use = self._last_use
        key = (self._position - last_use[cid]) / remaining if last_use else cid
        heappush(self._evict_heap, (key, cid))

    def _release(self, clause: ClauseLits) -> None:
        """Take a clause that left the window off the budget and the kernel."""
        units = len(clause) + CLAUSE_OVERHEAD  # type: ignore[arg-type]
        self._resident_units -= units
        self.meter.release(units)
        self._engine.release(clause)

    def _spill(self, cid: int, clause: ClauseLits) -> None:
        """Move a still-needed learned clause from the window to disk."""
        blob = array("i", sorted(clause)).tobytes()
        offset = self._spill_end
        written = os.pwrite(self._spill_file(), blob, offset)
        if written != len(blob):
            raise OSError(
                errno.EIO,
                f"short spill write: {written} of {len(blob)} bytes",
                self._spill_path,
            )
        self._spill_end = offset + written
        self._spill_index[cid] = (offset, written)
        del self._resident[cid]
        self._release(clause)
        self.spills += 1

    def _reload(self, cid: int) -> ClauseLits:
        """Bring a spilled clause back into the window.

        A short read fails loudly: a clause reloaded without some of its
        literals is a stronger clause, which could verify an invalid proof.
        """
        offset, nbytes = self._spill_index.pop(cid)
        assert self._spill_fd is not None
        blob = os.pread(self._spill_fd, nbytes, offset)
        if len(blob) != nbytes:
            raise OSError(
                errno.EIO,
                f"short spill read: {len(blob)} of {nbytes} bytes",
                self._spill_path,
            )
        literals = array("i")
        literals.frombytes(blob)
        clause = self._engine.materialize(literals)
        self._admit(cid, clause, self._remaining[cid])
        self.reloads += 1
        return clause

    def _enforce_budget(self) -> None:
        """Shrink the window back under ``memory_budget``.

        Learned clauses spill in retirement order. Runs only between
        builds, so no resolution chain is in flight when a clause leaves
        the window.
        """
        budget = self._budget
        if budget is None:
            return
        heap = self._evict_heap
        while self._resident_units > budget and heap:
            _, cid = heappop(heap)
            clause = self._resident.get(cid)
            if clause is None:
                continue  # stale heap entry (consumed or already spilled)
            self._spill(cid, clause)
        # If the heap drains with the budget still exceeded (budget smaller
        # than one window batch's live clauses), residency is best-effort —
        # by contract this checker degrades, it never fails.

    def _get_clause(self, cid: int) -> ClauseLits:
        num_original = self._num_original
        assert num_original is not None
        if cid <= num_original:
            # Read straight from the formula: never copied, frozen or
            # counted against the budget. The lower bound keeps 0 and
            # negative IDs from indexing round to the last clause.
            if cid > 0:
                return self._originals[cid - 1].literals
            raise CheckFailure(
                FailureKind.UNKNOWN_CLAUSE,
                "trace references an original clause absent from the formula",
                cid=cid,
            )
        clause = self._resident.get(cid)
        if clause is not None:
            return clause
        if cid in self._spill_index:
            return self._reload(cid)
        raise CheckFailure(
            FailureKind.UNKNOWN_CLAUSE,
            "clause is not resident: never defined, defined later, or "
            "already fully consumed",
            cid=cid,
        )

    def _consume_uses(self, cids: Iterable[int]) -> None:
        """Decrement each clause's remaining-use counter; free/forget at zero.

        Takes a whole resolve chain per call: the loop runs for every
        source in the trace, where a method call each costs more than the
        decrement itself.
        """
        num_original = self._num_original
        assert num_original is not None
        remaining_map = self._remaining
        for cid in cids:
            if cid <= num_original:
                continue
            remaining = remaining_map.get(cid)
            if remaining is None:
                continue
            if remaining > 1:
                remaining_map[cid] = remaining - 1
                continue
            del remaining_map[cid]
            clause = self._resident.pop(cid, None)
            if clause is not None:
                self._release(clause)
            else:
                # Fully consumed while spilled: its bytes just become dead
                # space in the spill file (reclaimed when the file is deleted).
                self._spill_index.pop(cid, None)

    # -- pass 2: windowed checking --------------------------------------------

    def _build_learned(self, cid: int, sources: Sequence[int], counts: CountsReader) -> None:
        if not sources or max(sources) >= cid:
            check_sources(cid, sources)
        try:
            clause = self._engine.chain(cid, sources, self._get_clause)
        except ResolutionError as exc:
            self._resolutions += max(0, (exc.context.get("chain_position") or 1) - 1)
            raise
        self._resolutions += len(sources) - 1
        self._clauses_built += 1
        self._consume_uses(sources)
        total_uses = counts.read(cid)
        if total_uses == 0:
            self._engine.release(clause)
            return
        self._remaining[cid] = total_uses
        self._admit(cid, clause, total_uses)
        self._enforce_budget()

    def _checking_pass(self, counts: CountsReader, spool: BinaryIO | None) -> bool:
        assert self._num_original is not None
        level_zero_entries: list[LevelZeroAssignment] = []
        final_conflicts: list[int] = []
        status = "UNKNOWN"
        last_cid = self._num_original
        deadline = self._deadline
        skip = self._plan.skip if self._plan is not None else None
        window = self._window
        # Every record advances the clock the counting pass stamped last
        # uses with, whichever path the records come from.
        position = 0
        for batch in self._batches(spool):
            if deadline is not None:
                deadline.check()
            built_before = self._clauses_built
            for record in batch:
                position += 1
                if type(record) is tuple:
                    cid, sources = record
                elif isinstance(record, LearnedClause):
                    cid = record.cid
                    sources = record.sources
                elif isinstance(record, LevelZeroAssignment):
                    level_zero_entries.append(record)
                    self.meter.allocate(self.meter.record_units(3))
                    continue
                elif isinstance(record, FinalConflict):
                    final_conflicts.append(record.cid)
                    continue
                elif isinstance(record, TraceResult):
                    status = record.status
                    continue
                else:
                    continue  # headers, deletions, anything future
                if cid <= last_cid:
                    raise CheckFailure(
                        FailureKind.CYCLIC_TRACE,
                        "learned clause IDs must be strictly increasing",
                        cid=cid,
                        previous=last_cid,
                    )
                last_cid = cid
                if skip is not None and cid in skip:
                    continue
                self._position = position
                self._build_learned(cid, sources, counts)
            window.advance(
                len(batch),
                built=self._clauses_built - built_before,
                resident_units=self._resident_units,
                resident_clauses=len(self._resident),
                spilled=len(self._spill_index),
            )

        self._position = position
        check_unsat_claim(status, final_conflicts)
        final_cid = final_conflicts[0]
        self._consume_uses(final_conflicts[1:])
        level_zero = LevelZeroState(level_zero_entries)
        steps = derive_empty_clause(
            final_cid,
            self._get_clause(final_cid),
            level_zero,
            get_clause=self._get_clause,
            on_use=lambda cid: self._consume_uses((cid,)),
            resolve_fn=self._engine.resolve,
            deadline=self._deadline,
        )
        self._resolutions += steps
        return True

    # -- reporting ------------------------------------------------------------

    def _memory_stats(self) -> dict:
        stats = engine_memory_stats(self._engine, self.meter)
        stats.update(
            {
                "budget_units": self._budget,
                "peak_resident_units": self._peak_resident_units,
                "spilled_clauses": self.spills,
                "reloaded_clauses": self.reloads,
                "windows": self._window.index,
            }
        )
        return stats
