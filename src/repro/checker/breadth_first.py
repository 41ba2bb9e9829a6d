"""The breadth-first checker (§3.3 of the paper).

Streams the trace in generation order, building every learned clause as its
record arrives. A counting pre-pass (written to a temporary file, exactly as
the paper describes — even one in-memory counter per learned clause may not
fit) records how many times each clause is used as a resolve source; during
checking, a clause is deleted the moment its last use completes. Peak
resident memory therefore never exceeds what the solver itself held while
producing the trace.

The counting pass can be chunked over clause-ID ranges
(``count_chunk_size``) — the paper: "we may also need to break the first
pass into several passes so that we can count the number of usages of the
clauses in one range at a time." Chunked, it is an extent sweep plus one
sweep per range; otherwise it reads the trace once.

On a binary trace the (unchunked) counting pass also spools every record
it decodes (:mod:`repro.checker.counts`), and the checking pass replays
the spool instead of decoding the trace a second time.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from repro import faults
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
from repro.checker.memory import Deadline, MemoryMeter
from repro.checker.report import CheckReport
from repro.checker.resolution import ResolutionError
from repro.cnf import CnfFormula
from repro.trace.binary_format import (
    MAGIC,
    iter_binary_records_raw,
    scan_binary_learned,
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

# Version 2 replaced the shape-only fingerprint (num_original,
# total_learned, binary_fast) with one that also carries the streaming
# SHA-256 of the trace content: two different traces with the same shape
# must never validate against each other's checkpoints. Version-1 files
# are rejected by load_checkpoint — the resume path treats that as a
# mismatch and falls back to a full run (never fatal).
_CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or belongs to a different check."""


@dataclass
class BfCheckpoint:
    """A resumable snapshot of the BF checking pass.

    Everything the streaming pass holds between two records, in plain
    picklable types: the stream position (``records_consumed``, an index
    into the record stream — format-agnostic, so ASCII and binary traces
    checkpoint identically), the resident clause literals and their
    remaining-use counts, the trail/conflict/status records seen so far,
    and the progress counters. ``fingerprint`` ties the snapshot to one
    specific check: the clause extent, the stream flavour, and the
    streaming SHA-256 of the trace *content* (see
    :func:`repro.trace.fingerprint.trace_content_hash`); resuming against
    a different trace — even one with the same shape — falls back to a
    fresh full run.
    """

    version: int
    # (num_original, total_learned, binary_fast, trace_sha256)
    fingerprint: tuple[int, int, bool, str]
    records_consumed: int
    last_cid: int
    resident: dict[int, tuple[int, ...]]
    remaining: dict[int, int]
    level_zero: list[tuple[int, bool, int]]  # (var, value, antecedent)
    final_conflicts: list[int]
    status: str
    clauses_built: int
    resolutions: int
    meter_current: int
    meter_peak: int
    context: dict = field(default_factory=dict)  # free-form (trace path, time)


FP_CHECKPOINT_WRITE = faults.register_fault_point(
    "checkpoint.write", writes=True,
    doc="just before a BF checkpoint snapshot is written",
)


def write_checkpoint(checkpoint: BfCheckpoint, path: str | Path) -> None:
    """Atomically *and durably* persist a snapshot.

    Write-to-temp + rename makes the swap atomic; the file fsync makes the
    bytes durable before the rename exposes them; the parent-directory
    fsync makes the rename itself survive power loss. A checkpoint whose
    whole point is resuming after a crash must not itself be lost to one.
    """
    faults.fault_point(FP_CHECKPOINT_WRITE)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    parent = os.path.dirname(os.fspath(path)) or "."
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> BfCheckpoint:
    """Load a snapshot; raises :class:`CheckpointError` on anything unusable."""
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
    if not isinstance(checkpoint, BfCheckpoint):
        raise CheckpointError(f"{path} does not hold a BF checkpoint")
    if checkpoint.version != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} unsupported "
            f"(expected {_CHECKPOINT_VERSION})"
        )
    return checkpoint


class BreadthFirstChecker:
    """Validates an UNSAT claim by streaming the trace with bounded memory."""

    method = "breadth-first"

    def __init__(
        self,
        formula: CnfFormula,
        trace_source: str | Path | Trace,
        memory_limit: int | None = None,
        count_chunk_size: int | None = None,
        tmp_dir: str | Path | None = None,
        precheck: bool = False,
        use_kernel: bool = True,
        deadline: Deadline | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        resume_from: str | Path | None = None,
        prune_plan=None,
    ):
        if count_chunk_size is not None and count_chunk_size < 1:
            raise ValueError(f"count_chunk_size must be positive, got {count_chunk_size}")
        self.formula = formula
        self._source = trace_source
        # Core-first pruning (repro.analysis.graph.PrunePlan): skip learned
        # clauses outside the proof cone and take the use counts from the
        # plan, eliminating the extent and counting passes entirely.
        self._plan = prune_plan
        self._precheck = precheck
        self.precheck_report = None
        self.meter = MemoryMeter(limit=memory_limit)
        self._engine = make_engine(use_kernel, formula)
        self._chunk_size = count_chunk_size
        self._tmp_dir = str(tmp_dir) if tmp_dir is not None else None
        self._num_original: int | None = None
        self._resident: dict[int, ClauseLits] = {}
        self._remaining: dict[int, int] = {}
        self._clauses_built = 0
        self._total_learned = 0
        self._resolutions = 0
        self._binary_fast = False
        self._spool_path: str | None = None  # the counting pass's record spool
        self._deadline = deadline
        # Checkpoint/resume: snapshot every `checkpoint_every` learned
        # builds to `checkpoint_path`; `resume_from` restarts from a prior
        # snapshot (falling back to a full run if it doesn't match).
        self._checkpoint_path = str(checkpoint_path) if checkpoint_path else None
        self._checkpoint_every = max(0, checkpoint_every)
        self._resume_from = str(resume_from) if resume_from else None
        self.resumed = False  # did this run actually start from a snapshot?
        self.resume_error: str | None = None
        self._trace_hash: str | None = None  # computed lazily, checkpoint paths only
        if self._checkpoint_every and not self._checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path to write to")

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
            max_cid, counts_path = self._extent_and_counts()
            with open(counts_path, "rb") as counts_file, open_spool(
                self._spool_path
            ) as spool:
                assert self._num_original is not None
                counts = CountsReader(counts_file, self._num_original + 1)
                verified = self._checking_pass(counts, spool)
        except CheckFailure as exc:
            failure = exc
        except TraceError as exc:
            # A record stream can turn out to be malformed or unreadable
            # mid-pass (torn file, zero-source record, bad varint, a read
            # error). The public contract is "never raises", so convert
            # instead of letting it escape.
            failure = CheckFailure(FailureKind.MALFORMED_TRACE, str(exc))
        finally:
            if counts_path is not None:
                os.unlink(counts_path)
            if self._spool_path is not None:
                os.unlink(self._spool_path)
                self._spool_path = None
        return CheckReport(
            method=self.method,
            verified=verified,
            failure=failure,
            clauses_built=self._clauses_built,
            total_learned=self._total_learned,
            peak_memory_units=self.meter.peak,
            check_time=time.perf_counter() - start,
            resolutions=self._resolutions,
            prune=self._plan.to_dict() if self._plan is not None else None,
            memory=engine_memory_stats(self._engine, self.meter),
        )

    # -- record streaming -------------------------------------------------------

    def _records(self) -> Iterator[TraceRecord]:
        if isinstance(self._source, Trace):
            return self._source.records()
        return reading(iter_trace_records, self._source)

    # -- pass 1: counting ---------------------------------------------------------

    def _extent_and_counts(self) -> tuple[int, str]:
        """Run the counting pass; returns (max_cid, counts path).

        When the source is a binary trace file (and chunked counting was
        not requested), it is one :func:`scan_binary_learned` sweep that
        decodes the varints in place without constructing record objects
        — the same arithmetic at a fraction of the cost — and spools the
        decoded records for the checking pass. Everything else is counted
        by :func:`count_records` sweeps over the record stream: one, or
        with chunked counting an extent sweep plus one per clause-ID range.

        With a prune plan there is no counting pass: the plan already
        carries the extent and the exact use counts restricted to the
        proof cone.
        """
        chunked = self._chunk_size is not None
        if not chunked and isinstance(self._source, (str, Path)):
            try:
                with open(self._source, "rb") as handle:
                    self._binary_fast = handle.read(len(MAGIC)) == MAGIC
            except OSError as exc:
                raise TraceError(f"{self._source}: {exc}") from None
        formula_clauses = self.formula.num_clauses
        plan = self._plan
        if plan is not None:
            path = write_plan_counts(plan, formula_clauses, self._tmp_dir, "bfcheck-counts-")
            self._num_original = plan.num_original
            self._total_learned = plan.total_learned
            return plan.max_cid, path
        if self._binary_fast:
            with new_spool(self._tmp_dir, prefix="bfcheck-spool-") as spool:
                headers, max_cid, num_learned, counts = scan_binary_learned(
                    self._source, spool=spool
                )
            self._spool_path = spool.path
        else:
            headers, max_cid, num_learned, counts, _ = count_records(
                self._records(),
                formula_clauses,
                count_range=(0, 0) if chunked else None,
                deadline=self._deadline,
            )
        num_original = check_headers(formula_clauses, headers)
        self._total_learned = num_learned
        self._num_original = num_original
        max_cid = max(max_cid, num_original)
        first_learned = num_original + 1
        with new_counts_file(self._tmp_dir) as (path, handle):
            if not chunked:
                write_count_range(handle, first_learned, max_cid + 1, counts.get)
            else:
                chunk = self._chunk_size
                for low in range(first_learned, max_cid + 1, chunk):
                    high = min(low + chunk, max_cid + 1)
                    _, _, _, counts, _ = count_records(
                        self._records(),
                        formula_clauses,
                        count_range=(low, high),
                        deadline=self._deadline,
                    )
                    write_count_range(handle, low, high, counts.get)
        return max_cid, path

    # -- pass 2: checking -----------------------------------------------------------

    def _get_clause(self, cid: int) -> ClauseLits:
        assert self._num_original is not None
        # One dict probe covers both kinds of clause on the hot path:
        # originals are cached here after their first materialization
        # (they are never reference-counted, so they simply stay).
        clause = self._resident.get(cid)
        if clause is not None:
            return clause
        if cid <= self._num_original:
            clause = self._engine.original(cid)
            self._resident[cid] = clause
            return clause
        raise CheckFailure(
            FailureKind.UNKNOWN_CLAUSE,
            "clause is not resident: never defined, defined later, or "
            "already fully consumed",
            cid=cid,
        )

    def _consume_use(self, cid: int) -> None:
        """Decrement a resident clause's remaining-use counter; free at zero."""
        assert self._num_original is not None
        if cid <= self._num_original:
            return
        remaining = self._remaining.get(cid)
        if remaining is None:
            return
        if remaining <= 1:
            clause = self._resident.pop(cid)
            del self._remaining[cid]
            self.meter.release(self.meter.clause_units(len(clause)))
            self._engine.release(clause)
        else:
            self._remaining[cid] = remaining - 1

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
        # Decrement sources only after the build succeeded, so diagnostics
        # for a failed build still see the inputs. (Inline _consume_use:
        # this loop runs once per resolve source across the whole trace.)
        num_original = self._num_original
        remaining_map = self._remaining
        for source in sources:
            if source <= num_original:
                continue
            remaining = remaining_map.get(source)
            if remaining is None:
                continue
            if remaining <= 1:
                freed = self._resident.pop(source)
                del remaining_map[source]
                self.meter.release(self.meter.clause_units(len(freed)))
                self._engine.release(freed)
            else:
                remaining_map[source] = remaining - 1
        total_uses = counts.read(cid)
        if total_uses == 0:
            self._engine.release(clause)
            return  # validated, never used again: drop immediately
        self._resident[cid] = clause
        self._remaining[cid] = total_uses
        self.meter.allocate(self.meter.clause_units(len(clause)))

    def _trace_fingerprint(self) -> str:
        """Streaming content hash of the trace source, computed at most once.

        Only the checkpoint/resume paths pay for this — a plain check
        never hashes anything.
        """
        if self._trace_hash is None:
            from repro.trace.fingerprint import trace_content_hash

            content = trace_content_hash(self._source)
            if self._plan is not None:
                # A pruned run's stream position skips dead clauses, so its
                # snapshots are only resumable under the same skip set.
                content = f"{content}+prune:{self._plan.digest()}"
            self._trace_hash = content
        return self._trace_hash

    def _load_resume_checkpoint(self) -> BfCheckpoint | None:
        """Load and validate the resume snapshot; ``None`` = run from scratch.

        An unreadable or mismatched checkpoint is never fatal — the whole
        point of the resilience layer is that the check still completes —
        but the reason is kept on ``resume_error`` for the caller.
        """
        assert self._resume_from is not None
        try:
            checkpoint = load_checkpoint(self._resume_from)
        except CheckpointError as exc:
            self.resume_error = str(exc)
            return None
        expected = (
            self._num_original,
            self._total_learned,
            self._binary_fast,
            self._trace_fingerprint(),
        )
        # Tuple comparison also rejects any old-format fingerprint that
        # slipped past the version gate (a 3-tuple never equals a 4-tuple).
        if checkpoint.fingerprint != expected:
            self.resume_error = (
                f"checkpoint fingerprint {checkpoint.fingerprint} does not "
                f"match this check {expected}; running from scratch"
            )
            return None
        return checkpoint

    def _restore_checkpoint(self, checkpoint: BfCheckpoint):
        """Re-seat the streaming pass's state from a snapshot."""
        self._resident = {
            cid: self._engine.materialize(lits)
            for cid, lits in checkpoint.resident.items()
        }
        self._remaining = dict(checkpoint.remaining)
        self._clauses_built = checkpoint.clauses_built
        self._resolutions = checkpoint.resolutions
        self.meter.current = checkpoint.meter_current
        self.meter.peak = checkpoint.meter_peak
        level_zero_entries = [
            LevelZeroAssignment(var, value, antecedent)
            for var, value, antecedent in checkpoint.level_zero
        ]
        return level_zero_entries, list(checkpoint.final_conflicts)

    def _snapshot(
        self,
        records_consumed: int,
        last_cid: int,
        level_zero_entries: list[LevelZeroAssignment],
        final_conflicts: list[int],
        status: str,
    ) -> None:
        assert self._num_original is not None and self._checkpoint_path is not None
        checkpoint = BfCheckpoint(
            version=_CHECKPOINT_VERSION,
            fingerprint=(
                self._num_original,
                self._total_learned,
                self._binary_fast,
                self._trace_fingerprint(),
            ),
            records_consumed=records_consumed,
            last_cid=last_cid,
            # Kernel clauses are sets: sort, so equal states snapshot equally.
            resident={cid: tuple(sorted(lits)) for cid, lits in self._resident.items()},
            remaining=dict(self._remaining),
            level_zero=[(e.var, e.value, e.antecedent) for e in level_zero_entries],
            final_conflicts=list(final_conflicts),
            status=status,
            clauses_built=self._clauses_built,
            resolutions=self._resolutions,
            meter_current=self.meter.current,
            meter_peak=self.meter.peak,
            context={"source": str(self._source) if not isinstance(self._source, Trace) else "<in-memory>"},
        )
        write_checkpoint(checkpoint, self._checkpoint_path)

    def _checking_pass(self, counts: CountsReader, spool: BinaryIO | None) -> bool:
        assert self._num_original is not None
        level_zero_entries: list[LevelZeroAssignment] = []
        final_conflicts: list[int] = []
        status = "UNKNOWN"
        last_cid = self._num_original
        if spool is not None:
            # The counting pass spooled every record it decoded; learned
            # records come back as bare (cid, sources) tuples.
            stream = iter_spool(spool)
        elif self._binary_fast:
            # A prune plan replaced the counting pass (or a value past
            # int64 left no spool): decode the binary trace, learned
            # records again as bare tuples.
            stream = reading(iter_binary_records_raw, self._source)
        else:
            stream = self._records()
        records_consumed = 0
        if self._resume_from is not None:
            checkpoint = self._load_resume_checkpoint()
            if checkpoint is not None:
                level_zero_entries, final_conflicts = self._restore_checkpoint(checkpoint)
                status = checkpoint.status
                last_cid = checkpoint.last_cid
                records_consumed = checkpoint.records_consumed
                stream = islice(stream, records_consumed, None)
                self.resumed = True
        deadline = self._deadline
        checkpoint_every = self._checkpoint_every
        builds_since_snapshot = 0
        skip = self._plan.skip if self._plan is not None else None
        for record in stream:
            records_consumed += 1
            if deadline is not None and not records_consumed & 0xFF:
                deadline.check()
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
                continue  # TraceHeader and anything future: not checked here
            if cid <= last_cid:
                raise CheckFailure(
                    FailureKind.CYCLIC_TRACE,
                    "learned clause IDs must be strictly increasing",
                    cid=cid,
                    previous=last_cid,
                )
            last_cid = cid
            if skip is not None and cid in skip:
                continue  # statically dead: no path to the empty clause
            self._build_learned(cid, sources, counts)
            if checkpoint_every:
                builds_since_snapshot += 1
                if builds_since_snapshot >= checkpoint_every:
                    builds_since_snapshot = 0
                    self._snapshot(
                        records_consumed, last_cid, level_zero_entries,
                        final_conflicts, status,
                    )

        check_unsat_claim(status, final_conflicts)
        final_cid = final_conflicts[0]
        # The counting pass charged one use per FinalConflict record, but
        # only the first conflict seeds the derivation below. Release the
        # unused conflicts' counts so clauses referenced only by them don't
        # stay resident forever (inflating peak_memory_units).
        for unused_cid in final_conflicts[1:]:
            self._consume_use(unused_cid)
        level_zero = LevelZeroState(level_zero_entries)
        steps = derive_empty_clause(
            final_cid,
            self._get_clause(final_cid),
            level_zero,
            get_clause=self._get_clause,
            on_use=self._consume_use,
            resolve_fn=self._engine.resolve,
            deadline=self._deadline,
        )
        self._resolutions += steps
        return True
