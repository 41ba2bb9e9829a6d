"""The resilient checking supervisor: budgets, fallback, recovery (§3 + §5).

The paper's operational story is a robustness one: the depth-first checker
is fastest but memory-outs on the two hardest Table 2 instances, while the
breadth-first checker never exceeds the solver's own footprint. A checking
*service* has to turn that trade-off into policy: enforce wall-clock and
memory budgets, and when the fast strategy exhausts one, degrade to the
frugal one instead of crashing — recording every attempt so the final
verdict states how it was reached.

:class:`CheckSupervisor` wraps every checker behind one entry point:

* **Budgets** — each attempt runs under a fresh
  :class:`~repro.checker.memory.Deadline` (``FailureKind.TIMEOUT``) and the
  checkers' existing logical memory limit (``FailureKind.MEMORY_OUT``).
  A raw ``MemoryError`` from the Python allocator is converted to the same
  structured memory-out, so even a genuine heap exhaustion degrades
  predictably.
* **The degradation ladder** — under the ``fallback`` policy a resource
  failure moves down the paper-faithful ladder DF → hybrid → BF (RUP and
  DRAT proofs have no resolution trace to re-check, so they get budgets
  only). For trace files at or above ``streaming_threshold_bytes`` the
  final BF rung is replaced by the shifting-window streaming checker
  (:class:`~repro.checker.streaming.StreamingWindowChecker`), whose
  bounded window spills to disk instead of memory-outing — the ladder's
  never-memory-out floor. ``strict`` runs exactly one attempt. The
  ladder is recorded in ``CheckReport.degradation``. An attempt that
  blows up (the ``supervisor.attempt`` fault point) is a
  ``FailureKind.WORKER_CRASH`` and degrades like a resource failure.
* **Checkpoint/resume** — BF attempts can snapshot their streaming state
  every N learned clauses and restart from the last snapshot
  (``repro check --resume``), so an interrupted multi-hour check does not
  start over.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro import faults
from repro.checker.breadth_first import BreadthFirstChecker
from repro.checker.depth_first import DepthFirstChecker
from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.hybrid import HybridChecker
from repro.checker.memory import Deadline
from repro.checker.report import CheckReport
from repro.checker.streaming import StreamingWindowChecker
from repro.cnf import CnfFormula
from repro.proofs.drat import DratChecker, RupChecker
from repro.trace.records import Trace, TraceError

#: Failure kinds the fallback policy is allowed to degrade on. Anything
#: else (a bad resolution, a cyclic trace, …) is a verdict about the
#: *proof*, not about the checker's resources — retrying a different
#: strategy on those would only re-discover the same bug more slowly.
DEGRADABLE_KINDS = frozenset(
    {FailureKind.TIMEOUT, FailureKind.MEMORY_OUT, FailureKind.WORKER_CRASH}
)

FP_ATTEMPT = faults.register_fault_point(
    "supervisor.attempt",
    doc="at the start of one supervised check attempt (key = method name)",
)

#: The paper-faithful degradation ladder, per starting method: fastest
#: first, most memory-frugal last (Table 2's DF memory-outs are exactly
#: what the BF tail exists for).
LADDERS: dict[str, tuple[str, ...]] = {
    "df": ("df", "hybrid", "bf"),
    "hybrid": ("hybrid", "bf"),
    "bf": ("bf",),
    "rup": ("rup",),
    "drat": ("drat",),
    "streaming": ("streaming",),
}

#: File sizes at or above this make the streaming checker the ladder's
#: last rung instead of BF: for traces this big, BF's resident window can
#: still memory-out, while the streaming tier spills to disk and never
#: does. Overridable per run via ``streaming_threshold_bytes`` (0 forces
#: streaming eligibility for any file, ``None`` disables the rewrite).
DEFAULT_STREAMING_THRESHOLD = 64 * 1024 * 1024


#: The lowest value each numeric option accepts (0 or 1); unset (``None``)
#: always passes. ``repro check`` and ``repro submit``, the supervisor and
#: the service scheduler all check values against this one table, so a
#: value out of range fails before any rung runs.
OPTION_MINIMUMS: dict[str, int] = {
    "timeout": 0,
    "memory_limit": 0,
    "memory_window": 0,
    "window_records": 1,
    "count_chunk_size": 1,
    "checkpoint_every": 1,
}


def check_option_values(options: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` naming the first option below its minimum."""
    for name, minimum in OPTION_MINIMUMS.items():
        value = options.get(name)
        if value is not None and value < minimum:
            bound = "positive" if minimum else "non-negative"
            raise ValueError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class CheckPolicy:
    """How the supervisor reacts when an attempt exhausts its budget.

    ``strict`` runs the requested checker once and reports whatever
    happened; ``fallback`` walks the degradation ladder until an attempt
    verifies, fails for a non-resource reason, or the ladder runs dry.
    """

    name: str

    def ladder(self, method: str) -> tuple[str, ...]:
        try:
            full = LADDERS[method]
        except KeyError:
            raise ValueError(f"unknown checker method {method!r}") from None
        return full if self.name == "fallback" else full[:1]

    @classmethod
    def parse(cls, name: str) -> "CheckPolicy":
        if name not in ("strict", "fallback"):
            raise ValueError(f"unknown policy {name!r} (want 'strict' or 'fallback')")
        return cls(name)


STRICT = CheckPolicy("strict")
FALLBACK = CheckPolicy("fallback")


@dataclass
class Attempt:
    """One rung of the ladder: what ran, how it ended, what it cost."""

    method: str
    outcome: str  # "verified" | a FailureKind value
    elapsed: float
    detail: str = ""
    pruned: bool = False  # did this attempt run under a prune plan?
    memory: dict | None = None  # the rung's resident-memory high-water marks

    def to_dict(self) -> dict:
        entry = {
            "method": self.method,
            "outcome": self.outcome,
            "elapsed_s": round(self.elapsed, 4),
        }
        if self.detail:
            entry["detail"] = self.detail
        if self.pruned:
            entry["pruned"] = True
        if self.memory is not None:
            entry["memory"] = self.memory
        return entry


@dataclass
class SupervisorConfig:
    """Everything the resilience layer needs beyond the formula and trace."""

    method: str = "df"
    policy: CheckPolicy = field(default_factory=lambda: FALLBACK)
    timeout: float | None = None  # wall-clock seconds, per attempt
    memory_limit: int | None = None  # logical units (see repro.checker.memory)
    use_kernel: bool = True
    precheck: bool = False
    count_chunk_size: int | None = None  # bf + streaming
    # Streaming tier: the resident-clause budget in logical units (the CLI's
    # --memory-window; defaults to memory_limit when unset), the decode
    # batch size, and the file-size threshold that swaps the streaming
    # checker in for BF as the fallback ladder's last rung.
    memory_window: int | None = None
    window_records: int | None = None
    streaming_threshold_bytes: int | None = DEFAULT_STREAMING_THRESHOLD
    checkpoint_path: str | None = None  # bf only
    checkpoint_every: int | None = None  # bf only: learned builds between snapshots
    resume_from: str | None = None  # bf only
    tmp_dir: str | None = None
    # Core-first pruning: compute a static PrunePlan from the trace once
    # and hand it to every rung of the ladder. A trace the analyzer finds
    # structurally suspect yields no plan — the check runs unpruned, so
    # pruning can never change a verdict the analyzer wouldn't vouch for.
    prune: bool = False
    # DRAT only: two-pass backward (core-first) checking — the clausal
    # analogue of ``prune``, computed from the proof itself rather than a
    # resolution trace (see repro.proofs.drat).
    backward: bool = False
    # Declarative record of how the proof/trace source format was chosen
    # ("trace" / "drup" / "drat" / "auto"); the method already encodes the
    # outcome, but job options carry this so fingerprints distinguish it.
    proof_format: str | None = None
    # Content digests of (formula, trace, options), as computed by
    # repro.service.fingerprint. Purely declarative: the supervisor stamps
    # them onto the final report so a persisted verdict (verdict cache,
    # job results) names the exact inputs it is about.
    fingerprint: dict | None = None


class CheckSupervisor:
    """Runs a check under budgets with policy-driven degradation.

    ``check()`` never raises — exactly the checkers' own contract — and
    the returned report always carries the full attempt ladder in
    ``degradation``, even when it is one rung long.
    """

    def __init__(
        self,
        formula: CnfFormula,
        trace_source: str | Path | Trace,
        config: SupervisorConfig | None = None,
        **overrides,
    ):
        self.formula = formula
        self._source = trace_source
        config = config or SupervisorConfig()
        for key, value in overrides.items():
            if not hasattr(config, key):
                raise TypeError(f"unknown supervisor option {key!r}")
            setattr(config, key, value)
        if isinstance(config.policy, str):
            config.policy = CheckPolicy.parse(config.policy)
        check_option_values(vars(config))
        self.config = config
        self.attempts: list[Attempt] = []
        self._loaded_trace: Trace | None = None
        self._plan = None
        self._plan_computed = False

    # -- public API ----------------------------------------------------------

    def check(self) -> CheckReport:
        config = self.config
        ladder = self.ladder()
        report: CheckReport | None = None
        start = time.perf_counter()
        for rung, method in enumerate(ladder):
            report = self._attempt(method)
            failure = report.failure
            degradable = (
                failure is not None
                and failure.kind in DEGRADABLE_KINDS
                and rung < len(ladder) - 1
            )
            if report.verified or not degradable:
                break
        assert report is not None
        report.degradation = [attempt.to_dict() for attempt in self.attempts]
        report.check_time = time.perf_counter() - start
        if config.fingerprint is not None:
            report.fingerprint = dict(config.fingerprint)
        return report

    # -- ladder shaping -------------------------------------------------------

    def ladder(self) -> tuple[str, ...]:
        """The methods this check may run, in the order it tries them."""
        return self._resolve_ladder(self.config.policy.ladder(self.config.method))

    def _streaming_eligible(self) -> bool:
        """Is the source a trace file big enough for the streaming tier?"""
        threshold = self.config.streaming_threshold_bytes
        if threshold is None or not isinstance(self._source, (str, Path)):
            return False
        try:
            return os.path.getsize(self._source) >= threshold
        except OSError:
            return False

    def _resolve_ladder(self, ladder: tuple[str, ...]) -> tuple[str, ...]:
        """Swap the streaming tier in as the last resort for huge traces.

        BF's delete-on-last-use residency matches the solver's own peak —
        which for a multi-GB trace can itself be a memory-out. When the
        trace file crosses ``streaming_threshold_bytes``, the fallback
        ladder's final BF rung becomes the streaming checker (BF-identical
        verdicts, but overflow spills to disk instead of failing); a
        ladder that *starts* at BF keeps its BF rung and gains streaming
        after it.
        """
        if self.config.policy.name != "fallback":
            return ladder  # strict runs exactly the requested rung
        if ladder[-1] != "bf" or not self._streaming_eligible():
            return ladder
        if len(ladder) == 1:
            return ("bf", "streaming")
        return ladder[:-1] + ("streaming",)

    # -- one rung ------------------------------------------------------------

    def _attempt(self, method: str) -> CheckReport:
        started = time.perf_counter()
        try:
            # Chaos-drill hook: an in-process fault here behaves like the
            # checker blowing up, which the ladder already classifies.
            faults.fault_point(FP_ATTEMPT, key=method)
            checker = self._build_checker(method)
            report = checker.check()
        except faults.FaultInjected as exc:
            failure = CheckFailure(
                FailureKind.WORKER_CRASH, f"injected fault: {exc}", method=method
            )
            report = CheckReport(
                method=method,
                verified=False,
                failure=failure,
                check_time=time.perf_counter() - started,
            )
        except MemoryError:
            # The allocator itself gave out (e.g. while materializing a DF
            # trace). Same degradation semantics as the logical budget.
            failure = CheckFailure(
                FailureKind.MEMORY_OUT,
                "the Python allocator raised MemoryError during checking",
                method=method,
            )
            report = CheckReport(
                method=method,
                verified=False,
                failure=failure,
                check_time=time.perf_counter() - started,
            )
        except TraceError as exc:
            # Loading a malformed trace (DF materializes it up front) must
            # honour the checkers' "never raises" contract too.
            failure = CheckFailure(FailureKind.MALFORMED_TRACE, str(exc))
            report = CheckReport(
                method=method,
                verified=False,
                failure=failure,
                check_time=time.perf_counter() - started,
            )
        outcome = "verified" if report.verified else report.failure.kind.value
        detail = "" if report.verified else report.failure.message
        self.attempts.append(
            Attempt(
                method=report.method,
                outcome=outcome,
                elapsed=time.perf_counter() - started,
                detail=detail,
                pruned=report.prune is not None,
                memory=report.memory,
            )
        )
        return report

    def _prune_plan(self):
        """The shared PrunePlan, computed at most once across all rungs.

        ``None`` whenever pruning is off, the source is not a resolution
        trace (RUP proofs), or the static analyzer vetoed the trace.
        """
        if not self._plan_computed:
            self._plan_computed = True
            if self.config.prune:
                from repro.analysis.graph import compute_prune_plan

                self._plan = compute_prune_plan(self._source)
        return self._plan

    def _trace_for_df(self) -> Trace:
        """DF needs the fully materialized trace; load it once, lazily."""
        if self._loaded_trace is None:
            if isinstance(self._source, Trace):
                self._loaded_trace = self._source
            else:
                from repro.trace.io import load_trace

                try:
                    self._loaded_trace = load_trace(self._source)
                except OSError as exc:
                    raise TraceError(f"{self._source}: {exc}") from None
        return self._loaded_trace

    def _build_checker(self, method: str):
        config = self.config
        deadline = Deadline(config.timeout)
        common = dict(
            memory_limit=config.memory_limit,
            precheck=config.precheck,
            use_kernel=config.use_kernel,
            deadline=deadline,
            prune_plan=self._prune_plan(),
        )
        if method == "df":
            return DepthFirstChecker(self.formula, self._trace_for_df(), **common)
        if method == "hybrid":
            return HybridChecker(self.formula, self._source, **common)
        if method == "bf":
            return BreadthFirstChecker(
                self.formula,
                self._source,
                count_chunk_size=config.count_chunk_size,
                tmp_dir=config.tmp_dir,
                checkpoint_path=config.checkpoint_path,
                checkpoint_every=config.checkpoint_every or 0,
                resume_from=config.resume_from,
                **common,
            )
        if method == "streaming":
            # No memory_limit: the streaming tier's whole contract is that
            # memory pressure becomes disk traffic, never a MEMORY_OUT.
            # The budget defaults to the run's memory limit, so "fall back
            # when X units is exceeded" and "stay under X units" agree.
            return StreamingWindowChecker(
                self.formula,
                self._source,
                memory_budget=(
                    config.memory_window
                    if config.memory_window is not None
                    else config.memory_limit
                ),
                window_records=config.window_records,
                count_chunk_size=config.count_chunk_size,
                tmp_dir=config.tmp_dir,
                precheck=config.precheck,
                use_kernel=config.use_kernel,
                deadline=deadline,
                prune_plan=self._prune_plan(),
            )
        if method == "rup":
            # The supervisor's source *is* the DRUP proof here; there is no
            # resolution trace to prune by, and RUP checks forward only.
            return RupChecker(self.formula, self._source, deadline=deadline)
        if method == "drat":
            # Like rup, the source is the clausal proof file. Backward
            # (core-first) checking replaces trace-based pruning here.
            return DratChecker(
                self.formula,
                self._source,
                backward=config.backward,
                deadline=deadline,
            )
        raise ValueError(f"unknown checker method {method!r}")


def supervised_check(
    formula: CnfFormula,
    trace_source: str | Path | Trace,
    **options,
) -> CheckReport:
    """One-call convenience wrapper: ``supervised_check(f, t, method="df")``."""
    return CheckSupervisor(formula, trace_source, **options).check()
