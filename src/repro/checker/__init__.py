"""Independent resolution-based checkers for SAT solver validation (§3).

Given the original CNF formula and the solver's trace, each checker tries to
re-derive the empty clause by resolution. Success proves the UNSAT claim;
failure pinpoints a bug in the solver (or its trace generation) with a
structured diagnostic.

* :class:`DepthFirstChecker` — Fig. 3 of the paper. Builds only the clauses
  the proof needs; holds the whole trace (and every built clause) in memory.
  Byproduct: the unsatisfiable core used by §4's Table 3.
* :class:`BreadthFirstChecker` — streams the trace in generation order with
  a counting pre-pass and reference-counted deletion; peak memory never
  exceeds what the solver itself held.
* :class:`HybridChecker` — the paper's future-work design: the breadth-first
  checker run over the proof cone that the static analyzer
  (:mod:`repro.analysis.graph`) finds in the clause-ID graph.
* :class:`StreamingWindowChecker` — the constant-memory tier: decodes an
  mmap'd trace in batches behind a shifting window whose resident clauses
  are bounded by a budget; overflow spills to disk, so it never
  memory-outs regardless of trace size.
* :func:`check_model` — the easy direction: linear-time validation of a
  satisfying assignment.
* :class:`DratChecker` (re-exported from :mod:`repro.proofs`) — the
  clausal front end, the lineage that leads from the paper's traces to
  drat-trim: text or binary DRAT with RAT fallback and two-pass backward
  (core-first) checking.
* :class:`RupChecker` (likewise) — DRUP proofs: ``DratChecker``'s forward
  pass with the RAT fallback off.
* :class:`CheckSupervisor` — the resilience layer: wall-clock/memory
  budgets, the DF → hybrid → BF degradation ladder (streaming as the last
  rung for huge traces) and BF checkpoint/resume (see
  :mod:`repro.checker.supervisor`).
"""

from repro.checker.errors import CheckFailure, FailureKind
from repro.checker.report import CheckReport
from repro.checker.resolution import resolve, resolve_chain, ResolutionError
from repro.checker.memory import (
    CheckTimeout,
    Deadline,
    MemoryLimitExceeded,
    MemoryMeter,
)
from repro.checker.kernel import (
    KernelEngine,
    ReferenceEngine,
    ResolutionKernel,
    make_engine,
)
from repro.checker.model import check_model
from repro.checker.precheck import run_precheck
from repro.checker.depth_first import DepthFirstChecker
from repro.checker.breadth_first import (
    BfCheckpoint,
    BreadthFirstChecker,
    CheckpointError,
    load_checkpoint,
    write_checkpoint,
)
from repro.checker.hybrid import HybridChecker
from repro.checker.streaming import StreamingWindowChecker
from repro.proofs.drat import DratChecker, RupChecker
from repro.checker.supervisor import (
    CheckPolicy,
    CheckSupervisor,
    SupervisorConfig,
    supervised_check,
)

__all__ = [
    "CheckFailure",
    "FailureKind",
    "CheckReport",
    "resolve",
    "resolve_chain",
    "ResolutionError",
    "MemoryMeter",
    "MemoryLimitExceeded",
    "CheckTimeout",
    "Deadline",
    "ResolutionKernel",
    "KernelEngine",
    "ReferenceEngine",
    "make_engine",
    "check_model",
    "run_precheck",
    "DepthFirstChecker",
    "BreadthFirstChecker",
    "HybridChecker",
    "StreamingWindowChecker",
    "RupChecker",
    "DratChecker",
    "CheckPolicy",
    "CheckSupervisor",
    "SupervisorConfig",
    "supervised_check",
    "BfCheckpoint",
    "CheckpointError",
    "load_checkpoint",
    "write_checkpoint",
]
