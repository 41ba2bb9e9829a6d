"""The result object shared by all checkers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.checker.errors import CheckFailure, FailureKind

#: Version of the persisted ``CheckReport`` JSON payload. Bump whenever a
#: field changes meaning or shape: the verdict cache and the service
#: journal refuse to replay entries written under a different version, so
#: a stale on-disk verdict can never masquerade as a current one.
REPORT_SCHEMA_VERSION = 1


def _jsonable(value):
    """Coerce a failure-context value into something JSON can round-trip.

    Context values are debugging payloads (clause IDs, literal tuples,
    occasionally a set of variables); anything exotic degrades to ``repr``
    rather than poisoning the whole report serialization.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return repr(value)


def failure_to_json(failure: CheckFailure) -> dict:
    """Serialize a :class:`CheckFailure` into the stable report schema."""
    return {
        "kind": failure.kind.value,
        "message": failure.message,
        "context": {key: _jsonable(val) for key, val in failure.context.items()},
    }


def failure_from_json(payload: dict) -> CheckFailure:
    """Rebuild a :class:`CheckFailure` from its JSON form."""
    return CheckFailure(
        FailureKind(payload["kind"]),
        payload["message"],
        **payload.get("context", {}),
    )


@dataclass
class CheckReport:
    """Outcome of a checking run.

    ``verified`` is True only when the empty clause was derived and every
    intermediate check passed. ``clauses_built`` / ``total_learned`` feed
    Table 2's "Num. Cls Built" and "Built %" columns; ``peak_memory_units``
    is the logical peak (see :mod:`repro.checker.memory`).

    ``original_core`` (depth-first and hybrid only) is the set of original
    clause IDs the proof touched — an unsatisfiable core (§4, Table 3).
    ``learned_used`` is the analogous set of learned clause IDs.

    ``window_stats`` (streaming checker only) holds one summary dict per
    shifting-window position: records decoded, clauses built, resident
    units and clauses, and spills (the log is capped; see
    :class:`~repro.trace.windows.ShiftingWindow`).

    ``degradation`` (supervisor only) records the attempt ladder that led
    to this verdict: one dict per attempt with the checker method, its
    outcome (``"verified"`` / a :class:`~repro.checker.errors.FailureKind`
    value) and elapsed seconds, in the order tried. A verdict reached via
    fallback therefore states *how* it was reached.

    ``fingerprint`` (service layer) names the exact artifacts this verdict
    is about: SHA-256 hex digests of the formula, the trace, and the
    checking options, as computed by :mod:`repro.service.fingerprint`. A
    persisted report (verdict cache, job results) always carries it, so a
    verdict can be audited against — and never returned for — different
    inputs. ``from_cache`` is a runtime-only flag set by the service when
    a report was served from the verdict cache; it is not serialized.
    """

    method: str
    verified: bool
    failure: CheckFailure | None = None
    clauses_built: int = 0
    total_learned: int = 0
    peak_memory_units: int = 0
    check_time: float = 0.0
    resolutions: int = 0
    original_core: set[int] | None = None
    learned_used: set[int] | None = None
    window_stats: list[dict] | None = None
    degradation: list[dict] | None = None
    fingerprint: dict | None = None
    from_cache: bool = False
    # Core-first pruning summary (``PrunePlan.to_dict()``) when the check
    # ran under a prune plan; ``None`` for unpruned runs. Additive and
    # optional, so the report schema version is unchanged.
    prune: dict | None = None
    # Resident-memory high-water marks
    # (:func:`repro.checker.kernel.engine_memory_stats`): peak logical
    # units and, on the kernel engine, the peak count of live clauses;
    # the streaming checker adds its budget/spill counters. Additive and
    # optional — schema version unchanged.
    memory: dict | None = None
    # Clausal-proof statistics (:class:`repro.proofs.DratChecker`): step
    # counts, RUP vs RAT lemma split, resolvent checks and the checking
    # mode (forward/backward). ``None`` for resolution-trace checks.
    # Additive and optional — schema version unchanged.
    proof: dict | None = None

    @property
    def built_pct(self) -> float:
        """Percentage of learned clauses the checker had to construct."""
        if self.total_learned == 0:
            return 0.0
        return 100.0 * self.clauses_built / self.total_learned

    def raise_if_failed(self) -> None:
        """Re-raise the recorded failure (for callers preferring exceptions)."""
        if self.failure is not None:
            raise self.failure
        if not self.verified:
            raise AssertionError("check unverified but no failure recorded")

    def to_json(self) -> dict:
        """The stable, documented JSON form of this report.

        The payload always carries ``schema_version`` =
        :data:`REPORT_SCHEMA_VERSION`; consumers (the verdict cache, the
        service journal, ``repro check --format json`` scrapers) must
        reject any other version rather than guess at field meanings.
        Optional fields are present only when set, and set-valued fields
        are emitted as sorted lists so the payload is deterministic.
        """
        payload: dict = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "method": self.method,
            "verified": self.verified,
            "clauses_built": self.clauses_built,
            "total_learned": self.total_learned,
            "peak_memory_units": self.peak_memory_units,
            "check_time_s": round(self.check_time, 6),
            "resolutions": self.resolutions,
        }
        if self.failure is not None:
            payload["failure"] = failure_to_json(self.failure)
        if self.original_core is not None:
            payload["original_core"] = sorted(self.original_core)
        if self.learned_used is not None:
            payload["learned_used"] = sorted(self.learned_used)
        if self.window_stats is not None:
            payload["window_stats"] = self.window_stats
        if self.degradation is not None:
            payload["degradation"] = self.degradation
        if self.fingerprint is not None:
            payload["fingerprint"] = self.fingerprint
        if self.prune is not None:
            payload["prune"] = self.prune
        if self.memory is not None:
            payload["memory"] = self.memory
        if self.proof is not None:
            payload["proof"] = self.proof
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "CheckReport":
        """Rebuild a report from :meth:`to_json` output.

        Raises ``ValueError`` on a missing or different ``schema_version``
        — deserializing across schema versions is exactly the bug the
        version field exists to prevent.
        """
        version = payload.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"report schema version {version!r} is not the supported "
                f"version {REPORT_SCHEMA_VERSION}"
            )
        failure = payload.get("failure")
        core = payload.get("original_core")
        learned_used = payload.get("learned_used")
        return cls(
            method=payload["method"],
            verified=payload["verified"],
            failure=failure_from_json(failure) if failure is not None else None,
            clauses_built=payload.get("clauses_built", 0),
            total_learned=payload.get("total_learned", 0),
            peak_memory_units=payload.get("peak_memory_units", 0),
            check_time=payload.get("check_time_s", 0.0),
            resolutions=payload.get("resolutions", 0),
            original_core=set(core) if core is not None else None,
            learned_used=set(learned_used) if learned_used is not None else None,
            window_stats=payload.get("window_stats"),
            degradation=payload.get("degradation"),
            fingerprint=payload.get("fingerprint"),
            prune=payload.get("prune"),
            memory=payload.get("memory"),
            proof=payload.get("proof"),
        )

    def summary(self) -> str:
        status = "Check Succeeded" if self.verified else f"Check Failed: {self.failure}"
        line = (
            f"[{self.method}] {status} | built {self.clauses_built}/"
            f"{self.total_learned} learned ({self.built_pct:.1f}%) | "
            f"peak {self.peak_memory_units} units | {self.check_time:.3f}s"
        )
        if self.from_cache:
            line += " | cached"
        if self.prune is not None:
            line += (
                f" | pruned {self.prune.get('skipped', 0)} dead "
                f"({100.0 * self.prune.get('dead_fraction', 0.0):.1f}%)"
            )
        if self.degradation and len(self.degradation) > 1:
            ladder = " -> ".join(
                f"{attempt['method']}:{attempt['outcome']}" for attempt in self.degradation
            )
            line += f" | ladder {ladder}"
        return line
