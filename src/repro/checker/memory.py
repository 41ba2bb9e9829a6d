"""Deterministic resource budgets for the checkers: memory and wall clock.

The paper evaluates checkers by peak memory (Table 2) under an 800 MB cap,
with the depth-first checker memory-outing on the two hardest instances.
OS-level peak RSS is noisy and Python-object overhead would swamp the
algorithmic signal, so we count *logical units*: one unit per resident
integer (a literal, or a resolve-source ID), plus a fixed per-object
overhead. This makes DF-vs-BF comparisons exact, platform-independent, and
lets a configurable limit reproduce the memory-out behaviour. No Python
object sizes are taken here: real memory is measured from outside the
process, as peak RSS.

:class:`Deadline` is the wall-clock analogue: the streaming loops of every
checker poll it every few hundred records, so a hung or oversized check
surfaces as a structured :class:`CheckTimeout` (``FailureKind.TIMEOUT``)
instead of an unbounded run — the supervisor's degradation ladder
(:mod:`repro.checker.supervisor`) is built on both failure kinds.
"""

from __future__ import annotations

import time

from repro.checker.errors import CheckFailure, FailureKind

CLAUSE_OVERHEAD = 2  # per resident clause: id + length field
RECORD_OVERHEAD = 2  # per resident trace record


class MemoryLimitExceeded(CheckFailure):
    """The checker's logical memory budget was exceeded."""

    def __init__(self, used: int, limit: int):
        super().__init__(
            FailureKind.MEMORY_OUT,
            "checker exceeded its memory budget",
            used_units=used,
            limit_units=limit,
        )


class CheckTimeout(CheckFailure):
    """The checker's wall-clock deadline expired."""

    def __init__(self, elapsed: float, timeout: float):
        super().__init__(
            FailureKind.TIMEOUT,
            "checker exceeded its wall-clock deadline",
            elapsed_s=round(elapsed, 3),
            timeout_s=timeout,
        )


class Deadline:
    """A wall-clock budget the checkers poll from their streaming loops.

    Constructed once per checking attempt; ``check()`` raises
    :class:`CheckTimeout` once the budget is spent. Polling granularity is
    the caller's business — the checkers tick every few hundred records, so
    enforcement is accurate to well under a millisecond of work on the
    fault-free path while costing one integer test per record.

    A ``timeout`` of ``None`` never expires (every method stays cheap), so
    checkers can hold an optional deadline without branching twice.
    """

    __slots__ = ("timeout", "_started", "_expires")

    def __init__(self, timeout: float | None):
        if timeout is not None and timeout < 0:
            raise ValueError(f"timeout must be non-negative, got {timeout}")
        self.timeout = timeout
        self._started = time.monotonic()
        self._expires = None if timeout is None else self._started + timeout

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> float | None:
        """Seconds left, floored at 0.0; ``None`` for a boundless deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def check(self) -> None:
        """Raise :class:`CheckTimeout` if the budget is spent."""
        if self._expires is not None and time.monotonic() >= self._expires:
            raise CheckTimeout(self.elapsed(), self.timeout)


class MemoryMeter:
    """Tracks current and peak logical memory, enforcing an optional limit."""

    def __init__(self, limit: int | None = None):
        self.current = 0
        self.peak = 0
        self.limit = limit

    def allocate(self, units: int) -> None:
        self.current += units
        if self.current > self.peak:
            self.peak = self.current
        if self.limit is not None and self.current > self.limit:
            raise MemoryLimitExceeded(self.current, self.limit)

    def release(self, units: int) -> None:
        self.current -= units
        if self.current < 0:
            raise AssertionError("memory meter went negative — accounting bug")

    def clause_units(self, num_literals: int) -> int:
        return num_literals + CLAUSE_OVERHEAD

    def record_units(self, num_ints: int) -> int:
        return num_ints + RECORD_OVERHEAD
