"""The unified fault-injection plane: deterministic chaos for drills.

The paper's thesis is that a checker must stay trustworthy when the
system around it misbehaves. This module is how we *prove* the service
layer does: every durability- and liveness-critical path declares a
named **fault point** (``jobs.journal.append``, ``cache.segment.rename``,
``pool.task.start``, …), and a **fault plan** — parsed once from the
``REPRO_FAULT_PLAN`` environment variable or installed programmatically —
decides which points misbehave, when, and how. With no plan installed a
fault point is two dict lookups and a ``None`` check, cheap enough to
leave compiled into production paths (``bench_chaos.py`` gates the
fault-free overhead at under 2%).

Plan syntax — entries separated by ``;``, ``key=value`` fields by ``,``::

    REPRO_FAULT_PLAN="point=jobs.journal.append,kind=torn,after=2"
    REPRO_FAULT_PLAN="point=pool.task.start,kind=kill;point=cache.segment.rename,kind=enospc"

Fields:

``point``   (required) the fault point name; ``*`` suffix matches a prefix.
``kind``    (required) what happens when the entry fires:

            * ``kill``   — SIGKILL the current process (a crash a
              ``finally`` cannot observe; what real OOM kills look like);
            * ``raise``  — raise :class:`FaultInjected` (an in-process
              crash that *does* unwind);
            * ``hang``   — sleep ``arg`` seconds (default 3600): a stuck
              syscall / livelocked worker;
            * ``torn``   — at a write point, emit only a prefix of the
              record then die (``then=kill`` default, ``then=raise`` for
              in-process tests): the classic torn-write crash;
            * ``enospc`` — raise ``OSError(ENOSPC)``: disk full;
            * ``slow``   — sleep ``arg`` seconds (default 0.05) and then
              proceed normally: degraded IO, not failure.

``after``   fire on the Nth matching hit of this point (default 1;
            counted per process).
``repeat``  ``1`` keeps firing on every hit from ``after`` on
            (default: one-shot).
``key``     only hits carrying this key count (e.g. a method name or a
            journal event name), so a plan can target "the append of the
            DONE record" rather than "some append".
``arg``     numeric argument: seconds for ``hang``/``slow``; for
            ``torn`` the fraction (0..1) or byte count of the record to
            let through (default: half).
``then``    for ``torn``: ``kill`` (default) or ``raise``.
``token``   path to a token file; the entry fires only if it wins
            ``os.unlink`` of that file — a cross-process one-shot (N
            forked workers, exactly one fault).
``mark``    path touched just before the fault executes, so a drill can
            assert the fault genuinely fired (and not that the scenario
            silently missed the instrumented path).
"""

from __future__ import annotations

import errno
import os
import signal
import threading
import time
from dataclasses import dataclass, field

#: The unified plan environment variable.
PLAN_ENV = "REPRO_FAULT_PLAN"

KINDS = frozenset({"kill", "raise", "hang", "torn", "enospc", "slow"})

#: Kinds meaningful at any fault point; ``torn`` needs a write payload
#: (at a non-write point it degrades to its ``then`` action).
DEFAULT_HANG_S = 3600.0
DEFAULT_SLOW_S = 0.05


class FaultInjected(RuntimeError):
    """An injected in-process fault (kind=raise, or torn with then=raise)."""


@dataclass
class FaultSpec:
    """One entry of a fault plan."""

    point: str
    kind: str
    after: int = 1
    repeat: bool = False
    key: str | None = None
    arg: float | None = None
    then: str = "kill"
    token: str | None = None
    mark: str | None = None
    hits: int = 0
    fired: bool = False

    def matches(self, point: str, key: str | None) -> bool:
        if self.point.endswith("*"):
            if not point.startswith(self.point[:-1]):
                return False
        elif point != self.point:
            return False
        return self.key is None or self.key == key

    def should_fire(self) -> bool:
        """Count this hit; decide whether the fault executes now."""
        self.hits += 1
        if self.hits < self.after:
            return False
        if self.fired and not self.repeat:
            return False
        if self.token is not None:
            # Cross-process one-shot: exactly one process wins the unlink.
            try:
                os.unlink(self.token)
            except OSError:
                return False
        self.fired = True
        return True


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``k=v,k=v`` entry; raises ValueError on anything off."""
    fields: dict[str, str] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"fault spec field {piece!r} is not key=value")
        name, value = piece.split("=", 1)
        fields[name.strip()] = value.strip()
    try:
        point = fields.pop("point")
        kind = fields.pop("kind")
    except KeyError as exc:
        raise ValueError(f"fault spec {text!r} needs point= and kind=") from exc
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r} (want one of {sorted(KINDS)})")
    spec = FaultSpec(point=point, kind=kind)
    if "after" in fields:
        spec.after = max(1, int(fields.pop("after")))
    if "repeat" in fields:
        spec.repeat = fields.pop("repeat") not in ("0", "false", "no", "")
    if "key" in fields:
        spec.key = fields.pop("key")
    if "arg" in fields:
        spec.arg = float(fields.pop("arg"))
    if "then" in fields:
        spec.then = fields.pop("then")
        if spec.then not in ("kill", "raise"):
            raise ValueError(f"torn fault wants then=kill or then=raise, not {spec.then!r}")
    if "token" in fields:
        spec.token = fields.pop("token")
    if "mark" in fields:
        spec.mark = fields.pop("mark")
    if fields:
        raise ValueError(f"unknown fault spec field(s): {sorted(fields)}")
    return spec


@dataclass
class FaultPlan:
    """Every armed fault entry, plus the raw env string it came from."""

    specs: list[FaultSpec] = field(default_factory=list)
    source: str | None = None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = [parse_spec(entry) for entry in text.split(";") if entry.strip()]
        return cls(specs=specs)

    @classmethod
    def from_environ(cls) -> "FaultPlan":
        """The plan configured by ``REPRO_FAULT_PLAN``."""
        raw = os.environ.get(PLAN_ENV)
        plan = cls.parse(raw) if raw else cls()
        plan.source = raw
        return plan

    @property
    def empty(self) -> bool:
        return not self.specs


# -- the active plan -----------------------------------------------------------

_lock = threading.Lock()
_plan: FaultPlan | None = None  # parsed lazily; invalidated when env changes
_installed: FaultPlan | None = None  # programmatic override (tests)

# The plane is permanent instrumentation on every journal append and cache
# write, so the unarmed probe must be nanoseconds, not microseconds.
# ``os.environ.get`` costs a raised-and-caught KeyError per absent var
# (Mapping.get over _Environ.__getitem__) on every fault point. Probe the
# backing dict with the pre-encoded key instead — same source of truth
# (monkeypatch and putenv both mutate it), no exceptions. Falls back to a
# plain get off CPython.
try:
    _ENV_DATA: dict | None = os.environ._data  # type: ignore[attr-defined]
    _ENV_KEY = os.environ.encodekey(PLAN_ENV)  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - non-CPython environ internals
    _ENV_DATA = None
    _ENV_KEY = None


def _unarmed() -> bool:
    """True when no override is installed and the plan env var is unset."""
    if _installed is not None:
        return False
    data = _ENV_DATA
    if data is not None:
        return _ENV_KEY not in data
    return os.environ.get(PLAN_ENV) is None


def install_plan(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Install a plan programmatically (tests); ``None`` reverts to env."""
    global _installed, _plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    with _lock:
        _installed = plan
        _plan = None
    return plan


def active_plan() -> FaultPlan | None:
    """The plan in force, or ``None`` when no fault is armed.

    Env-derived plans are re-parsed whenever ``REPRO_FAULT_PLAN`` changes —
    hit counters live in the parsed specs, so a stable env keeps its
    counters across calls within one process.
    """
    global _plan
    if _unarmed():
        if _plan is not None:
            with _lock:
                _plan = None
        return None
    with _lock:
        if _installed is not None:
            return _installed
        source = os.environ.get(PLAN_ENV)
        if source is None:  # disarmed while we acquired
            _plan = None
            return None
        if _plan is None or _plan.source != source:
            _plan = FaultPlan.from_environ()
        return _plan


# -- the fault point registry --------------------------------------------------

#: name -> {"writes": bool, "doc": str}. Populated at import time by every
#: module that instruments a path; the chaos drill walks this.
_REGISTRY: dict[str, dict] = {}


def register_fault_point(name: str, writes: bool = False, doc: str = "") -> str:
    """Declare a fault point. Idempotent; returns the name for assignment."""
    _REGISTRY[name] = {"writes": writes, "doc": doc}
    return name


def registered_points() -> dict[str, dict]:
    """Every declared fault point (the chaos drill's worklist)."""
    return dict(_REGISTRY)


# -- firing --------------------------------------------------------------------


def _execute(spec: FaultSpec) -> None:
    """Run a non-write fault action. torn degrades to its then-action."""
    if spec.mark:
        _touch(spec.mark)
    kind = spec.kind
    if kind == "slow":
        time.sleep(spec.arg if spec.arg is not None else DEFAULT_SLOW_S)
        return
    if kind == "hang":
        time.sleep(spec.arg if spec.arg is not None else DEFAULT_HANG_S)
        return
    if kind == "enospc":
        raise OSError(errno.ENOSPC, f"No space left on device [injected at {spec.point}]")
    if kind == "kill" or (kind == "torn" and spec.then == "kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    raise FaultInjected(f"injected fault at {spec.point}")


def _touch(path: str) -> None:
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError:
        pass


def _torn_length(spec: FaultSpec, total: int) -> int:
    if spec.arg is None:
        return max(1, total // 2)
    if 0 < spec.arg < 1:
        return max(1, int(total * spec.arg))
    return max(0, min(total, int(spec.arg)))


def fault_point(name: str, key: object = None) -> None:
    """Hit the fault point ``name``; a no-op unless an armed entry matches.

    ``key`` labels this particular hit (a method name, a journal event
    name) so plans can target it via their ``key=`` field.
    """
    if _unarmed():
        return
    plan = active_plan()
    if plan is None or plan.empty:
        return
    key_str = None if key is None else str(key)
    with _lock:
        fire = [spec for spec in plan.specs
                if spec.matches(name, key_str) and spec.should_fire()]
    for spec in fire:
        _execute(spec)


def fault_write(name: str, handle, data: str, key: object = None) -> None:
    """Write ``data`` to ``handle`` under the fault plane.

    The write-shaped counterpart of :func:`fault_point`: ``torn`` entries
    write a prefix of ``data``, flush it so the partial record is really
    on the stream, and then die; every other kind behaves exactly as at a
    plain fault point (``kill``/``enospc``/``raise`` lose the whole
    record, ``slow`` delays it, no match writes it verbatim).
    """
    if _unarmed():
        handle.write(data)
        return
    plan = active_plan()
    if plan is None or plan.empty:
        handle.write(data)
        return
    key_str = None if key is None else str(key)
    with _lock:
        fire = [spec for spec in plan.specs
                if spec.matches(name, key_str) and spec.should_fire()]
    for spec in fire:
        if spec.kind == "torn":
            if spec.mark:
                _touch(spec.mark)
            handle.write(data[: _torn_length(spec, len(data))])
            try:
                handle.flush()
                os.fsync(handle.fileno())
            except (OSError, ValueError, AttributeError):
                pass
            if spec.then == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise FaultInjected(f"injected torn write at {spec.point}")
        _execute(spec)
    handle.write(data)


def reset() -> None:
    """Forget all cached plan state (hit counters included). Test helper."""
    global _plan, _installed
    with _lock:
        _plan = None
        _installed = None
