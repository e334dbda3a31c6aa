"""Seeded, composable chaos injection across every simulated layer.

The real ExplFrame attack is probabilistic end to end: templated flips can
stop repeating when the module's thresholds drift, staged frames can be
stolen by competing allocations, the scheduler can migrate the attacker
off the shared CPU, and TRR-style mitigations can silently eat faults.
This module turns that hostility into a first-class, *deterministic*
simulation input so robustness machinery (retry orchestrators, budgets,
failure forensics) can be exercised and measured.

The pieces:

* :class:`ChaosEvent` subclasses — typed perturbations, one per layer:

  - :class:`ThresholdDrift` (DRAM): scales every weak cell's flip
    threshold, permanently or for a bounded sim-time window;
  - :class:`AllocationPressure` (MM): a competitor task on the caller's
    CPU churns pages through the per-CPU pageset, draining and refilling
    it and burying any staged frames;
  - :class:`PagesetDrain` (MM): drains the caller CPU's page frame
    caches outright, as scheduler noise would;
  - :class:`AttackerMigration` (OS): migrates the calling task off its
    CPU, breaking the co-residency the attack depends on;
  - :class:`HammerInterference` (DRAM/TRR): an aggressor-sampling burst —
    every bank gets a neighbour refresh and disturbance is suppressed for
    a window, the transient clamping TRR samplers produce.

* :class:`ChaosPlan` — an ordered, immutable composition of events, with
  named profiles from :func:`chaos_profile` scaled by an ``intensity``;

* :class:`ChaosEngine` — attaches a plan to a kernel.  Syscall hooks
  (``mmap``, ``munmap-pre``, ``munmap``, ``hammer``, ``spawn``,
  ``sleep``) *pump* the engine; events fire when their hook, time gate
  and skip count line up, and every firing is logged as a
  :class:`ChaosRecord` for failure forensics.

Everything is a pure function of the machine seed and the plan: the same
seed and profile replay the identical adversity, so orchestrator runs are
reproducible byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.sim.errors import ConfigError
from repro.sim.rng import derive_seed
from repro.sim.units import MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.os.kernel import Kernel

# Pump points the kernel exposes; "any" matches every pump.
HOOKS = ("any", "mmap", "munmap-pre", "munmap", "hammer", "spawn", "sleep")


@dataclass(frozen=True)
class ChaosEvent:
    """Base class: when an event fires, not what it does.

    ``hook`` names the kernel pump point the event listens on; ``at_ns``
    gates it until simulated time reaches that point; ``skip`` lets that
    many eligible occasions pass first; ``times`` caps how often it fires.
    """

    hook: str = "munmap"
    at_ns: int = 0
    skip: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.hook not in HOOKS:
            raise ConfigError(f"unknown chaos hook {self.hook!r}; expected one of {HOOKS}")
        if self.at_ns < 0:
            raise ConfigError(f"at_ns must be non-negative, got {self.at_ns}")
        if self.skip < 0:
            raise ConfigError(f"skip must be non-negative, got {self.skip}")
        if self.times < 1:
            raise ConfigError(f"times must be at least 1, got {self.times}")

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        """Perturb the machine; returns a human-readable detail string."""
        raise NotImplementedError


@dataclass(frozen=True)
class ThresholdDrift(ChaosEvent):
    """DRAM-level drift of every weak cell's flip threshold.

    ``scale > 1`` hardens the module (templated flips stop repeating);
    ``scale < 1`` softens it (extra, unpredicted cells start firing).
    With ``duration_ns`` the drift is a transient window; without, it is
    permanent for the rest of the run.
    """

    scale: float = 4.0
    duration_ns: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scale <= 0:
            raise ConfigError(f"threshold scale must be positive, got {self.scale}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ConfigError(f"duration_ns must be positive, got {self.duration_ns}")

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        engine.push_threshold_scale(self.scale, self.duration_ns)
        window = "" if self.duration_ns is None else f" for {self.duration_ns} ns"
        return f"flip thresholds x{self.scale:g}{window}"


@dataclass(frozen=True)
class AllocationPressure(ChaosEvent):
    """MM-level background pressure on the calling task's CPU.

    A competitor task maps, touches and releases ``pages`` pages: the
    allocations drain the per-CPU pageset (taking any staged frames with
    them) and the frees refill it with the competitor's frames, so the
    next small allocation on that CPU no longer receives what the caller
    staged.
    """

    pages: int = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.pages <= 0:
            raise ConfigError(f"pages must be positive, got {self.pages}")

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        cpu = engine.kernel.task(pid).cpu
        competitor = engine.competitor(cpu)
        engine.kernel.churn(competitor, self.pages)
        return f"competitor churned {self.pages} pages on cpu {cpu}"


@dataclass(frozen=True)
class PagesetDrain(ChaosEvent):
    """MM-level drain of the calling task's CPU page frame caches."""

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        cpu = engine.kernel.task(pid).cpu
        drained = engine.kernel.allocator.drain_cpu_caches(cpu)
        return f"drained {drained} cached frames from cpu {cpu}"


@dataclass(frozen=True)
class AttackerMigration(ChaosEvent):
    """OS-level migration of the calling task off its current CPU.

    Defaults to the next CPU round-robin; breaks the CPU co-residency
    that page-frame-cache steering requires until the task repins itself.
    """

    to_cpu: int | None = None

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        kernel = engine.kernel
        task = kernel.task(pid)
        old_cpu = task.cpu
        target = self.to_cpu if self.to_cpu is not None else (old_cpu + 1) % kernel.scheduler.num_cpus
        if target == old_cpu:
            return f"migration no-op: pid {pid} already on cpu {old_cpu}"
        kernel.sys_sched_setaffinity(pid, frozenset({target}))
        return f"migrated pid {pid} from cpu {old_cpu} to cpu {target}"


@dataclass(frozen=True)
class HammerInterference(ChaosEvent):
    """TRR-style aggressor-sampling burst.

    Models the mitigation's transient clamping: every bank receives a
    neighbour refresh *now* (resetting per-window activation counters)
    and for ``duration_ns`` of simulated time disturbance is suppressed
    by ``factor`` — hammering during the window quietly does nothing.
    """

    factor: float = 1e9
    duration_ns: int = 250 * MS

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ConfigError(f"interference factor must exceed 1, got {self.factor}")
        if self.duration_ns <= 0:
            raise ConfigError(f"duration_ns must be positive, got {self.duration_ns}")

    def apply(self, engine: "ChaosEngine", pid: int) -> str:
        engine.refresh_all_banks()
        engine.push_threshold_scale(self.factor, self.duration_ns)
        return f"TRR sampling burst: banks refreshed, disturbance suppressed for {self.duration_ns} ns"


@dataclass(frozen=True)
class ChaosRecord:
    """One fired event, as logged for failure forensics."""

    time_ns: int
    hook: str
    pid: int
    event: str
    detail: str

    def to_dict(self) -> dict:
        """Plain-data form for reports."""
        return {
            "time_ns": self.time_ns,
            "hook": self.hook,
            "pid": self.pid,
            "event": self.event,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ChaosPlan:
    """A named, ordered composition of chaos events."""

    name: str
    events: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("chaos plan needs a name")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def is_null(self) -> bool:
        """True for the empty (no-adversity) plan."""
        return not self.events


# Named profiles the CLI and benchmarks expose.  Each is deterministic;
# ``intensity`` scales how much adversity it injects.
CHAOS_PROFILES = ("none", "steal", "drain", "drift", "migrate", "trr", "storm")


def chaos_profile(name: str, intensity: float = 1.0) -> ChaosPlan:
    """Build a named chaos plan scaled by ``intensity`` (> 0, default 1).

    Profiles target the attack's staging window (the first munmaps a run
    issues are the frame-staging ones), so they bite deterministically:

    * ``none``    — the empty plan;
    * ``steal``   — competitor allocation pressure right after frames are
      staged (steering miss);
    * ``drain``   — the CPU's pagesets are drained after staging;
    * ``drift``   — flip thresholds harden for a window spanning the
      re-hammer phase (non-repeatable flip);
    * ``migrate`` — the attacker is migrated off the shared CPU as it
      stages (frames land in the wrong CPU's cache);
    * ``trr``     — a TRR sampling burst suppresses disturbance over the
      re-hammer phase;
    * ``storm``   — steal, then migrate, then a TRR burst, in sequence.
    """
    if intensity <= 0:
        raise ConfigError(f"intensity must be positive, got {intensity}")
    hits = max(1, round(intensity))
    pages = max(8, round(32 * intensity))
    window_ns = max(1, int(250 * MS * intensity))
    if name == "none":
        return ChaosPlan("none", ())
    if name == "steal":
        return ChaosPlan("steal", (AllocationPressure(hook="munmap", times=hits, pages=pages),))
    if name == "drain":
        return ChaosPlan("drain", (PagesetDrain(hook="munmap", times=hits),))
    if name == "drift":
        return ChaosPlan(
            "drift",
            (ThresholdDrift(hook="munmap", times=hits, scale=25.0, duration_ns=window_ns),),
        )
    if name == "migrate":
        return ChaosPlan("migrate", (AttackerMigration(hook="munmap-pre", times=hits),))
    if name == "trr":
        return ChaosPlan("trr", (HammerInterference(hook="munmap", times=hits, duration_ns=window_ns),))
    if name == "storm":
        return ChaosPlan(
            "storm",
            (
                AllocationPressure(hook="munmap", times=hits, pages=pages),
                AttackerMigration(hook="munmap-pre", skip=hits, times=1),
                HammerInterference(hook="munmap", skip=hits + 1, times=1, duration_ns=window_ns),
            ),
        )
    raise ConfigError(f"unknown chaos profile {name!r}; expected one of {CHAOS_PROFILES}")


def chaos_plan_for_attempt(
    name: str, attempt_seed: int, intensity: float = 1.0
) -> ChaosPlan:
    """A per-attempt variant of :func:`chaos_profile` for campaigns.

    Every attempt of a campaign runs the same named profile, but with a
    small deterministic jitter on each event's ``skip`` count derived
    from the attempt seed — so a survival curve (A6) samples adversity
    landing at slightly different points of the staging window instead
    of hitting the identical syscall on every attempt.  A pure function
    of ``(name, attempt_seed, intensity)``: the plan is the same no
    matter which worker process builds it.
    """
    base = chaos_profile(name, intensity)
    if base.is_null:
        return base
    rng = random.Random(derive_seed(attempt_seed, "chaos.plan"))
    events = tuple(
        replace(event, skip=event.skip + rng.randrange(3)) for event in base.events
    )
    return ChaosPlan(base.name, events)


class _EventState:
    """Mutable firing state for one planned event."""

    def __init__(self, event: ChaosEvent):
        self.event = event
        self.skip_left = event.skip
        self.times_left = event.times


class ChaosEngine:
    """Attaches a :class:`ChaosPlan` to a kernel and fires its events.

    The kernel pumps the engine at syscall hooks; pumping is reentrancy-
    guarded so an event's own syscalls (a competitor's churn, a forced
    migration) never trigger further events.  All transient windows are
    expired lazily at pump time against the simulated clock.
    """

    def __init__(self, kernel: "Kernel", plan: ChaosPlan):
        self.kernel = kernel
        self.plan = plan
        self.records: list[ChaosRecord] = []
        self._states = [_EventState(event) for event in plan.events]
        self._pumping = False
        self._base_threshold_scale = 1.0
        self._threshold_windows: list[tuple[int, float]] = []  # (end_ns, scale)
        self._competitors: dict[int, int] = {}  # cpu -> competitor pid
        kernel.chaos = self
        self.bind_obs(kernel.obs)
        self.obs.tracer.instant(
            "chaos.plan", "chaos", plan=plan.name, events=len(plan.events)
        )

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (re-run on machine fork)."""
        self.obs = obs
        self._m_fired = obs.metrics.counter("chaos.events_fired")
        self._m_pumps = obs.metrics.counter("chaos.pumps")

    # -- effect plumbing (used by events) ---------------------------------------

    def push_threshold_scale(self, scale: float, duration_ns: int | None) -> None:
        """Multiply the flip-threshold scale, optionally for a window."""
        if duration_ns is None:
            self._base_threshold_scale *= scale
        else:
            self._threshold_windows.append((self.kernel.clock.now_ns + duration_ns, scale))
        self._apply_threshold_scale()

    def _apply_threshold_scale(self) -> None:
        now = self.kernel.clock.now_ns
        self._threshold_windows = [w for w in self._threshold_windows if w[0] > now]
        scale = self._base_threshold_scale
        for _, factor in self._threshold_windows:
            scale *= factor
        self.kernel.controller.threshold_scale = scale

    def refresh_all_banks(self) -> None:
        """Give every instantiated bank a refresh (resets window counters)."""
        for bank in self.kernel.controller._banks.values():
            bank.refresh()

    def competitor(self, cpu: int) -> int:
        """The (memoised) competitor task pid for ``cpu``."""
        pid = self._competitors.get(cpu)
        if pid is None:
            pid = self.kernel.spawn(f"chaos-competitor-{cpu}", cpu=cpu).pid
            self._competitors[cpu] = pid
        return pid

    # -- the pump ----------------------------------------------------------------

    def pump(self, hook: str, pid: int) -> None:
        """Fire every due event for ``hook`` issued by ``pid``."""
        if self._pumping:
            return
        self._pumping = True
        self._m_pumps.inc()
        try:
            now = self.kernel.clock.now_ns
            if self._threshold_windows:
                self._apply_threshold_scale()
            for state in self._states:
                event = state.event
                if state.times_left <= 0:
                    continue
                if event.hook != "any" and event.hook != hook:
                    continue
                if now < event.at_ns:
                    continue
                if state.skip_left > 0:
                    state.skip_left -= 1
                    continue
                state.times_left -= 1
                detail = event.apply(self, pid)
                self.records.append(
                    ChaosRecord(
                        time_ns=now,
                        hook=hook,
                        pid=pid,
                        event=type(event).__name__,
                        detail=detail,
                    )
                )
                self._m_fired.inc()
                self.obs.tracer.instant(
                    "chaos.fire", "chaos",
                    event=type(event).__name__, hook=hook, pid=pid, detail=detail,
                )
        finally:
            self._pumping = False

    # -- forensics ----------------------------------------------------------------

    def records_as_dicts(self) -> list[dict]:
        """The firing log in plain-data form (embeds into run reports)."""
        return [record.to_dict() for record in self.records]

    def pending_events(self) -> int:
        """Events (counting multiplicity) that have not fired yet."""
        return sum(state.times_left for state in self._states)

    def __repr__(self) -> str:
        return (
            f"ChaosEngine(plan={self.plan.name!r}, fired={len(self.records)}, "
            f"pending={self.pending_events()})"
        )
