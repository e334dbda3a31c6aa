"""Discrete-event core: a scheduler over :class:`SimClock`.

The :class:`EventScheduler` is the one way timed behaviour advances in the
simulator.  DRAM refresh is a self-rescheduling tick, a kswapd wake arms a
due-now reclaim event, scheduler ticks and watchdog scans recur, and an
orchestrator backoff waits through :meth:`EventScheduler.run_until`.  All
of them sit on one ordered heap of ``(due_ns, seq, event)`` entries
sharing the machine's :class:`~repro.sim.clock.SimClock`:

* **Deterministic ordering** — ties on ``due_ns`` break on the global
  ``seq`` counter, so two machines that schedule the same events in the
  same order dispatch them identically.
* **Queues** — every event belongs to a named queue (``"dram"``,
  ``"mm"``, ``"os"``, ``"defense"``, ``"workload"``).  Components drain
  *their own* queue at fixed points: the controller drains ``"dram"`` at
  every DRAM access and hammer chunk, the kernel drains ``"mm"`` at fault
  and file-read time and ``"os"``/``"defense"``/``"workload"`` at syscall
  hooks.  ``run_until``/``step`` drain all queues in global
  ``(due_ns, seq)`` order.
* **Recurring events** — a ``period_ns`` re-arms the event after each
  firing.  Missed periods are skipped, not replayed: the next due time
  is the first multiple of the period (phased from the original due
  time) strictly after *now*, mirroring how a real periodic timer that
  slept through several ticks coalesces them.
* **Cancellation handles** — :meth:`EventScheduler.schedule` returns an
  :class:`EventHandle`; cancellation is lazy (the heap entry is skipped
  when it surfaces), so cancel is O(1).
* **Dispatch barrier** — events scheduled *during* a dispatch pass are
  never fired by that same pass (their ``seq`` is past the barrier).
  A self-rescheduling event therefore cannot spin the dispatcher.

The scheduler deep-copies cleanly — callbacks must be *bound methods* of
simulation objects so that :meth:`~repro.core.machine.Machine.fork`
rebinds them to the copied instances (a closure would keep pointing at
the original machine).

A bound method points back at its component, which points at the
scheduler, so a pending event is a reference cycle.
:meth:`EventScheduler.close` drops the callback of every pending event,
so an ended machine is freed by reference counting rather than left for
the cyclic GC.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.obs import NOOP_OBS
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError

class _Event:
    """One scheduled callback (internal; callers hold an EventHandle)."""

    __slots__ = ("name", "queue", "due_ns", "period_ns", "callback", "cancelled")

    def __init__(
        self,
        name: str,
        queue: str,
        due_ns: int,
        period_ns: int | None,
        callback: Callable[[int], None],
    ):
        self.name = name
        self.queue = queue
        self.due_ns = due_ns
        self.period_ns = period_ns
        self.callback = callback
        self.cancelled = False

    def __repr__(self) -> str:
        kind = "recurring" if self.period_ns else "one-shot"
        return f"_Event({self.name!r}, queue={self.queue!r}, due={self.due_ns}, {kind})"


class EventHandle:
    """Cancellation handle for a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    @property
    def name(self) -> str:
        """The event's name (for diagnostics)."""
        return self._event.name

    @property
    def due_ns(self) -> int:
        """The event's (next) due time."""
        return self._event.due_ns

    @property
    def active(self) -> bool:
        """True until the event is cancelled (recurring events stay active)."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; its pending heap entry is skipped lazily."""
        self._event.cancelled = True

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return f"EventHandle({self._event.name!r}, {state})"


class EventScheduler:
    """Deterministic discrete-event scheduler over a shared sim clock."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._queues: dict[str, list[tuple[int, int, _Event]]] = {}
        self._seq = 0
        self.scheduled_total = 0
        self.dispatched_total = 0
        self.cancelled_total = 0
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md)."""
        self.obs = obs
        metrics = obs.metrics
        self._m_scheduled = metrics.counter("sim.events.scheduled")
        self._m_cancelled = metrics.counter("sim.events.cancelled")
        self._m_dispatched: dict[str, object] = {}
        metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        return {"sim.events.pending": self.pending()}

    def _dispatch_counter(self, queue: str):
        counter = self._m_dispatched.get(queue)
        if counter is None:
            counter = self.obs.metrics.counter("sim.events.dispatched", labels={"queue": queue})
            self._m_dispatched[queue] = counter
        return counter

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        name: str,
        due_ns: int,
        callback: Callable[[int], None],
        *,
        queue: str = "default",
        period_ns: int | None = None,
    ) -> EventHandle:
        """Schedule ``callback(now_ns)`` at ``due_ns`` on ``queue``.

        With ``period_ns`` the event recurs; skipped periods coalesce
        (see the module docstring).  Returns a cancellation handle.
        """
        if due_ns < self.clock.now_ns:
            raise ConfigError(
                f"event {name!r} due at {due_ns} is in the past (now {self.clock.now_ns})"
            )
        if period_ns is not None and period_ns <= 0:
            raise ConfigError(f"period_ns must be positive, got {period_ns}")
        event = _Event(name, queue, due_ns, period_ns, callback)
        self._push(event)
        self.scheduled_total += 1
        self._m_scheduled.inc()
        return EventHandle(event)

    def schedule_in(
        self,
        name: str,
        delay_ns: int,
        callback: Callable[[int], None],
        *,
        queue: str = "default",
        period_ns: int | None = None,
    ) -> EventHandle:
        """Schedule relative to now (``delay_ns`` >= 0)."""
        if delay_ns < 0:
            raise ConfigError(f"delay_ns must be non-negative, got {delay_ns}")
        return self.schedule(
            name, self.clock.now_ns + delay_ns, callback,
            queue=queue, period_ns=period_ns,
        )

    def cancel(self, handle: EventHandle) -> None:
        """Cancel through the scheduler (equivalent to ``handle.cancel()``)."""
        if handle.active:
            handle.cancel()
            self.cancelled_total += 1
            self._m_cancelled.inc()

    def _push(self, event: _Event) -> None:
        self._seq += 1
        heapq.heappush(
            self._queues.setdefault(event.queue, []),
            (event.due_ns, self._seq, event),
        )

    # -- dispatch ----------------------------------------------------------------

    def _skim(self, heap: list) -> None:
        """Drop cancelled entries off the top of ``heap``."""
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def _fire(self, event: _Event) -> None:
        self.dispatched_total += 1
        self._dispatch_counter(event.queue).inc()
        event.callback(self.clock.now_ns)
        if event.period_ns is not None and not event.cancelled:
            # Skip-missed re-arm: first phase-aligned multiple after now.
            now = self.clock.now_ns
            due = event.due_ns + event.period_ns
            if due <= now:
                missed = (now - event.due_ns) // event.period_ns
                due = event.due_ns + (missed + 1) * event.period_ns
            event.due_ns = due
            self._push(event)

    def dispatch_due(self, queue: str | None = None) -> int:
        """Fire every due event (one queue, or all in global order).

        Events scheduled during this call — including recurring re-arms —
        wait for the next call (the dispatch barrier), so a handler that
        schedules an already-due event cannot loop the dispatcher.
        Returns the number of events fired.
        """
        barrier = self._seq
        fired = 0
        if queue is not None:
            heap = self._queues.get(queue)
            if not heap:
                return 0
            # The common case: a live head that is not due yet.  A
            # cancelled head takes the loop below, which skims it.
            due, _, event = heap[0]
            if due > self.clock.now_ns and not event.cancelled:
                return 0
            while heap:
                self._skim(heap)
                if not heap:
                    break
                due, seq, event = heap[0]
                if due > self.clock.now_ns or seq > barrier:
                    break
                heapq.heappop(heap)
                self._fire(event)
                fired += 1
            return fired
        while True:
            entry = self._peek_global()
            if entry is None:
                break
            (due, seq), name = entry
            if due > self.clock.now_ns or seq > barrier:
                break
            _, _, event = heapq.heappop(self._queues[name])
            self._fire(event)
            fired += 1
        return fired

    def _peek_global(self) -> tuple[tuple[int, int], str] | None:
        """The globally next (due, seq) entry and its queue name."""
        best: tuple[tuple[int, int], str] | None = None
        for name in sorted(self._queues):
            heap = self._queues[name]
            self._skim(heap)
            if heap:
                due, seq, _ = heap[0]
                if best is None or (due, seq) < best[0]:
                    best = ((due, seq), name)
        return best

    def next_due_ns(self, queue: str | None = None) -> int | None:
        """Due time of the next pending event (None when idle)."""
        if queue is not None:
            heap = self._queues.get(queue)
            if not heap:
                return None
            self._skim(heap)
            return heap[0][0] if heap else None
        entry = self._peek_global()
        return None if entry is None else entry[0][0]

    def step(self) -> int | None:
        """Advance the clock to the next event and fire it.

        Returns the time the event fired at, or None if nothing is
        pending.  Due events at the current time fire without advancing.
        """
        entry = self._peek_global()
        if entry is None:
            return None
        (due, _seq), name = entry
        self.clock.advance_to(due)
        _, _, event = heapq.heappop(self._queues[name])
        self._fire(event)
        return due

    def run_until(self, target_ns: int) -> int:
        """Dispatch every event due up to ``target_ns``, advancing the clock.

        The clock lands exactly on ``target_ns`` (events fire at their own
        due times along the way).  Returns the number of events fired.
        """
        if target_ns < self.clock.now_ns:
            raise ConfigError(
                f"cannot run backwards to {target_ns} (now {self.clock.now_ns})"
            )
        fired = 0
        while True:
            entry = self._peek_global()
            if entry is None or entry[0][0] > target_ns:
                break
            (due, _seq), name = entry
            self.clock.advance_to(due)
            _, _, event = heapq.heappop(self._queues[name])
            self._fire(event)
            fired += 1
        self.clock.advance_to(target_ns)
        return fired

    def close(self) -> None:
        """End the scheduler: cancel every pending event and drop its callback.

        Called when a machine ends (:meth:`~repro.core.machine.Machine.close`);
        handles held elsewhere read inactive, and nothing fires again.
        """
        for heap in self._queues.values():
            for _, _, event in heap:
                event.cancelled = True
                event.callback = None
        self._queues.clear()

    # -- introspection ----------------------------------------------------------

    def pending(self, queue: str | None = None) -> int:
        """Live (non-cancelled) events waiting to fire."""
        if queue is not None:
            heap = self._queues.get(queue, ())
            return sum(1 for _, _, event in heap if not event.cancelled)
        return sum(self.pending(name) for name in self._queues)

    def queues(self) -> list[str]:
        """Queue names with at least one pending event, sorted."""
        return sorted(name for name in self._queues if self.pending(name))

    def stats(self) -> dict[str, int]:
        """Lifetime scheduler counters plus the current backlog."""
        return {
            "scheduled": self.scheduled_total,
            "dispatched": self.dispatched_total,
            "cancelled": self.cancelled_total,
            "pending": self.pending(),
        }

    def __repr__(self) -> str:
        return (
            f"EventScheduler(pending={self.pending()}, "
            f"dispatched={self.dispatched_total}, queues={self.queues()})"
        )

