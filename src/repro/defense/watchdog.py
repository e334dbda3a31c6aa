"""ANVIL-style hammering detection from activation-rate accounting.

Rowhammer needs hundreds of thousands of row activations focused inside
one refresh window — orders of magnitude above what any cache-friendly
workload produces (caches absorb repeated accesses; only misses and
flushed lines activate rows).  Aundhkar & et al.'s ANVIL and similar
systems exploit exactly this: watch per-core/per-task DRAM activation
rates and intervene above a threshold.

The kernel feeds an :class:`ActivationLedger` (per task, per refresh
window); :class:`HammerWatchdog` scans it and raises
:class:`HammerAlert` records for window counts above threshold.  The A5
experiment measures the detector's separation: hammering tasks sit at
~1.2 M activations/window, while encryption victims, page-cache readers
and allocation churn stay thousands of times lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import NOOP_OBS
from repro.sim.errors import ConfigError


@dataclass(frozen=True)
class WatchdogConfig:
    """Detection threshold (activations by one task inside one window)."""

    threshold_per_window: int = 100_000
    history_windows: int = 64

    def __post_init__(self) -> None:
        if self.threshold_per_window <= 0:
            raise ConfigError("threshold_per_window must be positive")
        if self.history_windows <= 0:
            raise ConfigError("history_windows must be positive")


@dataclass(frozen=True)
class HammerAlert:
    """One detection: a task exceeded the activation budget in a window."""

    pid: int
    epoch: int
    activations: int


@dataclass
class ActivationLedger:
    """Per-(refresh window, task) DRAM activation counts.

    Fed by the kernel on every memory access and hammer syscall; bounded
    to the most recent windows so long simulations stay cheap: a new
    window past ``max_windows`` evicts the oldest.  The kernel's epochs
    never decrease (the refresh window is fixed per machine, see
    :mod:`repro.dram.controller`), so the oldest window is the
    first-inserted one and goes in O(1).
    """

    max_windows: int = 256
    _counts: dict[int, dict[int, int]] = field(default_factory=dict)

    def record(self, epoch: int, pid: int, activations: int) -> None:
        """Add ``activations`` attributed to ``pid`` during ``epoch``."""
        if activations <= 0:
            return
        counts = self._counts
        window = counts.get(epoch)
        if window is None:
            window = counts[epoch] = {}
            if len(counts) > self.max_windows:
                del counts[next(iter(counts))]
        window[pid] = window.get(pid, 0) + activations

    def count(self, epoch: int, pid: int) -> int:
        """Activations by ``pid`` during ``epoch``."""
        return self._counts.get(epoch, {}).get(pid, 0)

    def epochs(self) -> list[int]:
        """Windows with recorded activity, ascending."""
        return sorted(self._counts)

    def max_per_window(self, pid: int) -> int:
        """The task's hottest window (0 if never seen)."""
        return max(
            (window.get(pid, 0) for window in self._counts.values()), default=0
        )

    def totals(self) -> dict[int, int]:
        """Lifetime activations per pid (over retained windows)."""
        totals: dict[int, int] = {}
        for window in self._counts.values():
            for pid, count in window.items():
                totals[pid] = totals.get(pid, 0) + count
        return totals


class HammerWatchdog:
    """Scans a ledger for hammer-grade activation bursts."""

    def __init__(self, config: WatchdogConfig | None = None):
        self.config = config or WatchdogConfig()
        self.alerts: list[HammerAlert] = []
        self._seen: set[tuple[int, int]] = set()
        self.scans = 0
        self._ledger: ActivationLedger | None = None
        self.bind_obs(NOOP_OBS)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (see docs/OBSERVABILITY.md)."""
        self.obs = obs
        self._m_scans = obs.metrics.counter("defense.watchdog.scans")
        self._m_alerts = obs.metrics.counter("defense.watchdog.alerts")

    def bind_events(self, events, ledger: ActivationLedger, period_ns: int | None = None) -> None:
        """Scan ``ledger`` periodically on the machine's event scheduler.

        The default period is one refresh window (64 ms) — the granularity
        the ledger itself is bucketed at, so scanning faster gains nothing.
        """
        self._ledger = ledger
        if period_ns is None:
            period_ns = 64_000_000
        events.schedule_in(
            "defense.watchdog.scan", period_ns, self._on_scan,
            queue="defense", period_ns=period_ns,
        )

    def _on_scan(self, now_ns: int) -> None:
        if self._ledger is None:
            return
        self.scans += 1
        self._m_scans.inc()
        new = self.scan(self._ledger)
        if new:
            self._m_alerts.inc(len(new))
            self.obs.tracer.instant(
                "defense.watchdog.alert", "defense",
                alerts=len(new), pids=sorted({a.pid for a in new}),
            )

    def scan(self, ledger: ActivationLedger) -> list[HammerAlert]:
        """Examine all retained windows; returns (and retains) new alerts."""
        new: list[HammerAlert] = []
        for epoch in ledger.epochs()[-self.config.history_windows :]:
            for pid, count in ledger._counts[epoch].items():
                if count <= self.config.threshold_per_window:
                    continue
                key = (epoch, pid)
                if key in self._seen:
                    continue
                self._seen.add(key)
                alert = HammerAlert(pid=pid, epoch=epoch, activations=count)
                self.alerts.append(alert)
                new.append(alert)
        return new

    def flagged_pids(self) -> set[int]:
        """Tasks with at least one alert so far."""
        return {alert.pid for alert in self.alerts}
