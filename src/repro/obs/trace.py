"""Sim-time tracer: nested spans and instant events, Chrome-trace export.

Spans are stamped from the machine's :class:`~repro.sim.clock.SimClock`,
never from the host clock, so two runs with the same seed produce
byte-identical traces (satellite determinism guarantee).  Wall-clock
durations can be *added* as span annotations (``wall_time=True``) for
host-side profiling; they are opt-in precisely because they break that
guarantee.

The export format is the Chrome trace-event JSON object (load via
``chrome://tracing`` or https://ui.perfetto.dev).  Spans become ``"X"``
complete events, instants become ``"i"`` events; timestamps are the sim
nanoseconds divided by 1000 (the format counts microseconds).

The disabled tracer (the default) returns a shared null span from
``span()`` and returns immediately from ``instant()``; instrumented code
never branches on enablement itself.
"""

from __future__ import annotations

import json
import time

from repro.sim.errors import ConfigError

__all__ = ["NULL_SPAN", "Span", "TraceRecord", "Tracer"]

_NS_PER_US = 1000.0


class TraceRecord:
    """One span or instant, in sim time."""

    __slots__ = ("kind", "name", "cat", "start_ns", "end_ns", "depth", "args")

    def __init__(self, kind, name, cat, start_ns, depth, args):
        self.kind = kind  # "span" | "instant"
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.end_ns = start_ns if kind == "instant" else None
        self.depth = depth
        self.args = args


class Span:
    """Context manager for one live span; ``set()`` adds annotations."""

    __slots__ = ("_tracer", "_record", "_wall_start")

    def __init__(self, tracer, record, wall_start):
        self._tracer = tracer
        self._record = record
        self._wall_start = wall_start

    def set(self, key, value) -> None:
        self._record.args[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self._record
        record.end_ns = self._tracer._now()
        if self._wall_start is not None:
            record.args["wall_dur_ns"] = time.perf_counter_ns() - self._wall_start
        if exc_type is not None:
            record.args["error"] = exc_type.__name__
        stack = self._tracer._stack
        if stack and stack[-1] is record:
            stack.pop()


class _NullSpan:
    __slots__ = ()

    def set(self, key, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceRecord` entries stamped from the sim clock."""

    def __init__(self, clock=None, enabled=False, wall_time=False):
        self.clock = clock
        self.enabled = enabled
        self.wall_time = wall_time
        self.records: list[TraceRecord] = []
        self._stack: list[TraceRecord] = []

    def enable(self, wall_time: bool | None = None) -> None:
        if self.clock is None:
            raise ConfigError("tracer has no clock; cannot enable")
        self.enabled = True
        if wall_time is not None:
            self.wall_time = wall_time

    def disable(self) -> None:
        self.enabled = False

    def _now(self) -> int:
        return self.clock.now_ns

    # -- emission -----------------------------------------------------

    def span(self, name, cat, **args):
        """Open a nested span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        record = TraceRecord("span", name, cat, self._now(), len(self._stack), args)
        self.records.append(record)
        self._stack.append(record)
        wall_start = time.perf_counter_ns() if self.wall_time else None
        return Span(self, record, wall_start)

    def instant(self, name, cat, **args) -> None:
        """Record a point event at the current sim time."""
        if not self.enabled:
            return
        self.records.append(
            TraceRecord("instant", name, cat, self._now(), len(self._stack), args)
        )

    def complete(self, name, cat, start_ns, end_ns, **args) -> None:
        """Record an already-finished span retroactively.

        Used where begin/end times are only known after the fact (e.g. the
        orchestrator's per-attempt timeline, which is assembled post hoc).
        """
        if not self.enabled:
            return
        record = TraceRecord("span", name, cat, start_ns, len(self._stack), args)
        record.end_ns = end_ns
        self.records.append(record)

    # -- reading ------------------------------------------------------

    def categories(self) -> set[str]:
        return {record.cat for record in self.records}

    def span_tuples(self) -> list[tuple]:
        """Deterministic digest of the span tree for equality tests.

        ``(kind, name, cat, depth, start_ns, end_ns)`` in emission order;
        wall-time annotations are deliberately excluded.
        """
        return [
            (r.kind, r.name, r.cat, r.depth, r.start_ns, self._end_ns(r))
            for r in self.records
        ]

    def _end_ns(self, record: TraceRecord) -> int:
        # A still-open span (trace exported mid-run) ends "now".
        if record.end_ns is None:
            return self._now()
        return record.end_ns

    # -- export -------------------------------------------------------

    def to_chrome(self, producer: str = "repro") -> dict:
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro simulated machine"},
            }
        ]
        for record in self.records:
            base = {
                "name": record.name,
                "cat": record.cat,
                "pid": 0,
                "tid": 0,
                "ts": record.start_ns / _NS_PER_US,
                "args": _clean_args(record.args),
            }
            if record.kind == "span":
                dur_ns = self._end_ns(record) - record.start_ns
                base["ph"] = "X"
                base["dur"] = dur_ns / _NS_PER_US
            else:
                base["ph"] = "i"
                base["s"] = "t"
            events.append(base)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": producer, "clockDomain": "simulated-ns"},
        }

    def write(self, path, producer: str = "repro") -> None:
        """Serialise the trace to ``path`` as Chrome trace-event JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_chrome(producer), sort_keys=True))


def _clean_args(args: dict) -> dict:
    """JSON-safe copy of span args (bytes and odd types become repr)."""
    out = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
