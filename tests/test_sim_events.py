"""EventScheduler semantics: ordering, recurrence, cancellation."""

import pytest

from repro.obs import Observability
from repro.sim.clock import SimClock
from repro.sim.errors import ConfigError
from repro.sim.events import EventScheduler


def make_scheduler(start_ns: int = 0) -> EventScheduler:
    return EventScheduler(SimClock(start_ns=start_ns))


class Recorder:
    """Callback target that records (name, fired_at) pairs."""

    def __init__(self):
        self.log: list[tuple[str, int]] = []

    def cb(self, name):
        def _record(now_ns: int) -> None:
            self.log.append((name, now_ns))

        return _record


class TestScheduling:
    def test_past_due_rejected(self):
        events = make_scheduler(start_ns=100)
        with pytest.raises(ConfigError):
            events.schedule("late", 99, lambda now: None)

    def test_non_positive_period_rejected(self):
        events = make_scheduler()
        with pytest.raises(ConfigError):
            events.schedule("bad", 10, lambda now: None, period_ns=0)

    def test_negative_delay_rejected(self):
        events = make_scheduler()
        with pytest.raises(ConfigError):
            events.schedule_in("bad", -1, lambda now: None)

    def test_schedule_in_is_relative(self):
        events = make_scheduler(start_ns=50)
        handle = events.schedule_in("x", 25, lambda now: None)
        assert handle.due_ns == 75

    def test_pending_counts_live_events(self):
        events = make_scheduler()
        events.schedule("a", 10, lambda now: None, queue="q1")
        handle = events.schedule("b", 20, lambda now: None, queue="q2")
        assert events.pending() == 2
        assert events.pending("q1") == 1
        handle.cancel()
        assert events.pending() == 1
        assert events.queues() == ["q1"]


class TestDispatchOrdering:
    def test_due_order_then_seq_tie_break(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("second", 10, rec.cb("second"))
        events.schedule("tie-a", 5, rec.cb("tie-a"))
        events.schedule("tie-b", 5, rec.cb("tie-b"))
        events.run_until(10)
        assert rec.log == [("tie-a", 5), ("tie-b", 5), ("second", 10)]

    def test_global_order_spans_queues(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("os-event", 7, rec.cb("os"), queue="os")
        events.schedule("dram-event", 3, rec.cb("dram"), queue="dram")
        events.run_until(10)
        assert rec.log == [("dram", 3), ("os", 7)]

    def test_queue_scoped_dispatch_ignores_other_queues(self):
        events = make_scheduler(start_ns=10)
        rec = Recorder()
        events.schedule("mine", 10, rec.cb("mine"), queue="dram")
        events.schedule("other", 10, rec.cb("other"), queue="mm")
        fired = events.dispatch_due("dram")
        assert fired == 1
        assert rec.log == [("mine", 10)]
        assert events.pending("mm") == 1

    def test_dispatch_barrier_defers_events_scheduled_mid_pass(self):
        events = make_scheduler(start_ns=10)
        rec = Recorder()

        def reschedule(now_ns: int) -> None:
            rec.log.append(("first", now_ns))
            events.schedule("again", now_ns, rec.cb("again"))

        events.schedule("first", 10, reschedule)
        assert events.dispatch_due() == 1
        assert rec.log == [("first", 10)]
        assert events.dispatch_due() == 1
        assert rec.log == [("first", 10), ("again", 10)]

    def test_future_events_stay_pending(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("later", 100, rec.cb("later"))
        assert events.dispatch_due() == 0
        assert rec.log == []


class TestQueueDispatchFastPath:
    """``dispatch_due(queue)`` returns at once when the head is live and
    not due, but still skims a cancelled head first."""

    def test_live_head_not_yet_due_leaves_the_heap_alone(self):
        events = make_scheduler(start_ns=10)
        rec = Recorder()
        events.schedule("later", 20, rec.cb("later"), queue="dram")
        heap = list(events._queues["dram"])
        assert events.dispatch_due("dram") == 0
        assert events._queues["dram"] == heap
        assert events.dispatched_total == 0

    def test_cancelled_due_head_above_a_live_future_event_is_skimmed(self):
        events = make_scheduler(start_ns=10)
        rec = Recorder()
        stale = events.schedule("stale", 10, rec.cb("stale"), queue="dram")
        events.schedule("later", 20, rec.cb("later"), queue="dram")
        events.cancel(stale)
        assert events.dispatch_due("dram") == 0
        assert [event.name for _, _, event in events._queues["dram"]] == ["later"]
        assert events.next_due_ns("dram") == 20
        events.clock.advance_to(20)
        assert events.dispatch_due("dram") == 1
        assert rec.log == [("later", 20)]
        assert events.stats() == {
            "scheduled": 2, "dispatched": 1, "cancelled": 1, "pending": 0,
        }

    def test_a_due_event_behind_a_cancelled_head_still_fires(self):
        events = make_scheduler(start_ns=10)
        rec = Recorder()
        stale = events.schedule("stale", 10, rec.cb("stale"), queue="dram")
        events.schedule("due", 10, rec.cb("due"), queue="dram")
        stale.cancel()
        assert events.dispatch_due("dram") == 1
        assert rec.log == [("due", 10)]

    def test_dispatch_counters_match_a_full_drain(self):
        """The fast path fires nothing and counts nothing."""
        events = make_scheduler()
        obs = Observability()
        events.bind_obs(obs)
        rec = Recorder()
        events.schedule("tick", 10, rec.cb("tick"), queue="dram", period_ns=10)
        for now in range(0, 45, 3):
            events.clock.advance_to(now)
            events.dispatch_due("dram")
        assert [at for _, at in rec.log] == [12, 21, 30, 42]
        snapshot = obs.metrics.snapshot()
        assert snapshot["sim.events.dispatched{queue=dram}"] == 4


class TestRecurring:
    def test_recurring_re_arms_each_period(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("tick", 10, rec.cb("tick"), period_ns=10)
        events.run_until(35)
        assert rec.log == [("tick", 10), ("tick", 20), ("tick", 30)]
        assert events.clock.now_ns == 35

    def test_missed_periods_coalesce(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("tick", 10, rec.cb("tick"), period_ns=10)
        events.run_until(10)
        # Jump far past several periods without dispatching; the next
        # firing is the first phase-aligned boundary after now, not a
        # replay of every missed one.
        events.clock.advance_to(47)
        events.dispatch_due()
        events.run_until(60)
        assert rec.log == [("tick", 10), ("tick", 47), ("tick", 50), ("tick", 60)]

    def test_cancelling_recurring_from_its_own_callback_stops_it(self):
        events = make_scheduler()
        rec = Recorder()
        handle = {}

        def once(now_ns: int) -> None:
            rec.log.append(("tick", now_ns))
            handle["h"].cancel()

        handle["h"] = events.schedule("tick", 10, once, period_ns=10)
        events.run_until(50)
        assert rec.log == [("tick", 10)]
        assert events.pending() == 0


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        events = make_scheduler()
        rec = Recorder()
        handle = events.schedule("x", 10, rec.cb("x"))
        events.cancel(handle)
        assert not handle.active
        events.run_until(20)
        assert rec.log == []

    def test_double_cancel_counts_once(self):
        events = make_scheduler()
        handle = events.schedule("x", 10, lambda now: None)
        events.cancel(handle)
        events.cancel(handle)
        assert events.cancelled_total == 1


class TestStepAndRunUntil:
    def test_step_advances_to_next_event(self):
        events = make_scheduler()
        rec = Recorder()
        events.schedule("a", 15, rec.cb("a"))
        events.schedule("b", 40, rec.cb("b"))
        assert events.step() == 15
        assert events.clock.now_ns == 15
        assert events.step() == 40
        assert events.step() is None
        assert rec.log == [("a", 15), ("b", 40)]

    def test_run_until_lands_exactly_on_target(self):
        events = make_scheduler()
        assert events.run_until(123) == 0
        assert events.clock.now_ns == 123

    def test_run_until_backwards_rejected(self):
        events = make_scheduler(start_ns=100)
        with pytest.raises(ConfigError):
            events.run_until(99)

    def test_next_due_ns(self):
        events = make_scheduler()
        assert events.next_due_ns() is None
        events.schedule("a", 30, lambda now: None, queue="q")
        events.schedule("b", 20, lambda now: None, queue="r")
        assert events.next_due_ns() == 20
        assert events.next_due_ns("q") == 30
        assert events.next_due_ns("missing") is None


class TestStatsAndObs:
    def test_stats_track_lifetime_counts(self):
        events = make_scheduler()
        handle = events.schedule("a", 10, lambda now: None)
        events.schedule("b", 20, lambda now: None)
        events.cancel(handle)
        events.run_until(30)
        assert events.stats() == {
            "scheduled": 2,
            "dispatched": 1,
            "cancelled": 1,
            "pending": 0,
        }

    def test_metrics_labelled_by_queue(self):
        events = make_scheduler()
        obs = Observability()
        events.bind_obs(obs)
        events.schedule("a", 10, lambda now: None, queue="dram")
        events.schedule("b", 10, lambda now: None, queue="mm")
        events.run_until(10)
        snap = obs.metrics.snapshot()
        assert snap["sim.events.scheduled"] == 2
        assert snap["sim.events.dispatched{queue=dram}"] == 1
        assert snap["sim.events.dispatched{queue=mm}"] == 1
        assert snap["sim.events.pending"] == 0

