"""The metric schema: every metric family, declared once.

:data:`SCHEMA` maps each family name to its :class:`MetricSpec` — kind,
unit, help text and (for histograms) bucket upper bounds.  The registry
(:class:`~repro.obs.metrics.MetricsRegistry`) holds only values and
looks every name up here: an undeclared name, or a declared one asked
for as the wrong kind, raises :class:`~repro.sim.errors.ConfigError`.

Adding a metric means one entry here and one row in
``docs/OBSERVABILITY.md``; ``scripts/check_telemetry_docs.py`` compares
the two (names, kinds and units) and checks that every name declared
here is used somewhere else in ``src/``.  The sections follow the doc.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.units import MS, SECOND

__all__ = ["COUNTER", "GAUGE", "HISTOGRAM", "MetricSpec", "SCHEMA"]

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"


class MetricSpec(NamedTuple):
    """What one family is: shared by every label set and every registry."""

    kind: str
    unit: str
    help: str
    buckets: tuple = ()


SCHEMA: dict[str, MetricSpec] = {
    # -- dram ----------------------------------------------------------------------
    "dram.hammer.calls": MetricSpec(COUNTER, "calls", "hammer fast-path invocations"),
    "dram.hammer.rounds": MetricSpec(COUNTER, "rounds", "hammer rounds executed"),
    "dram.hammer.activations_per_call": MetricSpec(
        HISTOGRAM,
        "activations",
        "activation count of each hammer call",
        (0, 100, 1_000, 10_000, 100_000, 1_000_000),
    ),
    "dram.flips": MetricSpec(COUNTER, "flips", "disturbance bit flips applied"),
    "dram.refresh.windows": MetricSpec(
        COUNTER, "windows", "refresh-window rollovers (bank activation counters reset)"
    ),
    "dram.activations": MetricSpec(GAUGE, "activations", "lifetime row activations across banks"),
    "dram.row_buffer.hits": MetricSpec(GAUGE, "accesses", "accesses served from an open row"),
    "dram.banks_touched": MetricSpec(GAUGE, "banks", "banks with live state"),
    "dram.trr.neighbor_refreshes": MetricSpec(GAUGE, "rows", "TRR victim-row refreshes"),
    "dram.trr.tracker_misses": MetricSpec(
        GAUGE, "events", "aggressors evicted from the TRR tracker unsampled"
    ),
    "dram.ecc.corrected_bits": MetricSpec(GAUGE, "bits", "bits ECC corrected away"),
    "dram.ecc.uncorrectable_events": MetricSpec(GAUGE, "events", "multi-bit words ECC let through"),
    "dram.memory.cow.materialized_frames": MetricSpec(
        GAUGE, "frames", "frames with backing storage in this machine's store"
    ),
    "dram.memory.cow.shared_frames": MetricSpec(
        GAUGE, "frames", "materialised frames whose payload is shared with a snapshot or fork"
    ),
    "dram.memory.cow.copied_frames": MetricSpec(
        GAUGE, "frames", "frames privatised by a copy-on-write fault"
    ),
    "dram.memory.cow.shares": MetricSpec(
        GAUGE, "events", "times this store's frame table was shared out (snapshot/fork)"
    ),
    # -- mm ------------------------------------------------------------------------
    "mm.pcp.hits": MetricSpec(
        COUNTER, "allocations", "order-0 allocations served from a non-empty per-CPU cache"
    ),
    "mm.pcp.misses": MetricSpec(
        COUNTER, "allocations", "order-0 allocations that forced a PCP refill from the buddy"
    ),
    "mm.pcp.drains": MetricSpec(COUNTER, "calls", "explicit PCP drain operations"),
    "mm.pcp.drained_frames": MetricSpec(
        COUNTER, "frames", "frames returned to the buddy by drains"
    ),
    "mm.buddy.direct_allocs": MetricSpec(
        COUNTER, "allocations", "allocations routed straight to the buddy (order>0 or PCP bypass)"
    ),
    "mm.alloc.failures": MetricSpec(
        COUNTER, "allocations", "requests no zone of any node could satisfy"
    ),
    "mm.free_pages": MetricSpec(GAUGE, "frames", "free frames across all nodes"),
    "mm.pcp.served_from_cache": MetricSpec(
        GAUGE, "allocations", "PCP allocations served without touching the buddy"
    ),
    "mm.pcp.refills": MetricSpec(GAUGE, "batches", "PCP batch refills from the buddy"),
    "mm.pcp.spills": MetricSpec(GAUGE, "batches", "PCP overflows spilled back to the buddy"),
    "mm.buddy.splits": MetricSpec(GAUGE, "blocks", "buddy block splits"),
    "mm.buddy.merges": MetricSpec(GAUGE, "blocks", "buddy block coalesces"),
    "mm.kswapd.wakeups": MetricSpec(GAUGE, "wakeups", "kswapd wake requests"),
    "mm.kswapd.runs": MetricSpec(GAUGE, "runs", "kswapd reclaim passes"),
    "mm.kswapd.reclaimed_pages": MetricSpec(GAUGE, "frames", "frames reclaimed by kswapd"),
    # -- os ------------------------------------------------------------------------
    "os.syscalls": MetricSpec(COUNTER, "calls", "syscall invocations by call name"),
    "os.syscalls_total": MetricSpec(GAUGE, "calls", "syscalls across all call names"),
    "os.page_faults": MetricSpec(COUNTER, "faults", "write faults served"),
    "os.tasks.spawned": MetricSpec(COUNTER, "tasks", "tasks created"),
    "os.sched.migrations": MetricSpec(COUNTER, "migrations", "tasks moved between CPUs"),
    "os.sched.ticks": MetricSpec(COUNTER, "ticks", "timeslice accounting ticks dispatched"),
    "os.frames_freed": MetricSpec(GAUGE, "frames", "frames released by munmap/exit"),
    # -- cpu_cache / sim -----------------------------------------------------------
    "cpu_cache.hits": MetricSpec(GAUGE, "accesses", "CPU cache hits"),
    "cpu_cache.misses": MetricSpec(GAUGE, "accesses", "CPU cache misses"),
    "cpu_cache.flushes": MetricSpec(GAUGE, "lines", "clflush evictions"),
    "dram.cache.hits": MetricSpec(GAUGE, "accesses", "cache hits served"),
    "dram.cache.misses": MetricSpec(GAUGE, "accesses", "cache misses (reached DRAM)"),
    "dram.cache.evictions": MetricSpec(GAUGE, "lines", "LRU capacity evictions"),
    "dram.cache.hit_rate": MetricSpec(GAUGE, "ratio", "lifetime hit rate"),
    "dram.cache.occupancy": MetricSpec(GAUGE, "lines", "valid lines held"),
    "sim.clock_ns": MetricSpec(GAUGE, "ns", "current simulated time"),
    "sim.events.scheduled": MetricSpec(COUNTER, "events", "events placed on the scheduler heap"),
    "sim.events.dispatched": MetricSpec(COUNTER, "events", "events fired, by scheduler queue"),
    "sim.events.cancelled": MetricSpec(
        COUNTER, "events", "scheduled events cancelled before firing"
    ),
    "sim.events.pending": MetricSpec(GAUGE, "events", "events waiting on the scheduler heap"),
    "sim.shortcut.page_runs": MetricSpec(
        GAUGE, "runs", "load/store ranges served as one closed-form page run"
    ),
    "sim.shortcut.page_run_lines": MetricSpec(
        GAUGE, "lines", "cache lines accounted inside page runs"
    ),
    "sim.shortcut.streams": MetricSpec(
        GAUGE, "streams", "whole-page load/store ranges served as one closed-form stream"
    ),
    "sim.shortcut.stream_lines": MetricSpec(GAUGE, "lines", "cache lines accounted inside streams"),
    "sim.shortcut.certified_evaluations": MetricSpec(
        GAUGE, "evaluations", "victim evaluations skipped by the no-flip certificate"
    ),
    "sim.shortcut.lazy_windows": MetricSpec(
        GAUGE, "windows", "refresh windows a hammer crossed without per-chunk bank writes"
    ),
    # -- defense -------------------------------------------------------------------
    "defense.watchdog.scans": MetricSpec(
        COUNTER, "scans", "periodic ledger scans by the hammering watchdog"
    ),
    "defense.watchdog.alerts": MetricSpec(
        COUNTER, "alerts", "hammer-grade activation bursts flagged"
    ),
    # -- chaos ---------------------------------------------------------------------
    "chaos.pumps": MetricSpec(COUNTER, "calls", "kernel pump-point visits"),
    "chaos.events_fired": MetricSpec(COUNTER, "events", "chaos events that actually fired"),
    # -- attack --------------------------------------------------------------------
    "attack.template.campaigns": MetricSpec(
        COUNTER, "campaigns", "templating passes over fresh buffers"
    ),
    "attack.template.flips": MetricSpec(
        COUNTER, "flips", "repeatable flips found while templating"
    ),
    "attack.template.usable": MetricSpec(
        COUNTER, "templates", "templates armed against the victim table"
    ),
    "attack.steer.attempts": MetricSpec(COUNTER, "attempts", "steering rounds staged"),
    "attack.steer.successes": MetricSpec(
        COUNTER, "attempts", "steering rounds where the victim received the staged frame"
    ),
    "attack.pfa.ciphertexts": MetricSpec(
        COUNTER, "ciphertexts", "faulty ciphertexts consumed by fault analysis"
    ),
    "attack.faultprobe.probes": MetricSpec(
        COUNTER, "probes", "oracle responses collected (reference + post-hammer)"
    ),
    "attack.faultprobe.discrepancies": MetricSpec(
        COUNTER, "probes", "probe rounds whose responses diverged from the reference"
    ),
    "attack.faultprobe.bits_recovered": MetricSpec(
        COUNTER, "bits", "distinct table bit positions with a probe verdict"
    ),
    "attack.faultprobe.bits_correct": MetricSpec(
        COUNTER, "bits", "probe verdicts matching ground truth (scoring)"
    ),
    "attack.evict.sets_derived": MetricSpec(
        COUNTER, "sets", "eviction sets derived and timing-verified"
    ),
    "attack.evict.set_lines": MetricSpec(
        COUNTER, "lines", "lines enrolled across derived eviction sets"
    ),
    "attack.evict.probe_reads": MetricSpec(
        COUNTER, "reads", "loads issued while timing-verifying candidate sets"
    ),
    "attack.evict.rounds": MetricSpec(COUNTER, "rounds", "flush-free hammer rounds issued"),
    "attack.evict.aggressor_accesses": MetricSpec(
        COUNTER, "accesses", "aggressor accesses issued by eviction hammering"
    ),
    "attack.evict.aggressor_evictions": MetricSpec(
        COUNTER, "accesses", "aggressor accesses that reached DRAM (accuracy numerator)"
    ),
    "attack.evict.wasted_activations": MetricSpec(
        COUNTER, "activations", "row activations spent on eviction-set lines, not aggressors"
    ),
    "attack.stage.attempts": MetricSpec(COUNTER, "attempts", "stage attempts by stage name"),
    "attack.stage.failures": MetricSpec(COUNTER, "failures", "classified stage failures"),
    "attack.stage.duration_ns": MetricSpec(
        HISTOGRAM,
        "ns",
        "sim-time duration of each stage attempt",
        (MS, 10 * MS, 100 * MS, SECOND, 10 * SECOND, 100 * SECOND),
    ),
    "attack.recoveries": MetricSpec(
        COUNTER, "recoveries", "recovery strategies applied between attempts"
    ),
    # -- workload ------------------------------------------------------------------
    "workload.tenant.requests_issued": MetricSpec(
        COUNTER, "requests", "encryption requests arriving per tenant"
    ),
    "workload.tenant.requests_served": MetricSpec(
        COUNTER, "requests", "requests served by the tenant's victim"
    ),
    "workload.tenant.requests_dropped": MetricSpec(
        COUNTER, "requests", "arrivals shed because the queue was full"
    ),
    "workload.tenant.queue_depth": MetricSpec(GAUGE, "requests", "requests waiting unserved"),
    "workload.tenant.encryptions": MetricSpec(
        COUNTER, "blocks", "blocks encrypted, target vs background noise"
    ),
    # -- campaign.pool -------------------------------------------------------------
    "campaign.pool.workers": MetricSpec(
        GAUGE, "processes", "worker processes serving the campaign pool"
    ),
    "campaign.pool.attempts_dispatched": MetricSpec(
        COUNTER, "attempts", "attempts submitted to the pool"
    ),
    "campaign.pool.attempts_completed": MetricSpec(
        COUNTER, "attempts", "attempts whose reports were collected"
    ),
    "campaign.pool.mode": MetricSpec(
        GAUGE, "flag", "how warm state reached the workers: serial or ship"
    ),
    "campaign.pool.worker_wall_ns": MetricSpec(
        GAUGE, "ns", "host wall time each worker spent inside attempts"
    ),
    # -- campaign.service ----------------------------------------------------------
    "campaign.service.attempts_journaled": MetricSpec(
        COUNTER, "attempts", "attempt reports appended to the journal this run"
    ),
    "campaign.service.attempts_resumed": MetricSpec(
        COUNTER, "attempts", "attempts recovered from the journal instead of re-run"
    ),
    "campaign.service.torn_records_dropped": MetricSpec(
        COUNTER, "records", "corrupt trailing journal records dropped at resume"
    ),
    "campaign.service.worker_retries": MetricSpec(
        COUNTER, "retries", "attempts re-dispatched after their worker died"
    ),
    "campaign.service.workers_lost": MetricSpec(
        COUNTER, "failures", "pool breakages survived by rebuilding the pool"
    ),
    "campaign.service.journal_bytes": MetricSpec(
        GAUGE, "bytes", "size of the journal after the run"
    ),
    "campaign.service.inflight_window": MetricSpec(
        GAUGE,
        "attempts",
        "bound on attempts in flight: 2 x pool workers, 1 serial, 0 when nothing ran",
    ),
}
