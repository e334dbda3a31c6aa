"""Eviction-based hammering: the Rowhammer.js variant of ExplFrame.

The third registered attack modality, after *Rowhammer.js: A Remote
Software-Induced Fault Attack in JavaScript* (Gruss et al., PAPERS.md)
and the ROADMAP's open item (b).  ExplFrame — like the original
Rowhammer paper — assumes the attacker can issue ``clflush`` so every
aggressor access reaches DRAM.  Rowhammer.js showed the flush is
optional: accessing enough addresses *congruent to the aggressor's
cache set* pushes the aggressor line out of the LRU cache, so the next
round's access misses and activates the row anyway.  This modality
keeps ExplFrame's entire pipeline — template, page-frame-cache steer,
re-hammer, persistent fault analysis — but the re-hammer loop is
flush-free:

1. **Derive** (the ``evictset`` resolution stage).  For each templated
   aggressor the attacker enumerates candidate lines at multiples of
   the cache's *way stride* (``line_size * sets`` — public CPU
   geometry; congruent virtual offsets are congruent physical offsets
   inside the mostly-contiguous buffer, the same assumption templating
   already makes for row strides) and keeps ``ways + evict_slack``
   resident members, skipping a guard zone around the aggressor rows
   and the staged page so traversal activations cannot touch the
   victim's row.  The set is **verified by access timing** through the
   cache model: load the aggressor, traverse the candidate set, and
   time a re-load — a cache hit costs exactly ``CACHE_HIT_NS``, so any
   longer read proves the traversal evicted the line.  Too few
   congruent residents or a set that never verifies classifies as
   ``eviction-set-incomplete`` and abandons the candidate.
2. **Hammer by traversal.**  ``Kernel.sys_hammer_evict`` runs the
   per-round sequence — aggressors plus their eviction sets, in the
   configured access ``evict_pattern`` (``sequential`` per-aggressor
   blocks, or the double-sided ``interleave``) — exactly for two
   rounds, then exploits that a fixed cyclic reference string through
   a deterministic LRU cache is periodic after the cold round: rounds
   3..N repeat round 2 bit for bit, so the steady-round misses replay
   through the controller's bulk hammer path (refresh-window clipping,
   TRR and flip evaluation all apply).  Aggressor lines replay at the
   flush-path activation rate; the eviction-set lines' activations are
   the price of flushless hammering and are accounted separately as
   **wasted activations**, their cost a simulated-time tail that makes
   eviction-based hammering measurably slower per flip (bench T14).
   **Eviction accuracy** — the fraction of aggressor accesses that
   actually reached DRAM — is 1.0 for a verified set and 0.0 for an
   undersized or incongruent one (the negative control: the cache
   absorbs every access and no flips accumulate, which is why the
   original attack needed clflush).

Everything downstream — fault-shape verification, PFA, key scoring,
campaign digests — is inherited from ExplFrame unchanged; only the
stage graph grows the ``evictset`` stage and the ``attack.evict.*``
metric family (contract: docs/ATTACKS.md, docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.base import (
    FailureClass,
    GENERIC_STAGES,
    ResolutionStage,
    StageFailure,
    StageOutcome,
)
from repro.attack.explframe import REHAMMER_ATTEMPTS, ExplFrameAttack, ExplFrameConfig
from repro.ciphers.table_memory import CipherVictim
from repro.core.results import FlipTemplate
from repro.os.kernel import CACHE_HIT_NS
from repro.sim.errors import ConfigError
from repro.sim.units import page_align_down

#: Access patterns ``sys_hammer_evict`` understands.
EVICT_PATTERNS = ("sequential", "interleave")

#: Rows kept between any eviction-set member and the aggressor rows or
#: the staged page, so traversal activations (and their neighbour
#: coupling) can never fault the victim's row themselves.
GUARD_ROWS = 3


@dataclass(frozen=True)
class EvictFrameConfig(ExplFrameConfig):
    """ExplFrame's knobs plus the eviction-set shape.

    ``evict_slack`` extra members beyond the cache's associativity make
    the traversal robust to the odd physically-discontiguous candidate;
    ``evict_pattern`` orders one hammer round's accesses (``sequential``
    walks each aggressor's set as a block, ``interleave`` is the
    double-sided variant: both aggressors first, then their members
    round-robin).
    """

    evict_slack: int = 2
    evict_pattern: str = "sequential"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.evict_slack < 0:
            raise ConfigError(
                f"evict_slack must be non-negative, got {self.evict_slack}"
            )
        if self.evict_pattern not in EVICT_PATTERNS:
            raise ConfigError(
                f"evict_pattern must be one of {EVICT_PATTERNS}, "
                f"got {self.evict_pattern!r}"
            )


class EvictFrameAttack(ExplFrameAttack):
    """ExplFrame with a flush-free hammer loop (Rowhammer.js style).

    Extra state beyond the base class: ``_eviction_sets`` holds the
    per-aggressor verified sets the ``evictset`` stage derived for the
    current candidate (the re-hammer stage consumes them).
    """

    modality_name = "evictframe"
    description = (
        "hammer through timing-verified cache eviction sets instead of "
        "clflush, then recover the key by persistent fault analysis "
        "(Rowhammer.js-style)"
    )
    config_class = EvictFrameConfig

    def __init__(
        self,
        machine,
        key: bytes | None = None,
        config: EvictFrameConfig | None = None,
        tenant_workload=None,
    ):
        self._eviction_sets: tuple[tuple[int, ...], ...] | None = None
        super().__init__(
            machine,
            key=key,
            config=config or EvictFrameConfig(),
            tenant_workload=tenant_workload,
        )

    def _bind_modality_metrics(self, metrics) -> None:
        """PFA instruments (inherited — this modality still runs PFA)
        plus the ``attack.evict.*`` family: derivation volume, timing
        probes, and the two numbers that separate eviction-based from
        flush-based hammering (accuracy numerator/denominator, waste)."""
        super()._bind_modality_metrics(metrics)
        self._m_sets = metrics.counter("attack.evict.sets_derived")
        self._m_set_lines = metrics.counter("attack.evict.set_lines")
        self._m_probe_reads = metrics.counter("attack.evict.probe_reads")
        self._m_evict_rounds = metrics.counter("attack.evict.rounds")
        self._m_agg_accesses = metrics.counter("attack.evict.aggressor_accesses")
        self._m_agg_evictions = metrics.counter("attack.evict.aggressor_evictions")
        self._m_wasted = metrics.counter("attack.evict.wasted_activations")

    # -- eviction-set derivation ---------------------------------------------------

    def _congruent_candidates(
        self, aggressor_va: int, template: FlipTemplate
    ) -> list[int]:
        """Resident buffer lines congruent to the aggressor's cache set.

        Walks outward from the aggressor in way-stride steps across the
        buffer VMA the aggressor lives in (templates can outlive a
        retired templator, so the VMA — not the live templator's bounds —
        defines the span), skipping unmapped pages and a ``GUARD_ROWS``
        row-stride zone around both aggressors and the staged page.
        Ordered nearest-first so the derived set stays compact.
        """
        cache = self.kernel.cache
        stride = cache.config.way_stride
        mm = self.attacker.mm
        vma = mm.vma_at(page_align_down(aggressor_va))
        if vma is None:
            return []
        guard = GUARD_ROWS * self.kernel.controller.mapping.row_stride()
        protected = tuple(template.aggressor_vas) + (template.page_va,)
        candidates: list[int] = []
        max_k = (vma.length // stride) + 1
        for k in range(1, max_k + 1):
            for va in (aggressor_va + k * stride, aggressor_va - k * stride):
                if not vma.start <= va < vma.end:
                    continue
                if any(abs(va - anchor) < guard for anchor in protected):
                    continue
                if not mm.page_table.is_mapped(page_align_down(va)):
                    continue
                candidates.append(va)
        return candidates

    def _traversal_evicts(self, aggressor_va: int, members: list[int]) -> bool:
        """Timing verification: does walking ``members`` evict the aggressor?

        Load the aggressor (cached), traverse the set, re-load and time
        it.  A hit costs exactly ``CACHE_HIT_NS`` of simulated time, so
        any longer re-load proves a miss — the attacker-side analogue of
        Rowhammer.js's calibration loop, through public loads only.
        """
        kernel = self.kernel
        pid = self.attacker.pid
        kernel.mem_read(pid, aggressor_va, 1)
        for va in members:
            kernel.mem_read(pid, va, 1)
        before = kernel.clock.now_ns
        kernel.mem_read(pid, aggressor_va, 1)
        self._m_probe_reads.inc(len(members) + 2)
        return kernel.clock.now_ns - before > CACHE_HIT_NS

    def derive_eviction_set(
        self, aggressor_va: int, template: FlipTemplate
    ) -> list[int] | None:
        """A timing-verified congruent set of ``ways + evict_slack`` lines.

        Grows the set one candidate at a time past the target size if the
        verification probe says the traversal does not yet evict (the
        buffer's physical contiguity can break at allocation boundaries,
        making a virtual-stride candidate non-congruent).  Returns None —
        the ``eviction-set-incomplete`` failure — when candidates run out.
        """
        target = self.kernel.cache.config.ways + self.config.evict_slack
        candidates = self._congruent_candidates(aggressor_va, template)
        if len(candidates) < target:
            return None
        size = target
        members = candidates[:size]
        while not self._traversal_evicts(aggressor_va, members):
            size += 1
            if size > len(candidates):
                return None
            members = candidates[:size]
        return members

    # -- the flush-free hammer loop --------------------------------------------------

    def rehammer(self, template: FlipTemplate, victim: CipherVictim) -> bool:
        """Hammer by eviction-set traversal until the victim table faults."""
        if self._eviction_sets is None:
            raise ConfigError(
                "no eviction sets derived for this candidate; evictframe "
                "runs orchestrated (the evictset stage precedes rehammer)"
            )
        sets = [list(members) for members in self._eviction_sets]
        with self.obs.tracer.span(
            "attack.rehammer", "attack", modality=self.modality_name
        ) as span:
            accuracy = 0.0
            for attempt in range(REHAMMER_ATTEMPTS):
                result = self.templator.hammerer.hammer_evict(
                    list(template.aggressor_vas),
                    sets,
                    pattern=self.config.evict_pattern,
                )
                accuracy = result.eviction_accuracy
                self._m_evict_rounds.inc(result.rounds)
                self._m_agg_accesses.inc(result.aggressor_accesses)
                self._m_agg_evictions.inc(result.aggressor_misses)
                self._m_wasted.inc(result.wasted_activations)
                if victim.table_is_faulty():
                    span.set("attempts", attempt + 1)
                    span.set("faulted", True)
                    span.set("accuracy", accuracy)
                    return True
            span.set("attempts", REHAMMER_ATTEMPTS)
            span.set("faulted", False)
            span.set("accuracy", accuracy)
        return False

    # -- modality contract (docs/ATTACKS.md) -------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        return GENERIC_STAGES + ("evictset", "rehammer", "pfa")

    def failure_classes(self) -> tuple[FailureClass, ...]:
        return super().failure_classes() + (FailureClass.EVICTION_SET_INCOMPLETE,)

    def resolution_stages(self) -> tuple[ResolutionStage, ...]:
        # The derivation stage reuses the "rehammer" retry-policy slot of
        # OrchestratorConfig (adding a policy field would change every
        # checkpoint config hash — see that dataclass's docstring); the
        # inherited rehammer and PFA stages follow unchanged.
        return (
            ResolutionStage(
                "evictset", policy="rehammer", run=self._evictset_stage
            ),
        ) + super().resolution_stages()

    def _evictset_stage(
        self, victim: CipherVictim, template: FlipTemplate, attempt: int
    ) -> StageOutcome:
        del victim  # derivation only touches the attacker's own buffer
        recovery = (
            None if attempt == 0 else f"re-derive after backoff (try {attempt + 1})"
        )
        target = self.kernel.cache.config.ways + self.config.evict_slack
        with self.obs.tracer.span(
            "attack.evictset", "attack",
            slack=self.config.evict_slack, pattern=self.config.evict_pattern,
        ) as span:
            sets: list[list[int]] = []
            for aggressor_va in template.aggressor_vas:
                members = self.derive_eviction_set(aggressor_va, template)
                if members is None:
                    span.set("derived", False)
                    # Derivation is deterministic for a fixed candidate —
                    # retrying cannot help; move on immediately.
                    return StageOutcome(
                        ok=False,
                        recovery=recovery,
                        advance="next-candidate",
                        failure=StageFailure(
                            "evictset",
                            FailureClass.EVICTION_SET_INCOMPLETE,
                            f"no verified eviction set for aggressor "
                            f"{aggressor_va:#x} ({target} congruent resident "
                            f"lines needed)",
                        ),
                    )
                sets.append(members)
            self._eviction_sets = tuple(tuple(members) for members in sets)
            lines = sum(len(members) for members in sets)
            span.set("derived", True)
            span.set("lines", lines)
        self._m_sets.inc(len(sets))
        self._m_set_lines.inc(lines)
        return StageOutcome(ok=True, recovery=recovery)

