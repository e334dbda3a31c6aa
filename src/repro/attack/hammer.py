"""Attacker-side hammering primitives.

Everything here works through the kernel's public syscall surface — mmap,
stores, clflush-style hammering — never through privileged interfaces.
The one piece of cleverness real attacks need is reproduced: finding
*same-bank* aggressor pairs without knowing the DRAM address mapping, by
timing.  Two addresses in the same bank but different rows force a row
conflict on every alternation (~tRC per access); different banks or the
same row serve from the row buffer (~tCAS).  The gap is easily measurable
and is how user-space Rowhammer code classifies address pairs.
"""

from __future__ import annotations

from repro.dram.controller import HammerResult
from repro.os.kernel import EvictHammerResult, Kernel
from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SIZE

# Rounds used for a timing probe: enough to average, few enough that the
# probe's own activations (<< any flip threshold) are harmless.
PROBE_ROUNDS = 128
#: Pages per load or store when the attacker walks a whole buffer (128 KiB):
#: few kernel calls per pass, and never the whole buffer in one bytes object.
CHUNK_PAGES = 32


class Hammerer:
    """Hammer loop driver for one (attacker) task."""

    def __init__(self, kernel: Kernel, pid: int, rounds: int = 650_000):
        if rounds <= 0:
            raise ConfigError(f"rounds must be positive, got {rounds}")
        self.kernel = kernel
        self.pid = pid
        self.rounds = rounds
        self.total_rounds = 0
        self.total_activations = 0

    # -- buffer preparation ----------------------------------------------------

    def map_buffer(self, size_bytes: int, name: str = "hammer-buffer") -> int:
        """mmap an anonymous buffer; returns its base VA (not yet resident)."""
        return self.kernel.sys_mmap(self.pid, size_bytes, name=name)

    def fill(self, va: int, pages: int, pattern: int) -> None:
        """Store ``pattern`` into every byte of ``pages`` pages from ``va``.

        This is the step the paper insists on: frames are only allocated
        once data is stored — and the pattern arms the weak cells whose
        resting value differs from it.  The buffer is stored in chunks of
        :data:`CHUNK_PAGES` pages, one ``mem_write`` each; the kernel serves
        a chunk of resident pages as one stream and faults the rest in page
        by page.
        """
        if not 0 <= pattern <= 0xFF:
            raise ConfigError(f"pattern byte {pattern} out of range")
        chunk = bytes([pattern]) * (CHUNK_PAGES * PAGE_SIZE)
        for index in range(0, pages, CHUNK_PAGES):
            size = min(CHUNK_PAGES, pages - index) * PAGE_SIZE
            self.kernel.mem_write(self.pid, va + index * PAGE_SIZE, chunk[:size])

    # -- hammering ------------------------------------------------------------------

    def hammer_pair(self, va_a: int, va_b: int, rounds: int | None = None) -> HammerResult:
        """Alternately access + flush the two addresses ``rounds`` times."""
        result = self.kernel.sys_hammer(
            self.pid, [va_a, va_b], self.rounds if rounds is None else rounds, flush=True
        )
        self.total_rounds += result.rounds
        self.total_activations += result.activations
        return result

    def hammer_evict(
        self,
        aggressor_vas: list[int],
        eviction_vas: list[list[int]],
        rounds: int | None = None,
        pattern: str = "sequential",
    ) -> EvictHammerResult:
        """Flush-free hammering: evict each aggressor by cache-set traversal.

        ``eviction_vas[i]`` is the congruent eviction set for
        ``aggressor_vas[i]`` (see ``derive_eviction_set`` in the evictframe
        modality); ``pattern`` picks the per-round access order.  No clflush
        is issued — the traversal itself pushes the aggressor line out of
        the LRU cache, Rowhammer.js style.
        """
        result = self.kernel.sys_hammer_evict(
            self.pid,
            aggressor_vas,
            eviction_vas,
            self.rounds if rounds is None else rounds,
            pattern=pattern,
        )
        self.total_rounds += result.rounds
        self.total_activations += result.activations
        return result

    def hammer_without_flush(self, va_a: int, va_b: int, rounds: int | None = None) -> HammerResult:
        """The negative control: same loop, no clflush (cache absorbs it)."""
        result = self.kernel.sys_hammer(
            self.pid, [va_a, va_b], self.rounds if rounds is None else rounds, flush=False
        )
        self.total_rounds += result.rounds
        return result

    # -- timing-based bank classification ----------------------------------------

    def probe_pair_ns(self, va_a: int, va_b: int) -> float:
        """Measured average time per hammer round for the pair."""
        result = self.kernel.sys_hammer(self.pid, [va_a, va_b], PROBE_ROUNDS, flush=True)
        return result.ns_per_round

    def row_conflict_threshold_ns(self) -> float:
        """Decision threshold between row-hit and row-conflict pair timings.

        Midpoint between one round of two row hits and one round of two
        row conflicts, from the controller's timing parameters.  A real
        attacker calibrates this empirically; using the platform constants
        is equivalent and deterministic.
        """
        timing = self.kernel.controller.timing
        return (2 * timing.t_cas_ns + 2 * timing.t_rc_ns) / 2.0

    def is_same_bank_pair(self, va_a: int, va_b: int) -> bool:
        """True when the timing signature says same bank, different rows."""
        return self.probe_pair_ns(va_a, va_b) > self.row_conflict_threshold_ns()

    def hammer_group(self, vas: list[int], rounds: int | None = None) -> HammerResult:
        """Hammer an arbitrary group of addresses (many-sided hammering).

        With N same-bank rows in the rotation, every access is a row
        conflict, and — against a TRR-protected module — only
        ``tracker_entries`` of the rows can be clamped per window; the
        rest accumulate unimpeded.  This is the TRRespass-style bypass
        evaluated in ablation A3.
        """
        result = self.kernel.sys_hammer(
            self.pid, vas, self.rounds if rounds is None else rounds, flush=True
        )
        self.total_rounds += result.rounds
        self.total_activations += result.activations
        return result

    def build_bank_group(
        self,
        anchor_va: int,
        span_bytes: int,
        size: int,
        stride_bytes: int | None = None,
    ) -> list[int]:
        """Collect ``size`` same-bank addresses starting from ``anchor_va``.

        Walks candidates at ``stride_bytes`` steps (default: one page) and
        keeps those whose timing against the anchor shows a same-bank row
        conflict.  All addresses must be resident.  Raises if the span
        does not contain enough same-bank rows.
        """
        if size < 2:
            raise ConfigError(f"group size must be >= 2, got {size}")
        stride = stride_bytes or PAGE_SIZE
        if stride <= 0 or stride % PAGE_SIZE:
            raise ConfigError(f"stride must be a positive page multiple, got {stride}")
        group = [anchor_va]
        offset = stride
        while len(group) < size and offset < span_bytes:
            candidate = anchor_va + offset
            if self.is_same_bank_pair(anchor_va, candidate):
                group.append(candidate)
            offset += stride
        if len(group) < size:
            raise ConfigError(
                f"only found {len(group)} same-bank rows in {span_bytes} bytes; "
                f"wanted {size}"
            )
        return group
