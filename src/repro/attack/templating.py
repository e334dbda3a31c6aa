"""Rowhammer templating: find repeatable flips in the attacker's buffer.

The unprivileged attacker allocates a large buffer (paper Section VI:
"first allocates a large memory space ... and starts the Rowhammer
process"), arms it with a data pattern, hammers same-bank aggressor pairs
and scans her own memory for bits that flipped.  Each confirmed flip is a
*template*: a (page, offset, bit, direction) she can later re-induce on
demand — the repeatability the paper measures ("high probability of
getting bit flips in the same location when conducting Rowhammer on the
same virtual address space").

Aggressor pair discovery is mapping-agnostic: for each base row the
templator probes a small family of candidate partners (the row-distance
target plus every bank-field adjustment) and keeps the ones whose timing
shows a same-bank row conflict.  This works unchanged under both the
linear and the XOR-folded controller mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.hammer import CHUNK_PAGES, Hammerer
from repro.core.results import FlipTemplate, TemplatingResult
from repro.os.kernel import Kernel
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE


#: Hammer rounds per aggressor pair, the paper's templating intensity.
TEMPLATE_ROUNDS = 650_000
#: Aggressors sit this many rows apart (2 = double-sided hammering).
ROW_DISTANCE = 2
#: Data patterns the buffer is filled with, one templating pass each:
#: 0xFF arms the 1->0 cells, 0x00 the 0->1 anti-cells.
PATTERNS = (0xFF, 0x00)


@dataclass(frozen=True)
class TemplatorConfig:
    """Knobs of a templating campaign."""

    buffer_bytes: int = 8 * MIB
    batch_pairs: int = 16  # pairs hammered between buffer scans

    def __post_init__(self) -> None:
        if self.buffer_bytes < PAGE_SIZE:
            raise ConfigError("buffer must be at least one page")
        if self.batch_pairs <= 0:
            raise ConfigError("batch_pairs must be positive")


class Templator:
    """Runs templating campaigns for one attacker task."""

    def __init__(self, kernel: Kernel, pid: int, config: TemplatorConfig | None = None):
        self.kernel = kernel
        self.pid = pid
        self.config = config or TemplatorConfig()
        self.hammerer = Hammerer(kernel, pid, rounds=TEMPLATE_ROUNDS)
        # The attacker assumes standard geometry constants (row size and
        # bank count are public per DRAM generation); the timing probe
        # corrects any wrong guess.
        geometry = kernel.controller.geometry
        self._row_stride = geometry.banks_per_rank * geometry.row_bytes
        self._bank_step = geometry.row_bytes
        self._banks = geometry.banks_per_rank
        self.buffer_va: int | None = None
        self.buffer_pages = 0

    # -- setup -------------------------------------------------------------------

    def prepare_buffer(self) -> int:
        """Map the templating buffer; returns its base VA."""
        self.buffer_va = self.hammerer.map_buffer(self.config.buffer_bytes, "template")
        self.buffer_pages = self.config.buffer_bytes // PAGE_SIZE
        return self.buffer_va

    # -- pair discovery ----------------------------------------------------------

    def discover_pairs(self) -> list[tuple[int, int]]:
        """Timing-confirmed same-bank aggressor pairs across the buffer."""
        if self.buffer_va is None:
            raise ConfigError("call prepare_buffer() first")
        span = self.config.buffer_bytes
        target = ROW_DISTANCE * self._row_stride
        pairs: list[tuple[int, int]] = []
        for base in range(0, span - target - self._banks * self._bank_step, self._row_stride):
            va_a = self.buffer_va + base
            partner_group = self.buffer_va + base + target
            for k in range(self._banks):
                va_b = partner_group + k * self._bank_step
                if va_b >= self.buffer_va + span:
                    break
                if self.hammerer.is_same_bank_pair(va_a, va_b):
                    pairs.append((va_a, va_b))
                    break
        return pairs

    # -- scanning ------------------------------------------------------------------

    def _scan_for_flips(self, pattern: int) -> list[tuple[int, int, int, bool]]:
        """Find (page_va, offset, bit, flips_to_one) deviations from pattern.

        The buffer is read in chunks of :data:`CHUNK_PAGES` pages, one
        ``mem_read`` each (the kernel serves each chunk as one stream), and
        each chunk is compared against the pattern in one numpy pass.
        """
        found = []
        for index in range(0, self.buffer_pages, CHUNK_PAGES):
            chunk_va = self.buffer_va + index * PAGE_SIZE
            size = min(CHUNK_PAGES, self.buffer_pages - index) * PAGE_SIZE
            found += self._flips_in(
                chunk_va, self.kernel.mem_read(self.pid, chunk_va, size), pattern
            )
        return found

    @staticmethod
    def _flips_in(va: int, data: bytes, pattern: int) -> list[tuple[int, int, int, bool]]:
        """The (page_va, offset, bit, flips_to_one) of ``data`` (whole pages), read at ``va``.

        One compare per 8-byte word finds the words that differ from the
        pattern; only their bytes are unpacked into bits.
        """
        words = np.frombuffer(data, dtype=np.uint64)
        changed = np.flatnonzero(words != np.uint64(pattern * 0x0101010101010101))
        if not changed.size:
            return []
        got = np.frombuffer(data, dtype=np.uint8)
        offsets = (changed[:, None] * 8 + np.arange(8)).ravel()
        diff = got[offsets] ^ pattern
        # One row of 8 little-endian bit flags per byte of a changed word;
        # nonzero walks it row-major, so the output stays (offset, bit)
        # ascending, and unchanged bytes contribute no flags.
        rows, bits = np.nonzero(np.unpackbits(diff[:, None], axis=1, bitorder="little"))
        changed = offsets[rows]
        ones = (got[changed] >> bits) & 1
        return [
            (va + offset - offset % PAGE_SIZE, offset % PAGE_SIZE, bit, bool(one))
            for offset, bit, one in zip(changed.tolist(), bits.tolist(), ones.tolist())
        ]

    def _restore(self, page_va: int, offset: int, pattern: int) -> None:
        self.kernel.mem_write(self.pid, page_va + offset, bytes([pattern]))

    def _attribute_pair(
        self,
        flip_va: int,
        batch: list[tuple[int, int]],
    ) -> tuple[int, int]:
        """The batch pair whose aggressors sit closest to the flipped byte."""
        return min(
            batch,
            key=lambda pair: min(abs(flip_va - pair[0]), abs(flip_va - pair[1])),
        )

    def _verify(
        self,
        page_va: int,
        offset: int,
        bit: int,
        pattern: int,
        pair: tuple[int, int],
    ) -> bool:
        """Re-induce the flip with one pair to confirm the template."""
        self._restore(page_va, offset, pattern)
        self.hammerer.hammer_pair(*pair)
        data = self.kernel.mem_read(self.pid, page_va + offset, 1)
        flipped = bool((data[0] ^ pattern) & (1 << bit))
        return flipped

    # -- the campaign -------------------------------------------------------------

    def run(self) -> TemplatingResult:
        """Full templating campaign; returns the templates found."""
        if self.buffer_va is None:
            self.prepare_buffer()
        start_ns = self.kernel.clock.now_ns
        seen: set[tuple[int, int, int]] = set()
        templates: list[FlipTemplate] = []
        pairs_hammered = 0
        for pattern in PATTERNS:
            self.hammerer.fill(self.buffer_va, self.buffer_pages, pattern)
            pairs = self.discover_pairs()
            for start in range(0, len(pairs), self.config.batch_pairs):
                batch = pairs[start : start + self.config.batch_pairs]
                for va_a, va_b in batch:
                    self.hammerer.hammer_pair(va_a, va_b)
                    pairs_hammered += 1
                for page_va, offset, bit, flips_to_one in self._scan_for_flips(pattern):
                    key = (page_va, offset, bit)
                    if key in seen:
                        self._restore(page_va, offset, pattern)
                        continue
                    pair = self._attribute_pair(page_va + offset, batch)
                    if not self._verify(page_va, offset, bit, pattern, pair):
                        # Not reproducible with the attributed pair; try
                        # the rest of the batch before giving up.
                        confirmed = False
                        for other in batch:
                            if other == pair:
                                continue
                            if self._verify(page_va, offset, bit, pattern, other):
                                pair = other
                                confirmed = True
                                break
                        if not confirmed:
                            self._restore(page_va, offset, pattern)
                            continue
                    seen.add(key)
                    templates.append(
                        FlipTemplate(
                            page_va=page_va,
                            page_offset=offset,
                            bit=bit,
                            flips_to_one=flips_to_one,
                            aggressor_vas=pair,
                        )
                    )
                    self._restore(page_va, offset, pattern)
        return TemplatingResult(
            buffer_bytes=self.config.buffer_bytes,
            rounds_per_pair=TEMPLATE_ROUNDS,
            pairs_hammered=pairs_hammered,
            templates=templates,
            elapsed_ns=self.kernel.clock.now_ns - start_ns,
        )

    # -- template selection helpers --------------------------------------------------

    def templates_hitting_range(
        self,
        templates: list[FlipTemplate],
        offset_start: int,
        offset_end: int,
    ) -> list[FlipTemplate]:
        """Templates whose flip lands in [offset_start, offset_end) in-page.

        Also excludes templates living in one of their own aggressor pages
        (unmapping those would destroy the aggressors).
        """
        usable = []
        for template in templates:
            if not offset_start <= template.page_offset < offset_end:
                continue
            aggressor_pages = {va & ~(PAGE_SIZE - 1) for va in template.aggressor_vas}
            if template.page_va in aggressor_pages:
                continue
            usable.append(template)
        return usable
