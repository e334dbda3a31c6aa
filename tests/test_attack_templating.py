"""Templating campaigns: yield, verification, template filtering."""

import pytest

from repro.attack.hammer import CHUNK_PAGES
from repro.attack.templating import Templator, TemplatorConfig
from repro.core.results import FlipTemplate
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE

FAST = TemplatorConfig(buffer_bytes=2 * MIB, batch_pairs=8)


@pytest.fixture
def vulnerable_templator(vulnerable_machine):
    task = vulnerable_machine.kernel.spawn("attacker", cpu=0)
    return Templator(vulnerable_machine.kernel, task.pid, FAST)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TemplatorConfig(buffer_bytes=100)
        with pytest.raises(ConfigError):
            TemplatorConfig(batch_pairs=0)


class TestScanForFlips:
    """The chunked numpy scan lists exactly what a byte-by-byte loop lists."""

    PAGES = CHUNK_PAGES + 4  # two chunks, the second one short

    @staticmethod
    def _bytewise(kernel, pid, buffer_va, pages, pattern):
        found = []
        for index in range(pages):
            page_va = buffer_va + index * PAGE_SIZE
            data = kernel.mem_read(pid, page_va, PAGE_SIZE)
            for offset, got in enumerate(data):
                if got == pattern:
                    continue
                for bit in range(8):
                    if (got ^ pattern) & (1 << bit):
                        found.append((page_va, offset, bit, bool(got & (1 << bit))))
        return found

    @pytest.mark.parametrize("pattern", [0x00, 0xFF, 0x5A])
    def test_matches_bytewise_loop(self, small_machine, pattern):
        kernel = small_machine.kernel
        pid = kernel.spawn("attacker", cpu=0).pid
        size = self.PAGES * PAGE_SIZE
        templator = Templator(kernel, pid, TemplatorConfig(buffer_bytes=size))
        va = templator.prepare_buffer()
        kernel.mem_write(pid, va, bytes([pattern]) * size)
        # Page and chunk edges, one 8-byte word with two changed bytes,
        # multi-bit bytes and untouched pages.
        chunk = CHUNK_PAGES * PAGE_SIZE
        for offset, value in [(0, pattern ^ 0x81), (PAGE_SIZE - 1, pattern ^ 0xFF),
                              (PAGE_SIZE + 7, pattern ^ 0x10), (PAGE_SIZE + 8, pattern ^ 0x06),
                              (PAGE_SIZE + 10, pattern ^ 0x20),
                              (3 * PAGE_SIZE + 2048, pattern ^ 0x01),
                              (chunk - 1, pattern ^ 0x80), (chunk, pattern ^ 0x02),
                              (size - 1, pattern ^ 0x40)]:
            kernel.mem_write(pid, va + offset, bytes([value]))
        found = templator._scan_for_flips(pattern)
        assert found == self._bytewise(kernel, pid, va, self.PAGES, pattern)
        assert len(found) == 2 + 8 + 1 + 2 + 1 + 1 + 1 + 1 + 1


class TestCampaign:
    def test_finds_flips_on_vulnerable_module(self, vulnerable_templator):
        result = vulnerable_templator.run()
        assert result.flips_found > 0
        assert result.pairs_hammered > 0
        assert result.elapsed_ns > 0

    def test_no_flips_on_invulnerable_module(self, invulnerable_machine):
        task = invulnerable_machine.kernel.spawn("attacker", cpu=0)
        templator = Templator(invulnerable_machine.kernel, task.pid, FAST)
        result = templator.run()
        assert result.flips_found == 0

    def test_templates_are_deduplicated(self, vulnerable_templator):
        result = vulnerable_templator.run()
        keys = [(t.page_va, t.page_offset, t.bit) for t in result.templates]
        assert len(keys) == len(set(keys))

    def test_templates_lie_in_buffer(self, vulnerable_templator):
        result = vulnerable_templator.run()
        base = vulnerable_templator.buffer_va
        for template in result.templates:
            assert base <= template.page_va < base + FAST.buffer_bytes
            assert 0 <= template.page_offset < PAGE_SIZE
            assert 0 <= template.bit <= 7

    def test_templates_are_reinducible(self, vulnerable_templator):
        """The core repeatability claim: re-hammer the aggressors, same flip."""
        kernel = vulnerable_templator.kernel
        pid = vulnerable_templator.pid
        result = vulnerable_templator.run()
        assert result.templates
        template = result.templates[0]
        pattern = 0x00 if template.flips_to_one else 0xFF
        kernel.mem_write(pid, template.byte_va, bytes([pattern]))
        vulnerable_templator.hammerer.hammer_pair(*template.aggressor_vas)
        after = kernel.mem_read(pid, template.byte_va, 1)[0]
        assert bool(after & (1 << template.bit)) == template.flips_to_one

    def test_flips_per_gib_normalisation(self, vulnerable_templator):
        result = vulnerable_templator.run()
        expected = result.flips_found / (FAST.buffer_bytes / (1024**3))
        assert abs(result.flips_per_gib - expected) < 1e-6

    def test_discover_requires_buffer(self, vulnerable_machine):
        task = vulnerable_machine.kernel.spawn("attacker3", cpu=0)
        templator = Templator(vulnerable_machine.kernel, task.pid, FAST)
        with pytest.raises(ConfigError):
            templator.discover_pairs()


class TestRangeFilter:
    def make_template(self, page_va=0x1000_0000, offset=0x700, aggr=(0x2000_0000, 0x2004_0000)):
        return FlipTemplate(
            page_va=page_va,
            page_offset=offset,
            bit=0,
            flips_to_one=True,
            aggressor_vas=aggr,
        )

    def test_keeps_in_range(self, vulnerable_templator):
        templates = [self.make_template(offset=0x700), self.make_template(offset=0x100)]
        kept = vulnerable_templator.templates_hitting_range(templates, 0x680, 0x780)
        assert kept == [templates[0]]

    def test_excludes_aggressor_pages(self, vulnerable_templator):
        bad = self.make_template(page_va=0x2000_0000)  # its own aggressor page
        kept = vulnerable_templator.templates_hitting_range([bad], 0, PAGE_SIZE)
        assert kept == []
