"""Machine assembly, config presets and whole-machine determinism."""

import pytest

from repro.core import Machine, MachineConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.errors import ConfigError
from repro.sim.units import MIB, PAGE_SIZE


class TestConfig:
    def test_defaults(self):
        config = MachineConfig()
        assert config.num_cpus == 2
        assert config.mapping == "xor"

    def test_presets(self):
        assert MachineConfig.small().geometry.total_bytes == 64 * MIB
        assert MachineConfig.vulnerable().flip_model.weak_cells_per_row_mean > 0.1
        assert MachineConfig.invulnerable().flip_model.weak_cells_per_row_mean == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_cpus=0)
        with pytest.raises(ConfigError):
            MachineConfig(mapping="weird")


class TestAssembly:
    def test_components_wired(self, small_machine):
        machine = small_machine
        assert machine.kernel.allocator is machine.allocator
        assert machine.kernel.controller is machine.controller
        assert machine.allocator.node is machine.node
        assert machine.controller.memory.total_bytes == machine.config.geometry.total_bytes

    def test_frame_table_covers_memory(self, small_machine):
        expected = small_machine.config.geometry.total_bytes // PAGE_SIZE
        assert len(small_machine.frames) == expected

    def test_num_cpus(self, small_machine):
        assert small_machine.num_cpus == 2
        assert small_machine.scheduler.num_cpus == 2

    def test_stats_sections(self, small_machine):
        stats = small_machine.stats()
        for key in ("dram", "trr", "ecc", "allocator", "cache", "kernel", "clock_ns"):
            assert key in stats
        assert stats["trr"]["neighbor_refreshes"] == 0  # disabled by default
        assert stats["ecc"]["corrected_bits"] == 0

    def test_repr(self, small_machine):
        assert "seed=0" in repr(small_machine)


class TestDeterminism:
    def _trace(self, machine):
        kernel = machine.kernel
        task = kernel.spawn("t", cpu=0)
        va = kernel.sys_mmap(task.pid, 16 * PAGE_SIZE)
        pfns = []
        for index in range(16):
            kernel.mem_write(task.pid, va + index * PAGE_SIZE, bytes([index]))
            pfns.append(kernel.pfn_of(task.pid, va + index * PAGE_SIZE))
        return pfns

    def test_same_seed_same_behaviour(self):
        a = self._trace(Machine(MachineConfig.small(seed=42)))
        b = self._trace(Machine(MachineConfig.small(seed=42)))
        assert a == b

    def test_same_seed_same_weak_cells(self):
        a = Machine(MachineConfig.vulnerable(seed=4, ))
        b = Machine(MachineConfig.vulnerable(seed=4))
        for row in range(50):
            assert a.controller.weak_cells.cells_in_row(0, row) == (
                b.controller.weak_cells.cells_in_row(0, row)
            )

    def test_different_seed_different_weak_cells(self):
        a = Machine(MachineConfig.vulnerable(seed=1))
        b = Machine(MachineConfig.vulnerable(seed=2))
        cells_a = [a.controller.weak_cells.cells_in_row(0, r) for r in range(100)]
        cells_b = [b.controller.weak_cells.cells_in_row(0, r) for r in range(100)]
        assert cells_a != cells_b


class TestMappingChoice:
    def test_linear_mapping_machine_works(self):
        machine = Machine(
            MachineConfig(seed=0, geometry=DRAMGeometry.small(), mapping="linear")
        )
        kernel = machine.kernel
        task = kernel.spawn("t", cpu=0)
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        kernel.mem_write(task.pid, va, b"x")
        assert kernel.mem_read(task.pid, va, 1) == b"x"
