"""Memory-resident S-boxes and the cipher victim lifecycle."""

import numpy as np
import pytest

from repro.ciphers.aes import AES
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES
from repro.ciphers.present import PRESENT_SBOX, Present
from repro.ciphers.table_memory import CipherVictim, MemorySBox
from repro.sim.errors import ConfigError, FaultError
from repro.sim.units import PAGE_SIZE
from tests.cipher_references import (
    aes_encrypt_reference,
    present_encrypt_reference,
    ttable_encrypt_reference,
)


@pytest.fixture
def kernel(small_machine):
    return small_machine.kernel


class TestMemorySBox:
    def make_sbox(self, kernel, size=256):
        task = kernel.spawn("holder", cpu=0)
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        return MemorySBox(kernel, task.pid, va + 0x100, size)

    def test_install_read_round_trip(self, kernel):
        sbox = self.make_sbox(kernel)
        sbox.install(AES_SBOX)
        assert sbox.read() == AES_SBOX
        assert sbox.is_intact()

    def test_corruption_detected(self, kernel):
        sbox = self.make_sbox(kernel)
        sbox.install(AES_SBOX)
        pa = kernel.resolve_pa(sbox.pid, sbox.va + 5)
        kernel.controller.memory.flip_bit(pa, 3)
        assert not sbox.is_intact()
        ((index, expected, actual),) = sbox.corrupted_entries()
        assert index == 5
        assert actual == expected ^ 8

    def test_intact_before_install_raises(self, kernel):
        sbox = self.make_sbox(kernel)
        with pytest.raises(FaultError):
            sbox.is_intact()

    def test_wrong_table_size_rejected(self, kernel):
        sbox = self.make_sbox(kernel)
        with pytest.raises(ConfigError):
            sbox.install(bytes(16))

    def test_size_bounds(self, kernel):
        task = kernel.spawn("x", cpu=0)
        va = kernel.sys_mmap(task.pid, PAGE_SIZE)
        with pytest.raises(ConfigError):
            MemorySBox(kernel, task.pid, va, 0)
        with pytest.raises(ConfigError):
            MemorySBox(kernel, task.pid, va, PAGE_SIZE + 1)

    def test_pfn_instrumentation(self, kernel):
        sbox = self.make_sbox(kernel)
        sbox.install(AES_SBOX)
        assert sbox.pfn == kernel.pfn_of(sbox.pid, sbox.va)


class TestCipherVictim:
    def test_lifecycle(self, kernel):
        victim = CipherVictim(kernel, bytes(16), cpu=0)
        pfn = victim.allocate_table_page()
        assert pfn == victim.sbox.pfn
        assert not victim.table_is_faulty()

    def test_encrypt_matches_reference_aes(self, kernel):
        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0)
        victim.allocate_table_page()
        pt = b"0123456789abcdef"
        assert victim.encrypt(pt) == AES(key).encrypt_block(pt)
        assert victim.encryptions == 1

    def test_encrypt_before_allocation_rejected(self, kernel):
        victim = CipherVictim(kernel, bytes(16), cpu=0)
        with pytest.raises(ConfigError):
            victim.encrypt(bytes(16))

    def test_double_allocation_rejected(self, kernel):
        victim = CipherVictim(kernel, bytes(16), cpu=0)
        victim.allocate_table_page()
        with pytest.raises(ConfigError):
            victim.allocate_table_page()

    def test_batch_matches_reference(self, kernel):
        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0)
        victim.allocate_table_page()
        rng = np.random.default_rng(0)
        cts = victim.encrypt_batch(8, rng)
        # Same rng seed reproduces the plaintexts for the reference check.
        from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts

        pts = random_plaintexts(8, np.random.default_rng(0))
        assert np.array_equal(cts, aes128_encrypt_batch(pts, key))

    def test_memory_fault_becomes_persistent_cipher_fault(self, kernel):
        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0)
        victim.allocate_table_page()
        pa = kernel.resolve_pa(victim.pid, victim.sbox.va + 0x42)
        kernel.controller.memory.flip_bit(pa, 0)
        assert victim.table_is_faulty()
        pt = bytes(16)
        faulty_ct = victim.encrypt(pt)
        assert faulty_ct != AES(key).encrypt_block(pt)
        # The fault is persistent: a second encryption sees the same table.
        assert victim.encrypt(pt) == faulty_ct

    def test_present_victim(self, kernel):
        key = bytes(range(10))
        victim = CipherVictim(kernel, key, cpu=0, cipher="present")
        victim.allocate_table_page()
        pt = bytes(8)
        assert victim.encrypt(pt) == Present(key).encrypt_block(pt)

    def test_present_batch_unsupported(self, kernel):
        victim = CipherVictim(kernel, bytes(10), cpu=0, cipher="present")
        victim.allocate_table_page()
        with pytest.raises(ConfigError):
            victim.encrypt_batch(4, np.random.default_rng(0))

    def test_unknown_cipher_rejected(self, kernel):
        with pytest.raises(ConfigError):
            CipherVictim(kernel, bytes(16), cipher="des")

    @pytest.mark.parametrize(
        "key_bytes, batches, count", [(24, 1, 4), (32, 2, 4), (16, 0, 4), (16, 2, 0)]
    )
    def test_refused_batch_has_no_effect(self, kernel, key_bytes, batches, count):
        """The batch path is AES-128 only (a 24- or 32-byte AES victim
        encrypts block by block); a refused request draws, fetches and
        counts nothing."""
        victim = CipherVictim(kernel, bytes(key_bytes), cpu=0)
        victim.allocate_table_page()
        rng = np.random.default_rng(0)

        def effects():
            return (
                rng.bit_generator.state,
                victim.encryptions,
                kernel.clock.now_ns,
                (kernel.cache.hits, kernel.cache.misses, kernel.cache.evictions),
                kernel.controller.stats(),
            )

        before = effects()
        with pytest.raises(ConfigError):
            victim.encrypt_batches(batches, count, rng)
        if batches == 1:
            with pytest.raises(ConfigError, match="AES-128"):
                victim.encrypt_batch(count, rng)
        assert effects() == before


class TestTTableVictim:
    def test_two_pages_allocated(self, kernel):
        victim = CipherVictim(kernel, bytes(16), cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        assert victim.task.mm.rss_pages == 2

    def test_sbox_is_in_second_page(self, kernel):
        victim = CipherVictim(kernel, bytes(16), cpu=0, cipher="aes_ttable")
        sbox_pfn = victim.allocate_table_page()
        te_pfn = kernel.pfn_of(victim.pid, victim._te_va)
        assert sbox_pfn != te_pfn
        assert sbox_pfn == victim.sbox.pfn

    def test_encrypts_like_reference(self, kernel):
        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        pt = b"0123456789abcdef"
        assert victim.encrypt(pt) == AES(key).encrypt_block(pt)

    def test_batch_matches_scalar(self, kernel):
        import numpy as np

        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        cts = victim.encrypt_batch(4, np.random.default_rng(0))
        from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts

        pts = random_plaintexts(4, np.random.default_rng(0))
        assert np.array_equal(cts, aes128_encrypt_batch(pts, key))

    def test_sbox_fault_is_persistent(self, kernel):
        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        pa = kernel.resolve_pa(victim.pid, victim.sbox.va + 0x42)
        kernel.controller.memory.flip_bit(pa, 0)
        assert victim.table_is_faulty()
        # Only the last round consults the S-box, so a single block may
        # miss the corrupted entry; over several blocks some must differ.
        reference = AES(key)
        diffs = sum(
            victim.encrypt(bytes([i, 31 * i % 256] * 8))
            != reference.encrypt_block(bytes([i, 31 * i % 256] * 8))
            for i in range(32)
        )
        assert diffs > 0

    def test_te_fault_uses_scalar_fallback_in_batch(self, kernel):
        import numpy as np

        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        pa = kernel.resolve_pa(victim.pid, victim._te_va + 4)
        kernel.controller.memory.flip_bit(pa, 1)
        cts = victim.encrypt_batch(4, np.random.default_rng(1))
        # Fallback path: each batch row equals the scalar T-table result.
        from repro.ciphers.batch import random_plaintexts

        pts = random_plaintexts(4, np.random.default_rng(1))
        for i in range(4):
            assert bytes(cts[i]) == victim._context.encrypt_block(bytes(pts[i]))

    def test_sbox_fault_batch_is_the_ttable_cipher(self, kernel):
        # The inner rounds read the clean Te block and only the last round
        # reads the faulty S-box, in the batch path as in the scalar cipher.
        from repro.ciphers.batch import random_plaintexts

        key = bytes(range(16))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        pa = kernel.resolve_pa(victim.pid, victim.sbox.va + 0x42)
        kernel.controller.memory.flip_bit(pa, 0)
        cts = victim.encrypt_batch(64, np.random.default_rng(3))
        pts = random_plaintexts(64, np.random.default_rng(3))
        assert [bytes(ct) for ct in cts] == [
            victim._context.encrypt_block(bytes(pt)) for pt in pts
        ]


class TestNoStaleTables:
    """A flip after the first block reaches the very next block: the
    cipher's derived tables are cached by content, never by page."""

    @staticmethod
    def _flip(kernel, victim, va, bit):
        kernel.controller.memory.flip_bit(kernel.resolve_pa(victim.pid, va), bit)

    def test_aes(self, kernel):
        key = bytes(range(16))
        pt = bytes(range(100, 116))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes")
        victim.allocate_table_page()
        assert victim.encrypt(pt) == aes_encrypt_reference(key, pt)
        # The entry the first SubBytes reads for byte 0.
        index = pt[0] ^ key[0]
        self._flip(kernel, victim, victim.sbox.va + index, 2)
        faulty = bytearray(AES_SBOX)
        faulty[index] ^= 1 << 2
        assert victim.sbox.read() == bytes(faulty)
        ct = victim.encrypt(pt)
        assert ct == aes_encrypt_reference(key, pt, bytes(faulty))
        assert ct != aes_encrypt_reference(key, pt)

    def test_present(self, kernel):
        key = bytes(range(10))
        pt = bytes(range(8))
        victim = CipherVictim(kernel, key, cpu=0, cipher="present")
        victim.allocate_table_page()
        assert victim.encrypt(pt) == present_encrypt_reference(key, pt, PRESENT_SBOX)
        # The entry the first S-layer reads for nibble 0.
        index = (int.from_bytes(pt, "big") ^ Present(key).round_keys[0]) & 0xF
        self._flip(kernel, victim, victim.sbox.va + index, 1)
        faulty = bytearray(PRESENT_SBOX)
        faulty[index] ^= 1 << 1
        ct = victim.encrypt(pt)
        assert ct == present_encrypt_reference(key, pt, bytes(faulty))
        assert ct != present_encrypt_reference(key, pt, PRESENT_SBOX)

    def test_aes_ttable(self, kernel):
        key = bytes(range(16))
        pt = bytes(range(100, 116))
        victim = CipherVictim(kernel, key, cpu=0, cipher="aes_ttable")
        victim.allocate_table_page()
        assert victim.encrypt(pt) == ttable_encrypt_reference(key, pt, AES_TE_TABLES)
        # A last-round S-box flip, then a Te0 flip in the word the first
        # round reads for column 0: each shows on the next block.
        self._flip(kernel, victim, victim.sbox.va + 0x42, 0)
        sbox = bytearray(AES_SBOX)
        sbox[0x42] ^= 1
        assert victim.encrypt(pt) == ttable_encrypt_reference(
            key, pt, AES_TE_TABLES, bytes(sbox)
        )
        te_offset = 4 * (pt[0] ^ key[0])
        self._flip(kernel, victim, victim._te_va + te_offset, 5)
        te = bytearray(AES_TE_TABLES)
        te[te_offset] ^= 1 << 5
        ct = victim.encrypt(pt)
        assert ct == ttable_encrypt_reference(key, pt, bytes(te), bytes(sbox))
        assert ct != ttable_encrypt_reference(key, pt, AES_TE_TABLES, bytes(sbox))
