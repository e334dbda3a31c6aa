"""Memory-resident S-boxes and the cipher victim process.

This is where the cipher meets the simulated machine.  A
:class:`MemorySBox` is a window onto a few hundred bytes of a task's
address space; the cipher reads its substitution table through it on every
use, so a DRAM disturbance flip in the backing frame becomes a *persistent
cipher fault* — the fault model of Zhang et al.'s Persistent Fault
Analysis, and the end goal of the paper's attack.

:class:`CipherVictim` wraps the whole victim life cycle the paper
describes: a process sharing the attacker's CPU that, at a moment the
attacker influences, makes a small allocation (its table page), stores its
S-box there, and then encrypts on request.  The allocation deliberately
happens in a separate step from process creation so experiments can stage
the page-frame-cache state in between.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.ciphers.aes import AES
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.aes_ttable import AES_TE_TABLES, AesTTable
from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
from repro.ciphers.present import PRESENT_SBOX, Present
from repro.os.kernel import Kernel
from repro.sim.errors import ConfigError, FaultError
from repro.sim.units import PAGE_SIZE

# Default in-page offset of the S-box.  In a real binary the table sits at
# a fixed, attacker-knowable offset of a .rodata/.data page (the ELF layout
# is public); any value works as long as attacker and victim agree.
DEFAULT_TABLE_OFFSET = 0x680


class MemorySBox:
    """A substitution table stored in a simulated task's memory."""

    def __init__(self, kernel: Kernel, pid: int, va: int, size: int):
        if size <= 0 or size > PAGE_SIZE:
            raise ConfigError(f"table size {size} must be in (0, {PAGE_SIZE}]")
        self.kernel = kernel
        self.pid = pid
        self.va = va
        self.size = size
        self._reference: bytes | None = None

    def install(self, table: bytes) -> None:
        """Write the table into memory (first touch allocates the frame)."""
        if len(table) != self.size:
            raise ConfigError(f"table must be {self.size} bytes, got {len(table)}")
        self.kernel.mem_write(self.pid, self.va, table)
        self._reference = bytes(table)

    def read(self) -> bytes:
        """Fetch the table as the cipher would see it right now."""
        return self.kernel.mem_read(self.pid, self.va, self.size)

    def is_intact(self) -> bool:
        """True when the in-memory table still equals what was installed."""
        if self._reference is None:
            raise FaultError("table was never installed")
        return self.read() == self._reference

    def corrupted_entries(self) -> list[tuple[int, int, int]]:
        """(index, expected, actual) for every corrupted table byte."""
        if self._reference is None:
            raise FaultError("table was never installed")
        expected = np.frombuffer(self._reference, dtype=np.uint8)
        actual = np.frombuffer(self.read(), dtype=np.uint8)
        indices = np.flatnonzero(expected != actual)
        return list(
            zip(indices.tolist(), expected[indices].tolist(), actual[indices].tolist())
        )

    @property
    def pfn(self) -> int:
        """Ground-truth frame number of the table page (instrumentation)."""
        return self.kernel.pfn_of(self.pid, self.va)


class CipherVictim:
    """A victim process encrypting with memory-resident tables.

    Three implementations are available:

    * ``"aes"`` — AES-128/192/256 with a 256-byte S-box in one page;
    * ``"present"`` — PRESENT with its 16-byte nibble table in one page;
    * ``"aes_ttable"`` — the classic T-table AES-128: the 4 KiB Te0..Te3
      block fills the victim's *first* table page and the last-round
      S-box sits in a *second* page.  Faulting the S-box requires the
      steered frame to arrive as the victim's second allocation — the
      multi-page steering case ExplFrame handles by staging two frames.
    """

    CIPHERS = ("aes", "present", "aes_ttable")

    def __init__(
        self,
        kernel: Kernel,
        key: bytes,
        cpu: int | None = None,
        cipher: str = "aes",
        table_offset: int = DEFAULT_TABLE_OFFSET,
        name: str = "victim",
    ):
        if cipher not in self.CIPHERS:
            raise ConfigError(f"cipher must be one of {self.CIPHERS}, got {cipher!r}")
        self.kernel = kernel
        self.cipher_kind = cipher
        self.key = bytes(key)
        self.table_offset = table_offset
        self.task = kernel.spawn(name, cpu=cpu)
        self.sbox: MemorySBox | None = None
        self._te_va: int | None = None
        self._context: AES | Present | AesTTable | None = None
        self.encryptions = 0

    @property
    def pid(self) -> int:
        """Victim's pid."""
        return self.task.pid

    def _read_te(self) -> bytes:
        return self.kernel.mem_read(self.pid, self._te_va, 4096)

    def allocate_table_page(self) -> int:
        """The victim's small allocation(s): map and populate its tables.

        Returns the PFN holding the (last-round) S-box — the quantity the
        steering experiments score.  The round keys were already derived
        (clean) when the process started; only the in-memory tables are
        exposed to later faults.
        """
        if self.sbox is not None:
            raise ConfigError("table page already allocated")
        if self.cipher_kind == "aes_ttable":
            base_va = self.kernel.sys_mmap(self.pid, 2 * PAGE_SIZE, name="cipher-tables")
            self._te_va = base_va
            # First touch: the Te block fills page 0 exactly.
            self.kernel.mem_write(self.pid, self._te_va, AES_TE_TABLES)
            # Second touch: the last-round S-box in page 1.
            table_va = base_va + PAGE_SIZE + self.table_offset
            self.sbox = MemorySBox(self.kernel, self.pid, table_va, 256)
            self.sbox.install(AES_SBOX)
            self._context = AesTTable(
                self.key,
                te_provider=self._read_te,
                sbox_provider=self.sbox.read,
            )
            return self.sbox.pfn
        base_va = self.kernel.sys_mmap(self.pid, PAGE_SIZE, name="cipher-table")
        table_va = base_va + self.table_offset
        clean = AES_SBOX if self.cipher_kind == "aes" else PRESENT_SBOX
        self.sbox = MemorySBox(self.kernel, self.pid, table_va, len(clean))
        self.sbox.install(clean)
        if self.cipher_kind == "aes":
            self._context = AES(self.key, sbox_provider=self.sbox.read)
        else:
            self._context = Present(self.key, sbox_provider=self.sbox.read)
        return self.sbox.pfn

    def _require_ready(self):
        if self.sbox is None or self._context is None:
            raise ConfigError("victim has not allocated its table page yet")

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt one block, reading the table from memory."""
        self._require_ready()
        self.encryptions += 1
        return self._context.encrypt_block(plaintext)

    def fetch_tables(self) -> None:
        """:meth:`encrypt`'s table fetches, in order, without its (pure) rounds."""
        self._require_ready()
        self.encryptions += 1
        if self._te_va is not None:
            self._read_te()
        self.sbox.read()

    def encrypt_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Encrypt ``count`` random blocks (AES-128 variants), vectorised.

        The one-batch case of :meth:`encrypt_batches`: one plaintext draw,
        one table fetch for the whole batch (valid while no new fault lands
        mid-batch, which the experiment protocols ensure by hammering only
        between batches), then the batch kernel.
        """
        (ciphertexts,) = self.encrypt_batches(1, count, rng)
        return ciphertexts

    def encrypt_batches(
        self, batches: int, count: int, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        """Yield ``batches`` batches of ``count`` random blocks' ciphertexts.

        Each yielded batch has the simulated effects of one
        :meth:`encrypt_batch` call, made when the batch is taken: its
        ``count`` encryptions and its table fetch (the Te block and its
        clean check for the T-table victim, then the S-box).  The host work
        is done ahead: one plaintext draw for every batch and one kernel
        call under the first fetched S-box.  A later fetch that returns
        other bytes re-encrypts the remaining batches under them.  For the
        T-table victim the kernel runs the clean Te block's inner rounds
        and the fetched S-box in the last round only; a faulty Te block
        sends its batch to the exact scalar implementation.

        A consumer may stop early (``close()`` the generator, or let it be
        collected): the generator state of ``rng`` is then rewound to the
        draws of the batches taken, and an untaken batch has no effect.
        Invalid requests raise :class:`ConfigError` before any draw, fetch
        or count.
        """
        self._require_ready()
        if self.cipher_kind == "present":
            raise ConfigError("batch encryption is implemented for AES only")
        if len(self.key) != 16:
            raise ConfigError(
                f"batch encryption is AES-128 only; key of {len(self.key)} bytes"
            )
        if batches <= 0 or count <= 0:
            raise ConfigError(
                f"batches and count must be positive, got {batches} and {count}"
            )
        return self._encrypt_ahead(batches, count, rng)

    def _encrypt_ahead(
        self, batches: int, count: int, rng: np.random.Generator
    ) -> Iterator[np.ndarray]:
        # One (batches * count, 16) draw equals ``batches`` draws of
        # (count, 16): the same plaintexts and the same generator state, as
        # a block's 16 bytes fill whole 32-bit draws.
        saved = rng.bit_generator.state
        plaintexts = random_plaintexts(batches * count, rng).reshape(batches, count, 16)
        # The T-table victim's inner rounds read its Te block, which is
        # checked clean before each batch: only its last round reads the
        # fetched S-box.  The S-box victim reads it in every round.
        inner_sbox = AES_SBOX if self._te_va is not None else None
        started = 0
        # ciphertexts[i - first] is batch i encrypted under encrypted_under.
        encrypted_under = ciphertexts = first = None
        try:
            for index in range(batches):
                started += 1
                self.encryptions += count
                if self._te_va is not None and self._read_te() != AES_TE_TABLES:
                    yield np.frombuffer(
                        b"".join(
                            self._context.encrypt_block(bytes(p))
                            for p in plaintexts[index]
                        ),
                        dtype=np.uint8,
                    ).reshape(-1, 16)
                    continue
                sbox = self.sbox.read()
                if sbox != encrypted_under:
                    ciphertexts = aes128_encrypt_batch(
                        plaintexts[index:].reshape(-1, 16), self.key, sbox,
                        inner_sbox=inner_sbox,
                    ).reshape(-1, count, 16)
                    encrypted_under, first = sbox, index
                yield ciphertexts[index - first]
        finally:
            if started < batches:
                rng.bit_generator.state = saved
                random_plaintexts(started * count, rng)

    def table_is_faulty(self) -> bool:
        """True once the in-memory table differs from the clean one."""
        self._require_ready()
        return not self.sbox.is_intact()
