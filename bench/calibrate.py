"""The host's speed while a rep runs, from a fixed kernel timed inside it.

A shared host's speed swings by 1.5-3x over seconds to minutes as other
tenants load it, and it slows the ``repro`` simulation and any other
Python code alike.  :class:`InBand` therefore runs a slice of a fixed
kernel every :data:`INTERVAL_S` of host time, from a ``SIGALRM`` handler,
inside the rep's own process while ``repro`` runs: a miniature of the
attacker load/store path (page-table lookup, set-associative LRU cache,
bank/row mapping, row-buffer check, numpy frame read) that lives here and
never changes with ``repro``.

The rep times the program on :meth:`InBand.clock`, which leaves the
slices out, and reports the slices' mean duration as ``ref_s``.  The
harness reports every time in *calibrated seconds*: program seconds times
:data:`NOMINAL_S` / ``ref_s``, so a rep that ran while the host was 2x
slow reads as it would have at the nominal speed.  A change to ``repro``
moves calibrated seconds as it moves host seconds, since the kernel runs
none of it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: A slice's duration at the speed calibrated seconds refer to, about its
#: mean on the 2-CPU host the baseline was measured on.
NOMINAL_S = 0.004

#: Host seconds between slices: about 70 samples in a 7 s rep, at a cost
#: of about 4% of its host time, which the program clock leaves out.
INTERVAL_S = 0.1

_SLICE = 1500
_WARMUP_SLICES = 20
_SETS, _WAYS = 1024, 8


class _Cache:
    def __init__(self):
        self.sets = [[] for _ in range(_SETS)]

    def access(self, addr: int) -> bool:
        line = addr >> 6
        ways = self.sets[line & (_SETS - 1)]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        if len(ways) >= _WAYS:
            ways.pop(0)
        ways.append(line)
        return False


class _Dram:
    def __init__(self):
        self.open_rows: dict[int, int] = {}
        self.activations = 0
        self.frames = np.zeros((512, 4096), dtype=np.uint8)

    def access(self, addr: int) -> int:
        bank, row = ((addr >> 13) ^ (addr >> 17)) & 15, addr >> 17
        if self.open_rows.get(bank) != row:
            self.open_rows[bank] = row
            self.activations += 1
        return int(self.frames[(addr >> 12) & 511, addr & 4095])


class InBand:
    """Kernel slices on a timer while the ``with`` block runs.

    Only the main thread of a process may use it (``SIGALRM``).
    """

    def __init__(self):
        self._cache, self._dram = _Cache(), _Dram()
        self._page_table = {vpn: (vpn * 7919) & 0x3FFFF for vpn in range(4096)}
        self._x = 0
        #: Host seconds spent in slices, and their number.
        self.spent = 0.0
        self.slices = 0
        self._previous = None

    def _slice(self, *_signal) -> None:
        start = time.perf_counter()
        cache, dram, page_table, x = self._cache, self._dram, self._page_table, self._x
        for _ in range(_SLICE):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            va = x & 0xFFFFFF
            pa = (page_table[(va >> 12) & 4095] << 12) | (va & 4095)
            if not cache.access(pa):
                dram.access(pa)
        self._x = x
        self.spent += time.perf_counter() - start
        self.slices += 1

    def __enter__(self) -> InBand:
        for _ in range(_WARMUP_SLICES):
            self._slice()
        self.spent, self.slices = 0.0, 0
        # One slice up front, so even a rep shorter than the interval has one.
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Host seconds, less the time spent in slices so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            # A slice that ran between the two reads would be half counted.
            if spent == self.spent:
                return now - spent

    @property
    def ref_s(self) -> float:
        """Mean host seconds of one slice while the block ran."""
        return self.spent / self.slices
