"""Named, seeded random streams.

A single master seed fans out into independent substreams keyed by name
(``"dram.flipmodel"``, ``"attack.templating"``, ...).  Two properties matter
for the reproduction:

* **Determinism** — the same master seed always yields the same machine, the
  same weak-cell map, and the same attack trace, so every experiment in
  EXPERIMENTS.md is replayable.
* **Independence** — changing how one subsystem consumes randomness must not
  perturb another subsystem's stream.  Deriving each stream from
  ``sha256(master_seed || name)`` guarantees that.

Both :mod:`random`-style streams (cheap scalar draws) and NumPy generators
(bulk vector draws for the cell-threshold model) are provided.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """Factory for independent named random streams.

    Streams are memoised: asking for the same name twice returns the same
    generator object, so a subsystem can re-fetch its stream instead of
    threading the object through every call.
    """

    def __init__(self, master_seed: int = 0):
        if not isinstance(master_seed, int):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = master_seed
        self._py_streams: dict[str, random.Random] = {}
        self._np_streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> random.Random:
        """Return the memoised :class:`random.Random` for ``name``."""
        if name not in self._py_streams:
            self._py_streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._py_streams[name]

    def numpy_stream(self, name: str) -> np.random.Generator:
        """Return the memoised NumPy generator for ``name``."""
        if name not in self._np_streams:
            self._np_streams[name] = np.random.default_rng(derive_seed(self.master_seed, name))
        return self._np_streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child :class:`RngStreams` (for nested experiment sweeps)."""
        return RngStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    def reseed(self, master_seed: int) -> None:
        """Re-key every stream under a new master seed.

        Existing memoised generators are dropped; the next ``stream(name)``
        derives fresh from the new seed.  Used by :meth:`Machine.fork` to
        give each forked machine an independent but reproducible random
        future while its *state* (already materialised from the old seed)
        stays shared.  Consumers that must stay pinned to the construction
        seed — the weak-cell map is the canonical case — capture the seed
        at construction time instead of re-reading ``master_seed``.
        """
        if not isinstance(master_seed, int):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = master_seed
        self._py_streams.clear()
        self._np_streams.clear()

    def __repr__(self) -> str:
        return f"RngStreams(master_seed={self.master_seed})"
