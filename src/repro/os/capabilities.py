"""POSIX-style capabilities.

Only the capabilities the reproduction actually checks are modelled.  The
load-bearing one is CAP_SYS_ADMIN: without it, pagemap reads return zeroed
PFNs (Linux >= 4.0), which is the premise of the unprivileged attack.
"""

from __future__ import annotations

import enum


class Capability(enum.Enum):
    """Capabilities recognised by the simulated kernel."""

    CAP_SYS_ADMIN = "cap_sys_admin"
    CAP_SYS_NICE = "cap_sys_nice"
    CAP_IPC_LOCK = "cap_ipc_lock"


class CapabilitySet:
    """An immutable-by-convention set of capabilities held by a task."""

    def __init__(self, caps: set[Capability] | frozenset[Capability] = frozenset()):
        self._caps = frozenset(caps)

    @classmethod
    def unprivileged(cls) -> "CapabilitySet":
        """An ordinary user: no capabilities at all."""
        return cls()

    @classmethod
    def root(cls) -> "CapabilitySet":
        """A root-equivalent task holding every modelled capability."""
        return cls(frozenset(Capability))

    def has(self, cap: Capability) -> bool:
        """True if the set contains ``cap``."""
        return cap in self._caps

    def __contains__(self, cap: Capability) -> bool:
        return cap in self._caps

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CapabilitySet) and self._caps == other._caps

    def __hash__(self) -> int:
        return hash(self._caps)

    def __repr__(self) -> str:
        names = sorted(cap.name for cap in self._caps)
        return f"CapabilitySet({names})"
