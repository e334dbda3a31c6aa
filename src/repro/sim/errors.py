"""Exception hierarchy shared by all subsystems.

Each simulated layer raises a subclass of :class:`ReproError` so callers can
catch failures from the whole stack with one handler, or pick out a specific
layer's failure mode (for instance :class:`OutOfMemoryError` from the buddy
allocator versus :class:`SegmentationFault` from the virtual-memory layer).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class AllocationError(ReproError):
    """A memory allocation request could not be satisfied as asked."""


class OutOfMemoryError(AllocationError):
    """No zone in the zonelist could satisfy the allocation."""


class SegmentationFault(ReproError):
    """A task touched a virtual address with no valid mapping.

    Mirrors the SIGSEGV a real kernel would deliver.  Carries the faulting
    address and the pid of the offending task for diagnostics.
    """

    def __init__(self, message: str, *, address: int | None = None, pid: int | None = None):
        super().__init__(message)
        self.address = address
        self.pid = pid


class WorkerLostError(ReproError):
    """A pool worker process died while running a campaign attempt.

    Raised by the parallel execution layer when a worker vanishes
    mid-campaign (``BrokenProcessPool``, a SIGKILL'd child, an
    ``os._exit`` inside attempt code) instead of surfacing the executor's
    opaque traceback.  Carries the index of the attempt whose result was
    lost so a retrying driver (the campaign service) can re-dispatch
    exactly that attempt on a fresh worker.
    """

    def __init__(self, message: str, *, attempt: int | None = None):
        super().__init__(message)
        self.attempt = attempt


class CheckpointError(ReproError):
    """A campaign checkpoint directory cannot be used as asked.

    Raised by the campaign service when a checkpoint exists but resume
    was not requested, when the manifest's config hash does not match the
    campaign being run, or when a journal is corrupted beyond its torn
    tail (an invalid record *followed by* valid ones).
    """


class FaultError(ReproError):
    """A fault-injection or fault-analysis step failed."""


class TemplatingExhaustedError(FaultError):
    """Every templating campaign ended without a usable in-table flip.

    Raised by the attack when ``max_campaigns`` Rowhammer templating
    campaigns found no repeatable flip that lands inside the victim's
    table region with an armed direction.  Carries the campaign and flip
    counts so a retry orchestrator can classify the failure and decide
    whether launching further campaigns is worthwhile.
    """

    def __init__(self, message: str, *, campaigns: int = 0, flips_found: int = 0):
        super().__init__(message)
        self.campaigns = campaigns
        self.flips_found = flips_found
