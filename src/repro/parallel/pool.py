"""Worker-pool dispatch of campaign attempts.

The contract (docs/CAMPAIGNS.md): parallel execution is an *engine*
choice, never a *result* choice.  Attempt ``i`` of a campaign always
runs on a machine re-keyed with ``derive_seed(base_seed, "campaign/i")``
from the same warm state, so the per-attempt reports — and therefore
:meth:`~repro.attack.orchestrator.CampaignResult.digest` — are
byte-identical whether the attempts run serially, on 2 workers or on
16, and regardless of completion order (reports are re-ordered by
attempt index before merging).

Warm state reaches the workers one way, **ship**: the parent warms
once, pickles the :class:`~repro.core.machine.MachineSnapshot` with
:meth:`~repro.core.machine.MachineSnapshot.to_bytes`, and every worker
rehydrates it in its initializer.  One templating pass total; the blob
crosses the process boundary once per worker.  The CoW frame store
serialises compactly — a small object-graph pickle plus one packed
payload of the materialised frames — and the rehydrated snapshot's
forks share those frames copy-on-write, so per-attempt fork cost in the
worker is O(1) in module size.

Per-worker telemetry cannot be deterministic (host wall time, pids), so
it lives in the result's ``pool`` block — outside both the digest and
the merged per-attempt ``metrics`` block.  The block's keys are the
``campaign.pool.*`` family declared in :mod:`repro.obs.schema` and
documented in docs/OBSERVABILITY.md;
:meth:`~repro.attack.orchestrator.AttackCampaign._pool_block` builds it.

Dispatch is *bounded*: :func:`iter_pooled` keeps at most a small
window of attempts in flight and yields each outcome as it completes, so
a 10k-attempt campaign never holds 10k futures (or their results) at
once.  It is the pooled half of
:meth:`~repro.attack.orchestrator.AttackCampaign.iter_attempts`, the one
attempt stream that in-memory runs collect and the checkpointed campaign
service (:mod:`repro.parallel.service`) journals.  A worker that dies
mid-attempt (OOM kill, segfault, SIGKILL) surfaces as a typed
:class:`~repro.sim.errors.WorkerLostError` naming the attempt whose
result was lost — never as a hang or an opaque ``BrokenProcessPool``
traceback.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.sim.errors import WorkerLostError

__all__ = [
    "inflight_window",
    "iter_pooled",
]

# Per-worker-process state, populated by the pool initializer.  Workers
# run attempts strictly sequentially, so no locking is needed.
_STATE: dict = {}


def _context():
    """Prefer the fork start method (cheap COW of the warm parent)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


# -- campaign dispatch -------------------------------------------------------------


def inflight_window(workers: int, attempts: int) -> int:
    """Attempts in flight when ``attempts`` run on ``workers``: two per pool
    worker (a pool starts at most one per attempt), one serial, 0 for none."""
    if not attempts:
        return 0
    if workers <= 1:
        return 1
    return 2 * min(workers, attempts)


def _campaign_init(campaign, snapshot_blob) -> None:
    """Pool initializer: stage the campaign's warm state in this worker."""
    from repro.core.machine import MachineSnapshot

    _STATE["campaign"] = campaign
    _STATE["snapshot"] = MachineSnapshot.from_bytes(snapshot_blob)


def _campaign_attempt(index: int):
    """Run one attempt in this worker; the unit of dispatched work."""
    return _STATE["campaign"]._run_attempt(_STATE["snapshot"], index)


def iter_pooled(campaign, indices, *, snapshot_blob: bytes):
    """Yield ``(index, report, metrics_state, pid, wall_ns)`` as attempts finish.

    Runs ``indices`` on ``min(campaign.workers, len(indices))`` worker
    processes, each forking the shipped ``snapshot_blob``.  At most
    :func:`inflight_window` attempts are submitted at a time, and each outcome
    is yielded — and released — as soon as its future completes, so
    memory stays bounded by that window, not the campaign size.  Yield
    order is completion order; callers that need attempt order (the
    digest does) re-order or journal by the yielded ``index``.

    Raises :class:`~repro.sim.errors.WorkerLostError` (carrying the
    attempt index whose result was lost) when a worker process dies —
    the ``BrokenProcessPool`` poisons every in-flight future, so the
    caller must assume only the attempts already yielded are done.
    """
    indices = list(indices)
    if not indices:
        return
    workers = min(campaign.workers, len(indices))
    window = inflight_window(campaign.workers, len(indices))
    remaining = iter(indices)
    pending: dict = {}
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_context(),
        initializer=_campaign_init,
        initargs=(campaign, snapshot_blob),
    )
    try:
        def top_up():
            while len(pending) < window:
                try:
                    index = next(remaining)
                except StopIteration:
                    return
                try:
                    pending[pool.submit(_campaign_attempt, index)] = index
                except BrokenProcessPool as exc:
                    raise WorkerLostError(
                        f"worker pool broke before attempt {index} could be "
                        "submitted", attempt=index,
                    ) from exc

        top_up()
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    yield future.result()
                except BrokenProcessPool as exc:
                    raise WorkerLostError(
                        f"worker process died while attempt {index} was in "
                        "flight", attempt=index,
                    ) from exc
            top_up()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

