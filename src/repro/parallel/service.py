"""Resumable campaign service: crash-safe checkpoints, streaming results.

An in-memory :meth:`~repro.attack.orchestrator.AttackCampaign.run` is
one-shot: a crash, an OOM kill or a preempted host discards every
attempt already simulated.  :class:`CampaignService` consumes the same
attempt stream
(:meth:`~repro.attack.orchestrator.AttackCampaign.iter_attempts`) but
journals each outcome instead of collecting it, which turns a campaign
into a restartable service — one campaign per checkpoint directory —
with three properties, none of which changes a single result bit
(docs/CAMPAIGNS.md is the contract):

* **Checkpointed** — every completed attempt is appended to a CRC-framed
  JSONL *journal* and fsync'd, alongside an atomically-replaced
  *manifest* recording the campaign config hash, the warm-snapshot
  digest and progress.  ``kill -9`` at any instant loses at most the
  attempt being written; resume re-runs it and the final digest is
  bit-identical to an uninterrupted run.
* **Streaming** — attempt reports are journaled and *released*, never
  accumulated; pooled dispatch keeps a bounded in-flight window
  (:func:`~repro.parallel.pool.iter_pooled`), so RSS is near-constant
  in campaign size.  The finalize pass reads the journal back through
  the same :class:`~repro.attack.orchestrator.CampaignFold` an
  in-memory run uses, so the returned
  :class:`~repro.attack.orchestrator.CampaignResult` has the same
  digest, successes and metrics, with ``reports=()``.
* **Worker-loss tolerant** — a died pool worker surfaces as
  :class:`~repro.sim.errors.WorkerLostError`; the service rebuilds the
  pool (re-using the already-pickled warm snapshot) and re-dispatches
  the lost attempts, up to ``WORKER_RETRIES`` times each.  Retries are
  invisible in the results: attempt ``i`` is a pure function of its
  seed, wherever and however often it runs.

Journal format (one record per line, torn-write detectable)::

    <payload-len> <crc32-hex8> <canonical-json-payload>\\n

where the payload is ``{"index": i, "report": AttackRunReport.to_dict(),
"state": MetricsRegistry.snapshot()}`` serialised with sorted keys
and compact separators.  A record whose length or CRC does not match —
the torn tail of a ``kill -9`` mid-write — is dropped and its attempt
re-run; an invalid record *followed by* a valid one means real
corruption and raises :class:`~repro.sim.errors.CheckpointError`.
Journals from older releases hold a per-family ``state`` instead;
:func:`snapshot_state` rewrites it before the fold, which checks every
state against the metric schema.

Everything host-dependent about a service run (journal bytes, retries,
torn records) lands in the result's ``service`` block: a snapshot of
the ``campaign.service.*`` metric family (docs/OBSERVABILITY.md), which
each run registers on its own registry and increments live.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import zlib
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, _render_histogram
from repro.obs.schema import HISTOGRAM, SCHEMA
from repro.sim.errors import CheckpointError, ConfigError, WorkerLostError

__all__ = [
    "CampaignService",
    "campaign_config_hash",
    "register_service_metrics",
]

MANIFEST_VERSION = 1

# "0of1" names the one shard of the retired multi-host split; the names
# stay so a checkpoint written then still resumes, byte-identically.
JOURNAL_NAME = "journal-0of1.jsonl"
MANIFEST_NAME = "manifest-0of1.json"

# The journal is the durable record of progress (resume scans it, never
# the manifest's advisory `completed` counter), so the manifest's
# atomic-replace cost — two fsyncs plus a rename — need not be paid per
# attempt.  It is refreshed every this-many journaled records, and
# always at start and completion.
MANIFEST_REFRESH_EVERY = 64

#: Times one attempt may be re-dispatched after its worker died.
WORKER_RETRIES = 2


def campaign_config_hash(campaign) -> str:
    """Hash of everything that determines campaign *results*.

    One fixed tuple: the machine config, attempt count, modality, attack
    and orchestrator configs, scenario and chaos knobs — frozen data with
    deterministic reprs.  The worker count, an engine choice with zero
    result consequences, is deliberately excluded: a campaign
    checkpointed on 4 workers may resume on 1 without tripping the
    mismatch check.
    """
    description = repr((
        campaign.base_config,
        campaign.attempts,
        campaign.modality,
        campaign.attack_config,
        campaign.orchestrator_config,
        campaign.scenario,
        campaign.chaos_profile,
        campaign.chaos_intensity,
    ))
    return hashlib.sha256(description.encode("utf-8")).hexdigest()


# -- journal framing ---------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """Frame one journal record: ``<len> <crc32> <payload>\\n``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"%d %08x %s\n" % (len(payload), zlib.crc32(payload), payload)


def decode_line(line: bytes) -> dict | None:
    """The record on ``line``, or ``None`` if framing or CRC fails."""
    try:
        length_text, crc_text, payload = line.rstrip(b"\n").split(b" ", 2)
        if len(payload) != int(length_text):
            return None
        if zlib.crc32(payload) != int(crc_text, 16):
            return None
        return json.loads(payload)
    except ValueError:
        return None


def scan_journal(path) -> tuple[dict[int, int], int, int]:
    """Validate a journal; ``(index -> record offset, valid end, torn dropped)``.

    Tolerates a torn *tail* — one or more invalid records at the very
    end, the signature of a crash mid-append — by dropping it (the
    caller truncates to ``valid end`` before appending).  An invalid
    record followed by a valid one is not a torn write but corruption,
    and raises :class:`CheckpointError`: silently skipping it would
    resurrect a journal whose contents can no longer be trusted.
    """
    offsets: dict[int, int] = {}
    valid_end = 0
    torn = 0
    first_bad: int | None = None
    offset = 0
    with open(path, "rb") as fh:
        for line in fh:
            record = decode_line(line)
            if record is None:
                if first_bad is None:
                    first_bad = offset
                torn += 1
            else:
                if first_bad is not None:
                    raise CheckpointError(
                        f"{path}: valid record at byte {offset} follows a "
                        f"corrupt record at byte {first_bad}; the journal is "
                        "damaged beyond a torn tail and cannot be resumed"
                    )
                offsets[record["index"]] = offset
                valid_end = offset + len(line)
            offset += len(line)
    return offsets, valid_end, torn


def snapshot_state(state):
    """A journal ``state`` in :meth:`MetricsRegistry.snapshot` form.

    Older releases journaled ``{family: {"kind", "unit", "help",
    "buckets", "instances"}}`` with per-bucket histogram counts; such a
    state is flattened to its instances, each histogram rendered
    cumulatively over its declared buckets.  Any other state is returned
    as it is, for the fold to check.
    """
    if type(state) is not dict or not all(
        type(family) is dict and "instances" in family for family in state.values()
    ):
        return state
    snapshot = {}
    try:
        for name, family in state.items():
            for key, value in family["instances"].items():
                if family["kind"] == HISTOGRAM:
                    buckets, counts = SCHEMA[name].buckets, value["bucket_counts"]
                    if family["buckets"] != list(buckets) or len(counts) != len(buckets) + 1:
                        raise ValueError(f"{name!r} differs from its declared buckets")
                    value = _render_histogram(buckets, counts, value["count"], value["sum"])
                snapshot[key] = value
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed journal metrics state: {exc!r}") from exc
    return snapshot


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Durably replace ``path``: write temp, fsync, rename, fsync the dir."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# -- campaign.service.* telemetry --------------------------------------------------


def register_service_metrics(registry):
    """The live ``campaign.service.*`` handles on ``registry``, by role."""
    return {
        "journaled": registry.counter("campaign.service.attempts_journaled"),
        "resumed": registry.counter("campaign.service.attempts_resumed"),
        "torn": registry.counter("campaign.service.torn_records_dropped"),
        "worker_retries": registry.counter("campaign.service.worker_retries"),
        "workers_lost": registry.counter("campaign.service.workers_lost"),
        "journal_bytes": registry.gauge("campaign.service.journal_bytes"),
        "window": registry.gauge("campaign.service.inflight_window"),
    }


# -- the service -------------------------------------------------------------------


class CampaignService:
    """Checkpointed execution of one campaign (see module docstring).

    ``run()`` is idempotent: a fresh directory runs the campaign from
    attempt zero; an interrupted checkpoint (with ``resume=True``)
    continues from the last valid journal record; a completed checkpoint
    just re-finalizes from the journal without running anything.  The
    returned :class:`~repro.attack.orchestrator.CampaignResult` holds no
    reports (they live in the journal); its digest, successes and
    metrics come from the one fold both engines use, so they are
    bit-identical to an in-memory run's.  A died pool worker is
    retried here, up to ``WORKER_RETRIES`` times per attempt.
    """

    def __init__(self, campaign, checkpoint_dir, *, resume: bool = False):
        self.campaign = campaign
        self.directory = Path(checkpoint_dir)
        self.resume = resume
        self.journal_path = self.directory / JOURNAL_NAME
        self.manifest_path = self.directory / MANIFEST_NAME

    # -- manifest ----------------------------------------------------------------

    def _load_manifest(self) -> dict:
        try:
            with open(self.manifest_path, "rb") as fh:
                return json.loads(fh.read())
        except FileNotFoundError:
            raise CheckpointError(
                f"{self.journal_path} exists but its manifest "
                f"{self.manifest_path} is missing; the checkpoint directory "
                "is damaged"
            ) from None
        except ValueError as exc:
            raise CheckpointError(
                f"{self.manifest_path} is not valid JSON: {exc}"
            ) from exc

    def _write_manifest(
        self, *, config_hash: str, snapshot_digest: str | None,
        completed: int, status: str, digest: str | None = None,
    ) -> None:
        _write_json_atomic(self.manifest_path, {
            "version": MANIFEST_VERSION,
            "config_hash": config_hash,
            "snapshot_digest": snapshot_digest,
            "attempts": self.campaign.attempts,
            # Advisory (the config hash is the authority): which attack
            # modality wrote this checkpoint, for humans reading the dir.
            "modality": self.campaign.modality,
            "completed": completed,
            "status": status,
            "digest": digest,
        })

    # -- execution ---------------------------------------------------------------

    def run(self):
        """Run (or resume) the campaign to completion; the result holds no reports."""
        campaign = self.campaign
        # This run's campaign.service.* family, incremented live.
        self._registry = MetricsRegistry(enabled=True)
        self._metrics = register_service_metrics(self._registry)
        self.directory.mkdir(parents=True, exist_ok=True)
        config_hash = campaign_config_hash(campaign)
        offsets: dict[int, int] = {}
        snapshot_digest: str | None = None

        manifest = None
        if self.journal_path.exists() or self.manifest_path.exists():
            if not self.resume:
                raise CheckpointError(
                    f"{self.directory} already holds a checkpoint; pass "
                    "resume=True (--resume) to continue it, or point the "
                    "service at a fresh directory"
                )
            manifest = self._load_manifest()
            if manifest.get("config_hash") != config_hash:
                raise CheckpointError(
                    f"{self.manifest_path}: checkpoint was created by a "
                    "different campaign configuration (config hash "
                    f"{manifest.get('config_hash', '?')[:12]}… != "
                    f"{config_hash[:12]}…); refusing to mix results"
                )
            snapshot_digest = manifest.get("snapshot_digest")
            if self.journal_path.exists():
                offsets, valid_end, torn = scan_journal(self.journal_path)
                self._metrics["torn"].inc(torn)
                if torn:
                    # Drop the torn tail on disk too, so appended records
                    # don't concatenate into the partial line.
                    with open(self.journal_path, "r+b") as fh:
                        fh.truncate(valid_end)

        self._metrics["resumed"].inc(len(offsets))
        remaining = [
            index for index in range(campaign.attempts) if index not in offsets
        ]

        self._write_manifest(
            config_hash=config_hash, snapshot_digest=snapshot_digest,
            completed=len(offsets), status="running",
        )

        snapshot_blob = None
        if remaining:
            snapshot_blob = campaign._warm_snapshot().to_bytes()
            snapshot_digest = hashlib.sha256(snapshot_blob).hexdigest()
            if manifest is not None and manifest.get("snapshot_digest") not in (
                None, snapshot_digest,
            ):
                # Not fatal — results are a pure function of the seeds,
                # not the blob bytes — but worth surfacing.
                print(
                    f"warning: warm-snapshot digest changed across resume "
                    f"({manifest['snapshot_digest'][:12]}… -> "
                    f"{snapshot_digest[:12]}…)",
                    file=sys.stderr,
                )
        wall_by_pid: dict[int, int] = {}
        journaled = self._metrics["journaled"]
        with open(self.journal_path, "ab") as journal_fh:
            journal_fh.seek(0, os.SEEK_END)
            for index, report, state, pid, wall_ns in self._execute(
                remaining, snapshot_blob
            ):
                record = {"index": index, "report": report.to_dict(), "state": state}
                offset = journal_fh.tell()
                journal_fh.write(encode_record(record))
                journal_fh.flush()
                os.fsync(journal_fh.fileno())
                offsets[index] = offset
                wall_by_pid[pid] = wall_by_pid.get(pid, 0) + wall_ns
                journaled.inc()
                if journaled.value % MANIFEST_REFRESH_EVERY == 0:
                    self._write_manifest(
                        config_hash=config_hash,
                        snapshot_digest=snapshot_digest,
                        completed=len(offsets), status="running",
                    )

        result = self._finalize(offsets, wall_by_pid)
        self._write_manifest(
            config_hash=config_hash, snapshot_digest=snapshot_digest,
            completed=len(offsets), status="complete", digest=result.digest(),
        )
        return result

    def _execute(self, remaining, snapshot_blob):
        """Stream outcomes for ``remaining``, surviving worker loss."""
        retries: dict[int, int] = {}
        pending = list(remaining)
        while pending:
            completed: set[int] = set()
            try:
                for outcome in self.campaign.iter_attempts(
                    pending, snapshot_blob=snapshot_blob
                ):
                    completed.add(outcome[0])
                    yield outcome
                return
            except WorkerLostError as exc:
                self._metrics["workers_lost"].inc()
                lost = exc.attempt
                if lost is not None and lost not in completed:
                    retries[lost] = retries.get(lost, 0) + 1
                    self._metrics["worker_retries"].inc()
                    if retries[lost] > WORKER_RETRIES:
                        raise WorkerLostError(
                            f"attempt {lost} crashed its worker "
                            f"{retries[lost]} times (budget "
                            f"{WORKER_RETRIES}); giving up — the "
                            "journal holds every completed attempt",
                            attempt=lost,
                        ) from exc
                pending = [
                    index for index in pending if index not in completed
                ]

    # -- finalize ----------------------------------------------------------------

    def _finalize(self, offsets, wall_by_pid):
        """Second pass over the journal, in attempt order, through a
        :class:`~repro.attack.orchestrator.CampaignFold`.

        Each journaled report is rebuilt with
        :meth:`~repro.attack.orchestrator.AttackRunReport.from_dict`, so
        the fold digests the same canonical ``to_json()`` bytes an
        in-memory campaign does.  A CRC-valid record without a ``report``
        or ``state``, or whose report lacks a field, is a
        :class:`~repro.sim.errors.ConfigError` naming the attempt.
        """
        from repro.attack.orchestrator import AttackRunReport, CampaignFold
        from repro.parallel.pool import inflight_window

        campaign = self.campaign
        missing = [
            index for index in range(campaign.attempts) if index not in offsets
        ]
        if missing:
            raise CheckpointError(
                f"{self.journal_path}: attempts {missing[:4]}... were never "
                "journaled; the campaign did not complete"
            )
        fold = CampaignFold()
        with open(self.journal_path, "rb") as fh:
            for index in range(campaign.attempts):
                fh.seek(offsets[index])
                record = decode_line(fh.readline())
                if record is None or record["index"] != index:
                    raise CheckpointError(
                        f"{self.journal_path}: record for attempt {index} at "
                        f"byte {offsets[index]} changed under the service "
                        "while finalizing"
                    )
                try:
                    report = AttackRunReport.from_dict(record["report"])
                    state = record["state"]
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"{self.journal_path}: malformed journal record for "
                        f"attempt {index}: {exc!r}"
                    ) from exc
                fold.add(index, report.to_json(), report.success, snapshot_state(state))
        metrics = self._metrics
        ran = metrics["journaled"].value
        metrics["journal_bytes"].set(self.journal_path.stat().st_size)
        metrics["window"].set(inflight_window(campaign.workers, ran))
        return fold.result(
            pool=campaign._pool_block(
                owned=campaign.attempts,
                dispatched=ran + metrics["worker_retries"].value,
                completed=ran,
                wall_by_pid=wall_by_pid,
            ),
            service=self._registry.snapshot(),
        )
