"""Campaign service: crash-safe checkpoints, resume, worker-loss retry.

The contract under test (docs/CAMPAIGNS.md): checkpointing, resuming
and worker loss are engine events, never result events.  A service
run's digest must equal the in-memory engines' digest for the same
campaign; a ``kill -9`` mid-run, a torn trailing journal record, a died
pool worker or a checkpoint written by an older release must all resume
back to that exact digest.  Framing, manifest and config-hash plumbing get unit
tests; the end-to-end crash path runs through the subprocess smoke
driver (scripts/service_smoke.py) against the real CLI.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from repro.attack.explframe import ExplFrameConfig
from repro.attack.orchestrator import AttackCampaign, AttackRunReport
from repro.attack.templating import TemplatorConfig
from repro.core import MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.obs.metrics import MetricsRegistry
from repro.parallel import service as service_module
from repro.parallel.service import (
    CampaignService,
    campaign_config_hash,
    decode_line,
    encode_record,
    register_service_metrics,
    scan_journal,
    snapshot_state,
)
from repro.obs.schema import SCHEMA
from repro.sim.errors import CheckpointError, ConfigError, WorkerLostError
from repro.sim.units import MIB

FAST = ExplFrameConfig(
    templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
)
# The same config object: only the modality name tells the two apart.
FAST_PROBE = FAST
PER_FAMILY_STATE_CHECKPOINT = Path(__file__).parent / "data" / "per_family_state_checkpoint"


def vulnerable_config(seed=7):
    return MachineConfig(
        seed=seed,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


def make_campaign(attempts=4, seed=7, **kwargs):
    return AttackCampaign(
        vulnerable_config(seed), attempts, attack_config=FAST, **kwargs
    )


def make_faultprobe_campaign(attempts=4, seed=7, **kwargs):
    return AttackCampaign(
        vulnerable_config(seed), attempts, attack_config=FAST_PROBE,
        modality="faultprobe", **kwargs
    )


class TestConfigHash:
    def test_stable_across_equal_campaigns(self):
        assert campaign_config_hash(make_campaign()) == campaign_config_hash(
            make_campaign()
        )

    def test_result_knobs_change_the_hash(self):
        base = campaign_config_hash(make_campaign())
        assert campaign_config_hash(make_campaign(seed=8)) != base
        assert campaign_config_hash(make_campaign(attempts=5)) != base
        assert campaign_config_hash(make_campaign(chaos_profile="steal")) != base

    def test_engine_knobs_do_not_change_the_hash(self):
        base = campaign_config_hash(make_campaign())
        assert campaign_config_hash(make_campaign(workers=4)) == base

    def test_explicit_default_modality_keeps_pre_modality_hashes(self):
        # "explframe" is appended to nothing: checkpoints written before
        # the modality layer existed must stay resumable.
        assert campaign_config_hash(
            make_campaign(modality="explframe")
        ) == campaign_config_hash(make_campaign())

    def test_modality_changes_the_hash(self):
        assert campaign_config_hash(make_faultprobe_campaign()) != (
            campaign_config_hash(make_campaign())
        )

    def test_stable_across_equal_faultprobe_campaigns(self):
        assert campaign_config_hash(make_faultprobe_campaign()) == (
            campaign_config_hash(make_faultprobe_campaign())
        )


# -- journal framing ---------------------------------------------------------------


class TestJournalFraming:
    def test_encode_decode_round_trip(self):
        record = {"index": 3, "report": {"success": True}, "state": {}}
        assert decode_line(encode_record(record)) == record

    def test_length_mismatch_is_rejected(self):
        line = encode_record({"index": 0})
        assert decode_line(line[:-5] + b"\n") is None

    def test_crc_mismatch_is_rejected(self):
        payload = json.dumps({"index": 0}).encode()
        bad = b"%d %08x %s\n" % (len(payload), zlib.crc32(payload) ^ 1, payload)
        assert decode_line(bad) is None

    def test_garbage_line_is_rejected(self):
        assert decode_line(b"not a journal line\n") is None

    def test_scan_maps_indices_to_offsets(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = [encode_record({"index": i}) for i in (0, 2, 4)]
        path.write_bytes(b"".join(lines))
        offsets, valid_end, torn = scan_journal(path)
        assert sorted(offsets) == [0, 2, 4]
        assert offsets[2] == len(lines[0])
        assert valid_end == sum(len(line) for line in lines)
        assert torn == 0

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = encode_record({"index": 0})
        path.write_bytes(good + encode_record({"index": 1})[:-7])
        offsets, valid_end, torn = scan_journal(path)
        assert sorted(offsets) == [0]
        assert valid_end == len(good)
        assert torn == 1

    def test_valid_record_after_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(
            encode_record({"index": 0})
            + b"corrupted mid-file line\n"
            + encode_record({"index": 2})
        )
        with pytest.raises(CheckpointError, match="damaged beyond a torn tail"):
            scan_journal(path)


class TestPerFamilyStates:
    """Older journals hold per-family states; they reach the fold as snapshots."""

    @staticmethod
    def _registry():
        registry = MetricsRegistry()
        registry.counter("dram.flips").inc(3)
        registry.counter("os.syscalls", {"call": "mmap"}).inc(2)
        registry.gauge("dram.activations").set(7)
        histogram = registry.histogram("dram.hammer.activations_per_call")
        for value in (0, 50, 5_000_000):
            histogram.observe(value)
        return registry

    @staticmethod
    def _per_family(name, kind, instances, buckets=()):
        spec = SCHEMA[name]
        return {name: {"kind": kind, "unit": spec.unit, "help": spec.help,
                       "buckets": list(buckets), "instances": instances}}

    def _old_state(self, buckets=(0, 100, 1_000, 10_000, 100_000, 1_000_000)):
        histogram = {"bucket_counts": [1, 1, 0, 0, 0, 0, 1], "count": 3,
                     "sum": 5_000_050}
        return {
            **self._per_family("dram.activations", "gauge", {"dram.activations": 7}),
            **self._per_family("dram.flips", "counter", {"dram.flips": 3}),
            **self._per_family(
                "dram.hammer.activations_per_call", "histogram",
                {"dram.hammer.activations_per_call": histogram}, buckets,
            ),
            **self._per_family("os.syscalls", "counter", {"os.syscalls{call=mmap}": 2}),
        }

    def test_per_family_state_becomes_the_snapshot(self):
        old = json.loads(json.dumps(self._old_state()))
        assert snapshot_state(old) == self._registry().snapshot()

    def test_snapshot_state_passes_through(self):
        for state in (self._registry().snapshot(), [1], {"dram.flips": "x"}):
            assert snapshot_state(state) is state
        assert snapshot_state({}) == {}

    def test_per_family_histogram_with_other_buckets_is_rejected(self):
        with pytest.raises(ConfigError, match="declared buckets"):
            snapshot_state(self._old_state(buckets=(0, 100)))

    def test_malformed_per_family_state_is_rejected(self):
        old = self._old_state()
        old["dram.flips"]["instances"] = [3]
        with pytest.raises(ConfigError, match="malformed"):
            snapshot_state(old)
        old = self._old_state()
        del old["dram.hammer.activations_per_call"]["instances"][
            "dram.hammer.activations_per_call"]["sum"]
        with pytest.raises(ConfigError, match="malformed"):
            snapshot_state(old)


# -- telemetry ---------------------------------------------------------------------


class TestServiceTelemetry:
    def test_register_service_metrics_covers_the_documented_family(self):
        registry = MetricsRegistry(enabled=True)
        register_service_metrics(registry)
        names = set(registry.snapshot())
        assert names == {
            "campaign.service.attempts_journaled",
            "campaign.service.attempts_resumed",
            "campaign.service.torn_records_dropped",
            "campaign.service.worker_retries",
            "campaign.service.workers_lost",
            "campaign.service.journal_bytes",
            "campaign.service.inflight_window",
        }

    def test_service_block_of_a_real_run(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        register_service_metrics(registry)
        service = CampaignService(make_campaign(attempts=2), tmp_path)
        block = service.run().service
        assert set(block) == set(registry.snapshot())
        assert block["campaign.service.attempts_journaled"] == 2
        assert block["campaign.service.attempts_resumed"] == 0
        assert block["campaign.service.torn_records_dropped"] == 0
        assert block["campaign.service.worker_retries"] == 0
        assert block["campaign.service.workers_lost"] == 0
        assert block["campaign.service.journal_bytes"] == (
            service.journal_path.stat().st_size
        )
        assert block["campaign.service.inflight_window"] == 1


# -- worker death plumbing ---------------------------------------------------------


class CrashingCampaign(AttackCampaign):
    """Campaign whose attempt ``crash_index`` kills its own worker process.

    The fuse file arms exactly one crash: the worker unlinks it and then
    dies with ``os._exit`` (no exception, no cleanup — indistinguishable
    from an OOM kill), so a retry of the same attempt runs normally.
    Only meaningful with ``workers > 1``; crashing the serial path would
    take the test down with it.
    """

    def __init__(self, *args, fuse_path=None, crash_index=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.fuse_path = str(fuse_path)
        self.crash_index = crash_index

    def _run_attempt(self, snapshot, index):
        if index == self.crash_index and os.path.exists(self.fuse_path):
            os.unlink(self.fuse_path)
            os._exit(42)
        return super()._run_attempt(snapshot, index)


@pytest.mark.slow
class TestWorkerLoss:
    def test_pool_surfaces_worker_death_as_typed_error(self, tmp_path):
        fuse = tmp_path / "fuse"
        fuse.touch()
        campaign = CrashingCampaign(
            vulnerable_config(), 2, attack_config=FAST,
            workers=2, fuse_path=fuse, crash_index=1,
        )
        with pytest.raises(WorkerLostError) as excinfo:
            campaign.run()
        assert excinfo.value.attempt is not None

    def test_service_retries_the_lost_attempt_to_the_exact_digest(self, tmp_path):
        reference = make_campaign(attempts=3).run().digest()
        fuse = tmp_path / "fuse"
        fuse.touch()
        campaign = CrashingCampaign(
            vulnerable_config(), 3, attack_config=FAST,
            workers=2, fuse_path=fuse, crash_index=1,
        )
        result = CampaignService(campaign, tmp_path / "ckpt").run()
        assert result.digest() == reference
        assert result.service["campaign.service.workers_lost"] >= 1
        assert result.service["campaign.service.worker_retries"] >= 1
        assert not fuse.exists()

    def test_exhausted_retry_budget_raises_with_journal_intact(
        self, tmp_path, monkeypatch
    ):
        # A fuse that re-arms forever: crash_index dies on every try, but
        # only once attempt 0's record is in the journal, so the failed
        # run must leave that record behind.
        fuse = tmp_path / "fuse"
        fuse.touch()

        class AlwaysCrashing(CrashingCampaign):
            def _run_attempt(self, snapshot, index):
                if index == self.crash_index:
                    deadline = time.monotonic() + 120
                    while 0 not in scan_journal(self.journal_path)[0]:
                        assert time.monotonic() < deadline, "attempt 0 never journaled"
                        time.sleep(0.01)
                    os._exit(42)
                return AttackCampaign._run_attempt(self, snapshot, index)

        campaign = AlwaysCrashing(
            vulnerable_config(), 2, attack_config=FAST,
            workers=2, fuse_path=fuse, crash_index=1,
        )
        monkeypatch.setattr(service_module, "WORKER_RETRIES", 1)
        service = CampaignService(campaign, tmp_path / "ckpt")
        campaign.journal_path = service.journal_path
        with pytest.raises(WorkerLostError, match="giving up"):
            service.run()
        # Attempt 0's record survived the failed run and resumes cleanly.
        offsets, _end, torn = scan_journal(service.journal_path)
        assert torn == 0
        assert 0 in offsets


# -- end-to-end parity -------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    """One in-memory 4-attempt run shared by every parity test below."""
    result = make_campaign(attempts=4).run()
    return {
        "digest": result.digest(),
        "metrics": result.metrics,
        "successes": result.successes,
    }


@pytest.mark.slow
class TestServiceParity:
    def test_fresh_run_matches_in_memory_digest_and_metrics(
        self, tmp_path, reference
    ):
        result = CampaignService(make_campaign(attempts=4), tmp_path).run()
        assert result.digest() == reference["digest"]
        assert result.metrics == reference["metrics"]
        assert result.attempts == 4
        assert result.successes == reference["successes"]
        assert result.reports == ()  # streaming: reports live in the journal
        assert result.service["campaign.service.attempts_journaled"] == 4
        assert result.service["campaign.service.attempts_resumed"] == 0
        # A serial run has no pool: one attempt is in flight at a time.
        assert result.service["campaign.service.inflight_window"] == 1

    def test_existing_checkpoint_without_resume_is_refused(self, tmp_path):
        CampaignService(make_campaign(attempts=4), tmp_path).run()
        with pytest.raises(CheckpointError, match="resume"):
            CampaignService(make_campaign(attempts=4), tmp_path).run()

    def test_resume_of_a_complete_run_reruns_nothing(self, tmp_path, reference):
        CampaignService(make_campaign(attempts=4), tmp_path).run()
        result = CampaignService(
            make_campaign(attempts=4), tmp_path, resume=True
        ).run()
        assert result.digest() == reference["digest"]
        assert result.metrics == reference["metrics"]
        assert result.service["campaign.service.attempts_journaled"] == 0
        assert result.service["campaign.service.attempts_resumed"] == 4
        assert result.service["campaign.service.inflight_window"] == 0

    def test_torn_tail_is_truncated_and_rerun_to_the_same_digest(
        self, tmp_path, reference
    ):
        service = CampaignService(make_campaign(attempts=4), tmp_path)
        service.run()
        # Tear the final record mid-payload, as a kill -9 during the
        # append would, and mark the manifest as still running.
        journal = service.journal_path
        journal.write_bytes(journal.read_bytes()[:-20])
        manifest = json.loads(service.manifest_path.read_text())
        manifest.update(completed=3, status="running", digest=None)
        service.manifest_path.write_text(json.dumps(manifest))

        resumed = CampaignService(
            make_campaign(attempts=4), tmp_path, resume=True
        ).run()
        assert resumed.digest() == reference["digest"]
        assert resumed.metrics == reference["metrics"]
        assert resumed.service["campaign.service.torn_records_dropped"] == 1
        assert resumed.service["campaign.service.attempts_resumed"] == 3
        assert resumed.service["campaign.service.attempts_journaled"] == 1

    def test_pooled_resume_reports_the_window_its_pool_used(
        self, tmp_path, reference
    ):
        service = CampaignService(make_campaign(attempts=4), tmp_path)
        service.run()
        journal = service.journal_path
        journal.write_bytes(b"".join(journal.read_bytes().splitlines(True)[:2]))

        resumed = CampaignService(
            make_campaign(attempts=4, workers=4), tmp_path, resume=True
        ).run()
        assert resumed.digest() == reference["digest"]
        assert resumed.service["campaign.service.attempts_resumed"] == 2
        # Two attempts left start two workers, each with two in flight.
        assert resumed.service["campaign.service.inflight_window"] == 4

    def test_journal_with_a_hole_resumes_on_two_workers(self, tmp_path, reference):
        # Attempt 2 is missing between journaled neighbours, as a pooled
        # run killed while attempt 2 was still in flight leaves it.
        service = CampaignService(make_campaign(attempts=4), tmp_path)
        service.run()
        journal = service.journal_path
        lines = journal.read_bytes().splitlines(True)
        journal.write_bytes(b"".join(lines[i] for i in (0, 1, 3)))
        manifest = json.loads(service.manifest_path.read_text())
        manifest.update(completed=3, status="running", digest=None)
        service.manifest_path.write_text(json.dumps(manifest))

        resumed = CampaignService(
            make_campaign(attempts=4, workers=2), tmp_path, resume=True
        ).run()
        assert resumed.digest() == reference["digest"]
        assert resumed.metrics == reference["metrics"]
        assert resumed.successes == reference["successes"]
        assert resumed.service["campaign.service.attempts_resumed"] == 3
        assert resumed.service["campaign.service.attempts_journaled"] == 1
        assert sorted(scan_journal(journal)[0]) == [0, 1, 2, 3]

    def test_checkpoint_with_retired_manifest_keys_still_resumes(
        self, tmp_path, reference
    ):
        # Older releases wrote the manifest with "shard" and "journal"
        # keys under these same file names; such a checkpoint must
        # resume to the same digest.
        CampaignService(make_campaign(attempts=4), tmp_path).run()
        manifest_path = tmp_path / "manifest-0of1.json"
        journal = tmp_path / "journal-0of1.jsonl"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(
            shard="0/1", journal="journal-0of1.jsonl",
            completed=1, status="running", digest=None,
        )
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
        journal.write_bytes(journal.read_bytes().splitlines(True)[0])

        resumed = CampaignService(
            make_campaign(attempts=4), tmp_path, resume=True
        ).run()
        assert resumed.digest() == reference["digest"]
        assert resumed.metrics == reference["metrics"]
        assert resumed.service["campaign.service.attempts_resumed"] == 1
        assert resumed.service["campaign.service.attempts_journaled"] == 3

    def test_checkpoint_with_per_family_states_resumes(self, tmp_path):
        # Checked in as an older release wrote it: make_campaign(attempts=4)
        # journaled with per-family metric states ({family: {"kind",
        # "unit", "help", "buckets", "instances"}}), attempt 2's record
        # dropped and the manifest set back to running.  The digest and
        # the merged metrics are that release's, pinned here.
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(PER_FAMILY_STATE_CHECKPOINT, checkpoint)
        resumed = CampaignService(
            make_campaign(attempts=4, workers=2), checkpoint, resume=True
        ).run()
        assert resumed.digest() == (
            "ea691bdf7f42856f6c87389d4af34856ff02843d2724893d92fd83da8116905d"
        )
        assert resumed.successes == 4
        metrics = json.dumps(resumed.metrics, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(metrics.encode("utf-8")).hexdigest() == (
            "27aab2fc6eaa2d17e5e296d02fd29a3e8af1cd1d9207666c11717f32f5415eac"
        )
        assert resumed.metrics["families"]["dram.flips"]["instances"] == {
            "dram.flips": 8
        }
        assert resumed.service["campaign.service.attempts_resumed"] == 3
        assert resumed.service["campaign.service.attempts_journaled"] == 1

    def test_config_hash_mismatch_refuses_to_mix_results(self, tmp_path):
        CampaignService(make_campaign(attempts=4), tmp_path).run()
        with pytest.raises(CheckpointError, match="different campaign config"):
            CampaignService(
                make_campaign(attempts=4, seed=8), tmp_path, resume=True
            ).run()

    def test_cross_modality_resume_is_refused_before_any_work(self, tmp_path):
        # A hand-written manifest stands in for an explframe checkpoint:
        # the mismatch must trip on the config hash alone, before the
        # service warms a machine or journals a single attempt.
        (tmp_path / "manifest-0of1.json").write_text(json.dumps({
            "version": 1,
            "config_hash": campaign_config_hash(make_campaign(attempts=4)),
            "snapshot_digest": None,
            "attempts": 4,
            "modality": "explframe",
            "completed": 0,
            "status": "running",
            "digest": None,
        }))
        with pytest.raises(CheckpointError, match="different campaign config"):
            CampaignService(
                make_faultprobe_campaign(attempts=4), tmp_path, resume=True
            ).run()

    def test_journal_reports_round_trip_through_from_dict(self, tmp_path):
        service = CampaignService(make_campaign(attempts=2), tmp_path)
        service.run()
        offsets, _end, _torn = scan_journal(service.journal_path)
        with open(service.journal_path, "rb") as fh:
            for offset in offsets.values():
                fh.seek(offset)
                record = decode_line(fh.readline())
                rebuilt = AttackRunReport.from_dict(record["report"])
                assert rebuilt.to_json() == json.dumps(
                    record["report"], sort_keys=True, separators=(",", ":")
                )


# -- the real CLI under kill -9 ----------------------------------------------------


@pytest.mark.slow
class TestKillResumeSmoke:
    def test_sigkilled_chaos_campaign_resumes_to_the_exact_digest(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).parent.parent / "scripts" / "service_smoke.py"),
                "kill-resume", "--dir", str(tmp_path), "--attempts", "4",
            ],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_sigkilled_faultprobe_campaign_resumes_to_the_exact_digest(
        self, tmp_path
    ):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).parent.parent / "scripts" / "service_smoke.py"),
                "kill-resume", "--dir", str(tmp_path), "--attempts", "4",
                "--chaos", "none", "--modality", "faultprobe",
            ],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout
