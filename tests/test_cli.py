"""CLI smoke tests (each command exercised through main())."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attack.evictframe import EvictFrameConfig
from repro.attack.explframe import ExplFrameConfig
from repro.attack.registry import get_modality
from repro import package_version
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.seed == 7
        assert args.cipher == "aes"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        # package_version(), not the source constant: an installed wheel
        # reports its own metadata version.
        captured = capsys.readouterr()
        assert captured.out == f"repro {package_version()}\n"
        assert captured.err == ""


class TestStartup:
    def test_attack_run_never_imports_packaging_metadata(self):
        # The version string is resolved only when printed: a run that
        # never prints it must not pay for the installed-metadata scan.
        # A fresh interpreter, because pytest itself imports the module.
        script = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['attack', '--seed', '7', '--buffer-mib', '4', '--json'])\n"
            "assert code == 0, code\n"
            "print('importlib.metadata' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestAttackCommand:
    FAST = ["--buffer-mib", "4"]

    def test_success_exits_zero(self, capsys):
        assert main(["attack", "--seed", "7", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "flips templated:" in out
        assert "faulty ciphertexts:" in out
        assert "KEY RECOVERED:        True" in out

    def test_failure_exits_nonzero(self, capsys):
        # An invulnerable module: templating finds nothing, recovery fails.
        code = main(
            ["attack", "--seed", "7", "--density", "0.0", "--campaigns", "1",
             "--buffer-mib", "2"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "flips templated:      0" in out
        assert "KEY RECOVERED:        False" in out

    def test_orchestrated_failure_exits_nonzero(self, capsys):
        code = main(
            ["attack", "--seed", "7", "--density", "0.0", "--campaigns", "1",
             "--buffer-mib", "2"]
        )
        assert code == 1
        assert "templating-exhausted" in capsys.readouterr().out

    def test_orchestrated_success_exits_zero(self, capsys):
        code = main(["attack", "--seed", "7", "--chaos", "steal", *self.FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos profile:        steal" in out
        assert "KEY RECOVERED:        True" in out

    def test_json_report(self, capsys):
        code = main(
            ["attack", "--seed", "7", "--chaos", "steal", "--json", *self.FAST]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["chaos_profile"] == "steal"

    def test_json_report_carries_metrics(self, capsys):
        code = main(["attack", "--seed", "7", "--json", *self.FAST])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["metrics"]
        assert metrics["dram.hammer.calls"] > 0
        assert metrics["attack.template.campaigns"] >= 1

    def test_trace_file_loads_with_all_layers(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            ["attack", "--seed", "7", "--trace", str(trace),
             "--metrics", *self.FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "dram.hammer.calls" in out  # --metrics table
        doc = json.loads(trace.read_text())
        cats = {event.get("cat") for event in doc["traceEvents"]}
        assert {"dram", "mm", "os", "attack", "chaos"} <= cats
        assert doc["otherData"]["producer"] == f"repro {package_version()}"

    def test_json_mode_keeps_stdout_clean(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(
            ["attack", "--seed", "7", "--json", "--trace", str(trace), *self.FAST]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is the report, nothing else
        assert "trace written to" in captured.err


class TestModalityOption:
    FAST = ["--buffer-mib", "4"]

    def test_list_modalities_prints_registry_and_exits_zero(self, capsys):
        assert main(["attack", "--list-modalities"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "evictframe   hammer through timing-verified cache eviction sets "
            "instead of clflush, then recover the key by persistent fault "
            "analysis (Rowhammer.js-style)",
            "explframe    steer a templated flip into the victim's S-box and "
            "recover the key by persistent fault analysis (the paper's attack)",
            "faultprobe   steer a templated flip under the victim's table and "
            "read the stored bit back from response discrepancies (FAULT+PROBE)",
        ]

    @pytest.mark.parametrize(
        ("name", "config_cls"),
        [
            ("explframe", ExplFrameConfig),
            ("faultprobe", ExplFrameConfig),
            ("evictframe", EvictFrameConfig),
        ],
    )
    def test_each_modality_names_its_config_class(self, name, config_cls):
        assert get_modality(name).config_class is config_cls

    def test_unknown_modality_exits_two_with_the_available_list(self, capsys):
        assert main(["attack", "--modality", "nope", *self.FAST]) == 2
        err = capsys.readouterr().err
        assert "unknown attack modality 'nope'" in err
        assert "available: evictframe, explframe, faultprobe" in err

    def test_faultprobe_recovers_bits(self, capsys):
        code = main(["attack", "--seed", "7", "--modality", "faultprobe", *self.FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "modality:             faultprobe" in out
        assert "bits recovered:       4 of 4 targeted" in out
        assert "bit accuracy:         100.00%" in out
        assert "RUN SUCCEEDED:        True" in out

    def test_evictframe_recovers_key(self, capsys):
        code = main(["attack", "--seed", "7", "--modality", "evictframe", *self.FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "modality:             evictframe" in out
        assert "KEY RECOVERED:        True" in out

    def test_evict_knobs_require_evictframe(self, capsys):
        code = main(["attack", "--evict-slack", "4", *self.FAST])
        assert code == 2
        assert "--modality evictframe" in capsys.readouterr().err
        code = main(
            ["attack", "--modality", "faultprobe", "--evict-pattern", "interleave",
             *self.FAST]
        )
        assert code == 2
        assert "--modality evictframe" in capsys.readouterr().err

    def test_faultprobe_json_report_carries_extra_and_metrics(self, capsys):
        code = main(
            ["attack", "--seed", "7", "--modality", "faultprobe", "--json",
             *self.FAST]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["modality"] == "faultprobe"
        assert report["extra"]["bits_recovered"] == 4
        assert report["extra"]["accuracy"] == 1.0
        assert report["metrics"]["attack.faultprobe.probes"] > 0
        assert "attack.pfa.ciphertexts" not in report["metrics"]


class TestScenarioOption:
    FAST = ["--buffer-mib", "4"]

    def test_unknown_preset_exits_two(self, capsys):
        assert main(["attack", "--scenario", "nope", *self.FAST]) == 2
        err = capsys.readouterr().err
        assert "single" in err and "duet" in err and "apartment-8" in err

    def test_malformed_json_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "target":')
        assert main(["attack", "--scenario", str(bad), *self.FAST]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_knob_in_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "x",
                    "target": "a",
                    "tenants": [{"name": "a", "rate_hz": 40.0}],
                }
            )
        )
        assert main(["attack", "--scenario", str(bad), *self.FAST]) == 2
        assert "unknown tenant knob" in capsys.readouterr().err

    def test_unrecoverable_target_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "x",
                    "target": "a",
                    "tenants": [{"name": "a", "cipher": "aes", "key_bits": 256}],
                }
            )
        )
        assert main(["attack", "--scenario", str(bad), *self.FAST]) == 2
        assert "PFA cannot recover" in capsys.readouterr().err

    def test_duet_json_report_names_tenants(self, capsys):
        code = main(
            ["attack", "--seed", "3", "--scenario", "duet", "--json", *self.FAST]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target_tenant"] == "alice"
        assert report["background_tenants"] == 1
        assert report["workload"]["bob"]["role"] == "noise"
        assert report["workload"]["bob"]["served"] > 0


class TestCheckpointFlags:
    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--resume"], "--resume"),
        ],
    )
    def test_service_flags_require_checkpoint(self, capsys, extra, flag):
        # The check fires before any machine is built or warmed.
        code = main(
            ["attack", "--buffer-mib", "4", "--campaign", "2", *extra]
        )
        assert code == 2
        assert f"{flag} requires --checkpoint DIR" in capsys.readouterr().err

    def test_resume_over_a_bad_journal_state_exits_two(self, capsys, tmp_path):
        from repro.parallel.service import JOURNAL_NAME, decode_line, encode_record

        argv = ["attack", "--seed", "7", "--buffer-mib", "4", "--campaign", "1",
                "--checkpoint", str(tmp_path), "--json"]
        assert main(argv) == 0
        journal = tmp_path / JOURNAL_NAME
        record = decode_line(journal.read_bytes())
        record["state"]["dram.flips"] = "many"
        journal.write_bytes(encode_record(record))  # CRC-valid, bad state
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert "counter 'dram.flips' cannot hold 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malform",
        [
            lambda record: record.pop("report"),
            lambda record: record.update(report={"success": True}),
        ],
        ids=["missing-report", "report-missing-fields"],
    )
    def test_resume_over_a_malformed_journal_report_exits_two(
        self, capsys, tmp_path, malform
    ):
        from repro.parallel.service import JOURNAL_NAME, decode_line, encode_record

        argv = ["attack", "--seed", "7", "--buffer-mib", "4", "--campaign", "1",
                "--checkpoint", str(tmp_path), "--json"]
        assert main(argv) == 0
        journal = tmp_path / JOURNAL_NAME
        record = decode_line(journal.read_bytes())
        malform(record)
        journal.write_bytes(encode_record(record))  # CRC-valid, bad report
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert "malformed journal record for attempt 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--stream-out", "out.jsonl"],
            ["--window", "4"],
            ["--worker-retries", "5"],
            ["--trace-format", "jsonl"],
            ["--shard", "1/2"],
            ["--merge-shards"],
        ],
        ids=lambda extra: extra[0],
    )
    def test_removed_flags_exit_two(self, capsys, extra):
        # argparse rejects an unknown argument with exit code 2.
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--buffer-mib", "4", "--campaign", "2", "--checkpoint",
                  "ckpt", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCampaignOption:
    def test_invalid_max_retries_exits_2_before_any_machine(
        self, capsys, monkeypatch
    ):
        from repro.core.machine import Machine

        def no_machine(*args, **kwargs):
            raise AssertionError("a machine was built")

        monkeypatch.setattr(Machine, "__init__", no_machine)
        code = main(
            ["attack", "--buffer-mib", "4", "--campaign", "1", "--max-retries", "0"]
        )
        assert code == 2
        assert "max_attempts must be at least 1" in capsys.readouterr().err

    def test_fork_flag_is_a_no_op(self, capsys):
        def run(*extra):
            argv = ["attack", "--seed", "7", "--buffer-mib", "4",
                    "--campaign", "1", "--json", *extra]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        plain = run()
        flagged = run("--fork-from-template")
        assert "mode" not in plain
        assert plain["digest"] == flagged["digest"]


class TestSteerCommand:
    def test_same_cpu(self, capsys):
        assert main(["steer", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "steering success: 100%" in out

    def test_cross_cpu(self, capsys):
        assert main(["steer", "--trials", "3", "--cross-cpu"]) == 0
        assert "0%" in capsys.readouterr().out

    def test_noise(self, capsys):
        assert main(["steer", "--trials", "3", "--noise", "16"]) == 0
        assert "noise=16" in capsys.readouterr().out


class TestProcfsCommand:
    @pytest.mark.parametrize(
        "view,needle",
        [
            ("buddyinfo", "zone"),
            ("zoneinfo", "pages free"),
            ("meminfo", "MemTotal"),
            ("maps", "[heap]"),
            ("status", "VmRSS"),
            ("pagetypeinfo", "Free pages count"),
        ],
    )
    def test_views(self, capsys, view, needle):
        assert main(["procfs", "--view", view]) == 0
        assert needle in capsys.readouterr().out


class TestPfaCommand:
    def test_aes(self, capsys):
        assert main(["pfa", "--cipher", "aes", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "correct:              True" in out

    def test_aes_custom_key(self, capsys):
        key = "00112233445566778899aabbccddeeff"
        assert main(["pfa", "--cipher", "aes", "--key", key]) == 0
        assert key in capsys.readouterr().out

    def test_present(self, capsys):
        assert main(["pfa", "--cipher", "present", "--seed", "3"]) == 0
        assert "correct:              True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--key", "zz"], "--key must be hex, got 'zz'"),
            (["--key", "00"], "--key for --cipher aes must be 16 bytes, got 1"),
            (
                ["--cipher", "present", "--key", "00"],
                "--key for --cipher present must be 10 or 16 bytes, got 1",
            ),
        ],
        ids=["not-hex", "aes-not-16-bytes", "present-not-10-or-16-bytes"],
    )
    def test_bad_key_exits_two(self, capsys, argv, message):
        assert main(["pfa", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--fault-index", "300"],
                "--fault-index for --cipher present must be in [0, 15], got 300",
            ),
            (["--bit", "9"], "--bit for --cipher present must be in [0, 3], got 9"),
        ],
        ids=["fault-index-past-16-entries", "bit-past-4-bits"],
    )
    def test_bad_present_fault_exits_two(self, capsys, argv, message):
        assert main(["pfa", "--cipher", "present", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"


class TestTemplateCommand:
    def test_survey(self, capsys):
        assert main(["template", "--buffer-mib", "2", "--show", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "flips:" in out
        assert "va=0x" in out
