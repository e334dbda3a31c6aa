"""ConfigError validation paths for attack and defense configs."""

import dataclasses

import pytest

from repro.attack.evictframe import EvictFrameConfig
from repro.attack.explframe import ExplFrameConfig
from repro.attack.templating import TemplatorConfig
from repro.defense.watchdog import WatchdogConfig
from repro.sim.errors import ConfigError


class TestExplFrameConfig:
    def test_fields_are_the_knobs_callers_set(self):
        # Everything else (rounds, patterns, PFA and probe budgets, the
        # table offset) is a module constant, not a config field.
        def names(cls):
            return tuple(f.name for f in dataclasses.fields(cls))

        assert names(TemplatorConfig) == ("buffer_bytes", "batch_pairs")
        assert names(ExplFrameConfig) == ("templator", "cpu", "cipher", "max_campaigns")
        assert names(EvictFrameConfig) == names(ExplFrameConfig) + (
            "evict_slack", "evict_pattern",
        )

    def test_bad_cipher_rejected(self):
        with pytest.raises(ConfigError, match="cipher"):
            ExplFrameConfig(cipher="des")

    def test_nonpositive_campaigns_rejected(self):
        with pytest.raises(ConfigError):
            ExplFrameConfig(max_campaigns=0)


class TestWatchdogConfig:
    def test_defaults_valid(self):
        config = WatchdogConfig()
        assert config.threshold_per_window > 0

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ConfigError):
            WatchdogConfig(threshold_per_window=0)
        with pytest.raises(ConfigError):
            WatchdogConfig(threshold_per_window=-1)

    def test_nonpositive_history_rejected(self):
        with pytest.raises(ConfigError):
            WatchdogConfig(history_windows=0)
