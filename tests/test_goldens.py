"""The behaviour contract's campaign digests, pinned in benchmarks/goldens.json.

T10, T13 and T14 are serial campaigns, one per attack modality, built
with the shapes of ``benchmarks/bench_t14_evictframe.py``.  Their
digests hash every attempt's canonical report, so any change to what an
attack does, in any layer, moves one of them.  A deliberate change
re-pins the file in the same commit.
"""

import json
from pathlib import Path

import pytest

from repro.attack.orchestrator import AttackCampaign
from repro.attack.registry import get_modality
from repro.attack.templating import TemplatorConfig
from repro.core import MachineConfig
from repro.dram.flipmodel import FlipModelConfig
from repro.dram.geometry import DRAMGeometry
from repro.sim.units import MIB
from repro.workload import scenario_preset

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "goldens.json").read_text()
)

#: name -> (modality, attempts, scenario preset or None)
SHAPES = {
    "T10": ("explframe", 2, None),
    "T13": ("faultprobe", 4, "duet"),
    "T14": ("evictframe", 4, "duet"),
}


def golden_campaign(modality, attempts, scenario):
    return AttackCampaign(
        MachineConfig(
            seed=7,
            geometry=DRAMGeometry.small(),
            flip_model=FlipModelConfig.highly_vulnerable(),
        ),
        attempts,
        modality=modality,
        attack_config=get_modality(modality).config_class(
            templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
        ),
        scenario=None if scenario is None else scenario_preset(scenario),
    )


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_golden_digest_holds(name):
    result = golden_campaign(*SHAPES[name]).run()
    assert result.digest() == GOLDENS[name]["digest"], (
        f"{name} ({GOLDENS[name]['campaign']}) digest moved"
    )
