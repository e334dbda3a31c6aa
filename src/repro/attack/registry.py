"""The attack-modality table: name -> attack class.

Each attack class is its own modality: ``modality_name`` is its key,
``description`` its ``--list-modalities`` line, ``config_class`` its
config dataclass, and its constructor builds the per-run driver.
Unknown names raise :class:`~repro.sim.errors.ConfigError` naming every
modality — the CLI maps that to exit code 2.
"""

from __future__ import annotations

from repro.attack.evictframe import EvictFrameAttack
from repro.attack.explframe import ExplFrameAttack
from repro.attack.faultprobe import FaultProbeAttack
from repro.sim.errors import ConfigError

MODALITIES = {
    cls.modality_name: cls
    for cls in (ExplFrameAttack, FaultProbeAttack, EvictFrameAttack)
}


def get_modality(name: str) -> type[ExplFrameAttack]:
    """The attack class called ``name``.

    Raises :class:`ConfigError` (CLI exit 2) with the available names
    when ``name`` is unknown.
    """
    try:
        return MODALITIES[name]
    except KeyError:
        available = ", ".join(sorted(MODALITIES))
        raise ConfigError(
            f"unknown attack modality {name!r}; available: {available}"
        ) from None


def available_modalities() -> dict[str, str]:
    """``{name: one-line description}`` for every modality, sorted."""
    return {name: MODALITIES[name].description for name in sorted(MODALITIES)}
