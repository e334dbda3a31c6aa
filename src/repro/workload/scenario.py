"""Scenario contract: declarative multi-tenant victim mixes.

A :class:`Scenario` is plain data — which tenants share the machine,
what each encrypts with, how fast it issues requests, and which tenant
the attacker targets.  Scenarios load from named presets or JSON files
(see docs/SCENARIOS.md for the schema) and ride through campaign
snapshots, journals and config hashes as ordinary picklable values, so
a scenario campaign digests bit-identically at any worker count.

Validation is strict: unknown keys, impossible key sizes and
PFA-unrecoverable targets all raise :class:`ConfigError` at load time,
never mid-campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.sim.errors import ConfigError

#: Key sizes (bits) each victim implementation accepts.
_CIPHER_KEY_BITS = {
    "aes": (128, 192, 256),
    "aes_ttable": (128,),
    "present": (80,),
}

#: Key sizes the PFA stage can actually invert — the target tenant must
#: use one of these (background tenants may use any supported size).
_RECOVERABLE_KEY_BITS = {"aes": (128,), "aes_ttable": (128,), "present": (80,)}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract.

    ``request_rate_hz`` is the mean arrival rate; inter-arrival delays
    are drawn uniformly from ``mean * [1 - jitter, 1 + jitter]`` off the
    tenant's private RNG stream, so one tenant's schedule never perturbs
    another's.  ``burst`` requests arrive per event; at most
    ``max_queue`` wait unserved (extra arrivals are dropped and
    counted); each serves ``payload_blocks`` blocks, every one fetching
    the cipher's tables.  ``scratch_pages`` models per-request working memory: each
    request maps that many fresh pages and frees the *previous*
    request's — the page-frame-cache churn that makes noisy neighbours
    dangerous to steering.  ``cpu=None`` leaves placement to the
    scheduler (least-loaded); the attack pins the *target* to the
    attacker's CPU regardless.  ``sleeps`` tenants block between
    requests, draining their CPU's page frame cache on every service
    (the paper's Section V warning, as a workload knob).
    """

    name: str
    cipher: str = "aes"
    key_bits: int | None = None
    key_hex: str | None = None
    request_rate_hz: float = 200.0
    burst: int = 1
    jitter: float = 0.3
    cpu: int | None = None
    scratch_pages: int = 1
    payload_blocks: int = 1
    max_queue: int = 64
    sleeps: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise ConfigError(f"tenant name {self.name!r} must be a non-empty slug")
        if self.cipher not in _CIPHER_KEY_BITS:
            raise ConfigError(
                f"tenant {self.name!r}: cipher must be one of "
                f"{sorted(_CIPHER_KEY_BITS)}, got {self.cipher!r}"
            )
        allowed = _CIPHER_KEY_BITS[self.cipher]
        if self.key_bits is not None and self.key_bits not in allowed:
            raise ConfigError(
                f"tenant {self.name!r}: {self.cipher} accepts key_bits "
                f"{allowed}, got {self.key_bits}"
            )
        if self.key_hex is not None:
            try:
                key = bytes.fromhex(self.key_hex)
            except ValueError as exc:
                raise ConfigError(
                    f"tenant {self.name!r}: key_hex is not valid hex"
                ) from exc
            if len(key) != self.key_bytes:
                raise ConfigError(
                    f"tenant {self.name!r}: key_hex is {len(key)} bytes, "
                    f"{self.resolved_key_bits}-bit {self.cipher} needs {self.key_bytes}"
                )
        if not 0.0 < self.request_rate_hz <= 1_000_000.0:
            raise ConfigError(
                f"tenant {self.name!r}: request_rate_hz must be in (0, 1e6], "
                f"got {self.request_rate_hz}"
            )
        if not 1 <= self.burst <= 1024:
            raise ConfigError(f"tenant {self.name!r}: burst must be in [1, 1024]")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"tenant {self.name!r}: jitter must be in [0, 1]")
        if self.cpu is not None and self.cpu < 0:
            raise ConfigError(f"tenant {self.name!r}: cpu must be >= 0 or null")
        if not 0 <= self.scratch_pages <= 64:
            raise ConfigError(f"tenant {self.name!r}: scratch_pages must be in [0, 64]")
        if not 1 <= self.payload_blocks <= 1024:
            raise ConfigError(f"tenant {self.name!r}: payload_blocks must be in [1, 1024]")
        if not 1 <= self.max_queue <= 65536:
            raise ConfigError(f"tenant {self.name!r}: max_queue must be in [1, 65536]")

    @property
    def resolved_key_bits(self) -> int:
        """``key_bits``, defaulted to the cipher's native size."""
        if self.key_bits is not None:
            return self.key_bits
        return _CIPHER_KEY_BITS[self.cipher][0]

    @property
    def key_bytes(self) -> int:
        """Length of this tenant's key material in bytes."""
        return self.resolved_key_bits // 8

    @property
    def mean_interarrival_ns(self) -> int:
        """Mean nanoseconds between request events."""
        return max(1, round(1e9 / self.request_rate_hz))

    def resolve_key(self, rng) -> bytes:
        """The tenant's key: explicit ``key_hex`` or drawn from ``rng``."""
        if self.key_hex is not None:
            return bytes.fromhex(self.key_hex)
        return bytes(rng.randrange(256) for _ in range(self.key_bytes))

    def to_dict(self) -> dict:
        """Plain-data form (round-trips through :meth:`from_dict`)."""
        out: dict = {"name": self.name, "cipher": self.cipher}
        for spec_field in fields(self):
            if spec_field.name in ("name", "cipher"):
                continue
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        """Build from plain data, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ConfigError(f"tenant entry must be an object, got {type(data).__name__}")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown tenant knob(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        if "name" not in data:
            raise ConfigError("tenant entry is missing 'name'")
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """A named tenant mix plus the attacker's chosen target."""

    name: str
    target: str
    tenants: tuple[TenantSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if not self.tenants:
            raise ConfigError(f"scenario {self.name!r} declares no tenants")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"scenario {self.name!r} has duplicate tenant names")
        if self.target not in names:
            raise ConfigError(
                f"scenario {self.name!r} targets unknown tenant {self.target!r} "
                f"(tenants: {names})"
            )
        spec = self.target_spec
        if spec.resolved_key_bits not in _RECOVERABLE_KEY_BITS[spec.cipher]:
            raise ConfigError(
                f"scenario {self.name!r}: PFA cannot recover a "
                f"{spec.resolved_key_bits}-bit {spec.cipher} key; target a "
                f"128-bit AES or 80-bit PRESENT tenant"
            )
        if spec.sleeps:
            raise ConfigError(
                f"scenario {self.name!r}: the target tenant must stay active "
                "(sleeps=true drains the page frame cache the attack stages)"
            )

    @property
    def target_spec(self) -> TenantSpec:
        """The targeted tenant's spec."""
        for spec in self.tenants:
            if spec.name == self.target:
                return spec
        raise ConfigError(f"no tenant named {self.target!r}")  # pragma: no cover

    @property
    def background(self) -> tuple[TenantSpec, ...]:
        """Every tenant except the target."""
        return tuple(spec for spec in self.tenants if spec.name != self.target)

    def to_dict(self) -> dict:
        """Plain-data form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "target": self.target,
            "tenants": [spec.to_dict() for spec in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build from plain data, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ConfigError(f"scenario must be an object, got {type(data).__name__}")
        unknown = set(data) - {"name", "target", "tenants"}
        if unknown:
            raise ConfigError(
                f"unknown scenario key(s) {sorted(unknown)}; "
                "expected name/target/tenants"
            )
        for required in ("name", "target", "tenants"):
            if required not in data:
                raise ConfigError(f"scenario is missing {required!r}")
        if not isinstance(data["tenants"], list):
            raise ConfigError("scenario 'tenants' must be a list")
        tenants = tuple(TenantSpec.from_dict(entry) for entry in data["tenants"])
        return cls(name=data["name"], target=data["target"], tenants=tenants)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# Preset rates are tuned so the *ratio* of background arrivals to the
# target's steering window (1 / target rate) exercises real
# interference while a full templating pass stays cheap to serve —
# interference physics scale with that ratio, not with absolute rates.


def _preset_single() -> Scenario:
    return Scenario(
        name="single",
        target="alice",
        tenants=(
            TenantSpec(name="alice", cipher="aes", request_rate_hz=40.0, cpu=0),
        ),
    )


def _preset_duet() -> Scenario:
    return Scenario(
        name="duet",
        target="alice",
        tenants=(
            TenantSpec(name="alice", cipher="aes", request_rate_hz=40.0, cpu=0),
            TenantSpec(
                name="bob",
                cipher="aes",
                key_bits=256,
                request_rate_hz=24.0,
                jitter=0.5,
                cpu=0,
            ),
        ),
    )


def _preset_apartment_8() -> Scenario:
    return Scenario(
        name="apartment-8",
        target="t0",
        tenants=(
            TenantSpec(name="t0", cipher="aes", request_rate_hz=32.0, cpu=0),
            TenantSpec(name="t1", cipher="aes_ttable", request_rate_hz=16.0, cpu=0),
            TenantSpec(
                name="t2", cipher="present", request_rate_hz=12.0, burst=2, cpu=0
            ),
            TenantSpec(name="t3", cipher="aes", key_bits=192, request_rate_hz=24.0, cpu=0),
            TenantSpec(name="t4", cipher="aes", key_bits=256, request_rate_hz=20.0, cpu=1),
            TenantSpec(
                name="t5", cipher="present", request_rate_hz=8.0, cpu=1, sleeps=True
            ),
            TenantSpec(name="t6", cipher="aes_ttable", request_rate_hz=44.0, cpu=1),
            TenantSpec(name="t7", cipher="aes", request_rate_hz=6.0),
        ),
    )


_PRESETS = {
    "single": _preset_single,
    "duet": _preset_duet,
    "apartment-8": _preset_apartment_8,
}

#: Names accepted by ``attack --scenario`` without a file.
PRESET_NAMES = tuple(sorted(_PRESETS))


def scenario_preset(name: str) -> Scenario:
    """A built-in scenario by name (raises :class:`ConfigError` if unknown)."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()


def load_scenario(ref: str) -> Scenario:
    """Resolve ``--scenario`` input: a preset name or a JSON file path."""
    if ref in _PRESETS:
        return scenario_preset(ref)
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read scenario file {ref!r}: {exc}") from exc
        return Scenario.from_json(text)
    raise ConfigError(
        f"scenario {ref!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
        "nor a .json file"
    )
