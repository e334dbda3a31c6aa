"""Experiment T12 — steering success vs multi-tenant background traffic.

The paper measures ExplFrame with a private victim; docs/SCENARIOS.md
generalises that to a multi-tenant server where noisy neighbours churn
the per-CPU page frame cache between the attacker's munmap and the
target's allocation.  The claim quantified here: steering degrades with
the *rate* of same-CPU background traffic, not with its mere presence —
each background arrival inside the steering window maps fresh scratch
and frees the previous request's, so the staged frame survives only
when the churn it sees nets out.

One campaign per background rate (same seed, same target knobs, only
the neighbour's ``request_rate_hz`` varies), reporting:

* success rate — orchestrated attempts that recovered the key;
* steer tries — mean steer-stage attempts per run (the retry pressure
  background churn creates);
* first useful flip — mean simulated time until the re-hammer stage
  first faulted the victim's table, over successful attempts.

Plus the digest gate: a 4-attempt duet campaign run serially and on 4
pool workers must produce the same campaign digest — tenant traffic is
deterministic machinery, not noise (docs/CAMPAIGNS.md).
"""

from __future__ import annotations

SEED = 7
ATTEMPTS = 4
TARGET_RATE_HZ = 40.0
BACKGROUND_RATES_HZ = (0.0, 12.0, 24.0, 48.0)


def _fast_attack():
    from repro.attack.explframe import ExplFrameConfig
    from repro.attack.templating import TemplatorConfig
    from repro.sim.units import MIB

    return ExplFrameConfig(
        templator=TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
    )


def _campaign_config():
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry

    return MachineConfig(
        seed=SEED,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig.highly_vulnerable(),
    )


def _scenario(background_rate_hz: float):
    """The duet shape with the neighbour's request rate as the knob."""
    from repro.workload import Scenario, TenantSpec

    tenants = [
        TenantSpec(name="alice", cipher="aes", request_rate_hz=TARGET_RATE_HZ, cpu=0)
    ]
    if background_rate_hz > 0:
        tenants.append(
            TenantSpec(
                name="bob",
                cipher="aes",
                key_bits=256,
                request_rate_hz=background_rate_hz,
                jitter=0.5,
                cpu=0,
            )
        )
    return Scenario(
        name=f"duet-{background_rate_hz:g}hz", target="alice", tenants=tuple(tenants)
    )


def _first_useful_flip_ns(report) -> int | None:
    """Sim time of the first successful re-hammer (the flip that faults
    the victim's table), or None if the run never got one."""
    for record in report.timeline:
        if record.stage == "rehammer" and record.outcome == "ok":
            return record.end_ns
    return None


def measure_rates() -> list[dict]:
    from repro.attack.orchestrator import AttackCampaign

    points = []
    for rate in BACKGROUND_RATES_HZ:
        result = AttackCampaign(
            _campaign_config(),
            ATTEMPTS,
            attack_config=_fast_attack(),
            scenario=_scenario(rate),
        ).run()
        steer_tries = [
            sum(1 for record in report.timeline if record.stage == "steer")
            for report in result.reports
        ]
        flip_times = [
            t
            for t in (_first_useful_flip_ns(r) for r in result.reports if r.success)
            if t is not None
        ]
        points.append(
            {
                "rate": rate,
                "successes": result.successes,
                "attempts": ATTEMPTS,
                "steer_tries_mean": sum(steer_tries) / len(steer_tries),
                "first_flip_ms": (
                    sum(flip_times) / len(flip_times) / 1e6 if flip_times else None
                ),
            }
        )
    return points


def digest_parity() -> dict:
    """4-attempt duet campaign digest: serial vs a 4-worker pool."""
    from repro.attack.orchestrator import AttackCampaign
    from repro.workload import scenario_preset

    def run(**kwargs):
        return AttackCampaign(
            _campaign_config(),
            4,
            attack_config=_fast_attack(),
            scenario=scenario_preset("duet"),
            **kwargs,
        ).run()

    serial = run()
    pooled = run(workers=4)
    return {"serial": serial.digest(), "workers x4": pooled.digest()}


def test_t12_tenant_traffic_vs_steering(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    points = measure_rates()
    digests = digest_parity()

    rows = [
        [
            f"{point['rate']:g} Hz" if point["rate"] else "none",
            f"{point['successes']}/{point['attempts']}",
            f"{point['steer_tries_mean']:.1f}",
            (
                f"{point['first_flip_ms']:.1f} ms"
                if point["first_flip_ms"] is not None
                else "-"
            ),
        ]
        for point in points
    ]
    digest_rows = [
        [mode, digest[:16], str(digest == digests["serial"])]
        for mode, digest in digests.items()
    ]
    table = "\n\n".join(
        [
            format_table(
                ["background rate", "key recovered", "steer tries", "first useful flip"],
                rows,
                title=(
                    f"T12: steering vs same-CPU background traffic "
                    f"(target {TARGET_RATE_HZ:g} Hz, {ATTEMPTS} attempts/rate, "
                    f"seed {SEED})"
                ),
            ),
            format_table(
                ["campaign mode", "digest[:16]", "== serial"],
                digest_rows,
                title="T12: 4-attempt duet campaign digest parity, serial vs 4 workers",
            ),
        ]
    )
    write_results("t12_tenants", table)

    # Claim 1: the attack survives every measured rate (the orchestrator
    # absorbs churn as steer retries, not as lost keys)...
    for point in points:
        assert point["successes"] >= 1, (
            f"no attempt recovered the key at {point['rate']} Hz background"
        )
    # ...and the quiet machine needs no retry pressure at all.
    assert points[0]["steer_tries_mean"] >= 1.0
    # Claim 2: tenant traffic is deterministic machinery — the pooled
    # digest equals the serial digest bit for bit.
    assert digests["serial"] == digests["workers x4"], (
        "pooled duet campaign digest diverged from serial"
    )

    quiet = _scenario(0.0)
    benchmark.pedantic(
        lambda: quiet.to_dict(),
        rounds=5,
        iterations=1,
    )
