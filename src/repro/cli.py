"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the library's main entry points:

* ``attack``    — the full ExplFrame chain against an AES or PRESENT victim;
* ``steer``     — page-frame-cache steering trials with the paper's knobs;
* ``template``  — a Rowhammer templating survey of the simulated module;
* ``pfa``       — the offline persistent-fault-analysis demo (no machine);
* ``procfs``    — /proc-style views of a machine under a small workload.

Every command takes ``--seed``; equal seeds give identical output.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.units import MIB, PAGE_SIZE


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="machine seed (default 7)")


def _emit_observability(machine, args, json_mode: bool) -> None:
    """Write ``--trace`` output and print the ``--metrics`` table.

    In JSON mode the metrics go into the report payload instead of a
    table, and the trace confirmation goes to stderr so stdout stays
    machine-parseable.
    """
    if args.trace:
        from repro import package_version

        tracer = machine.obs.tracer
        tracer.write(args.trace, producer=f"repro {package_version()}")
        stream = sys.stderr if json_mode else sys.stdout
        print(
            f"trace written to {args.trace} "
            f"(chrome, {len(tracer.records)} records, "
            f"{len(tracer.categories())} layers)",
            file=stream,
        )
    if args.metrics and not json_mode:
        print()
        print(machine.obs.metrics.render_table())


def _vulnerable_config(seed: int, density: float):
    from repro.core import MachineConfig
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMGeometry

    return MachineConfig(
        seed=seed,
        geometry=DRAMGeometry.small(),
        flip_model=FlipModelConfig(
            weak_cells_per_row_mean=density,
            threshold_mean=150_000,
            threshold_sd=50_000,
            threshold_min=40_000,
        ),
    )


def _vulnerable_machine(seed: int, density: float):
    from repro.core import Machine

    return Machine(_vulnerable_config(seed, density))


def _load_scenario_arg(args):
    """``--scenario`` resolved to a Scenario, or None when not given."""
    if getattr(args, "scenario", None) is None:
        return None
    from repro.workload import load_scenario

    return load_scenario(args.scenario)


def _scenario_attack_knobs(args, scenario) -> tuple[str, int]:
    """(cipher, cpu) for the attack config; the scenario's target wins."""
    if scenario is None:
        return args.cipher, 0
    spec = scenario.target_spec
    return spec.cipher, 0 if spec.cpu is None else spec.cpu


def _print_workload(workload) -> None:
    """Per-tenant traffic lines for text-mode attack output."""
    if workload is None:
        return
    scenario = workload.scenario
    print(
        f"scenario:             {scenario.name} (target {scenario.target}, "
        f"{workload.background_count} background tenant(s))"
    )
    for name, row in sorted(workload.summary().items()):
        print(
            f"  {name:<12} {row['role']:<6} {row['cipher']}-{row['key_bits']} "
            f"@{row['rate_hz']:g} Hz  issued={row['issued']} "
            f"served={row['served']} dropped={row['dropped']}"
        )


def _apply_evict_knobs(args: argparse.Namespace, config):
    """Fold the evictframe-only CLI knobs into the modality config.

    The defaults mirror ``EvictFrameConfig``; passing either knob with a
    different modality is a configuration error rather than a silent
    no-op.
    """
    import dataclasses

    from repro.sim.errors import ConfigError

    if args.modality == "evictframe":
        return dataclasses.replace(
            config,
            evict_slack=args.evict_slack,
            evict_pattern=args.evict_pattern,
        )
    if args.evict_slack != 2 or args.evict_pattern != "sequential":
        raise ConfigError(
            "--evict-slack/--evict-pattern only apply to --modality evictframe"
        )
    return config


def _attack_configs(args: argparse.Namespace, scenario):
    """(modality config, OrchestratorConfig) from the attack flags.

    The one place ``--campaigns``, ``--max-retries`` and ``--deadline``
    become configs, so a single run and every ``--campaign`` attempt
    honour (and validate) them alike.
    """
    from repro.attack.orchestrator import OrchestratorConfig, RetryPolicy
    from repro.attack.registry import get_modality
    from repro.attack.templating import TemplatorConfig
    from repro.sim.units import SECOND

    cipher, cpu = _scenario_attack_knobs(args, scenario)
    config = _apply_evict_knobs(
        args,
        get_modality(args.modality).config_class(
            cipher=cipher,
            cpu=cpu,
            templator=TemplatorConfig(
                buffer_bytes=args.buffer_mib * MIB, batch_pairs=16
            ),
            max_campaigns=args.campaigns,
        ),
    )
    retries = args.max_retries
    return config, OrchestratorConfig(
        deadline_ns=int(args.deadline * SECOND),
        campaign_budget=max(args.campaigns, 2 * config.max_campaigns),
        steer=RetryPolicy(max_attempts=retries),
        rehammer=RetryPolicy(
            max_attempts=retries, backoff_base_ns=20_000_000, backoff_factor=3.0
        ),
        pfa=RetryPolicy(max_attempts=min(retries, 3), backoff_base_ns=1_000_000),
    )


def cmd_attack(args: argparse.Namespace) -> int:
    """Run the full ExplFrame chain; exit code 0 iff the key was recovered.

    ``--modality`` selects the registered attack (docs/ATTACKS.md;
    default ``explframe``, the paper's).  Every run goes through the
    resilient :class:`AttackOrchestrator` — retries, simulated-time
    backoff, budgets — and prints its :class:`AttackRunReport` as a text
    summary, or as JSON with ``--json``.  ``--campaign N`` runs N such
    attempts instead.  The exit code is non-zero when the run's goal is
    not reached.
    """
    from repro.attack.orchestrator import AttackOrchestrator
    from repro.attack.registry import available_modalities, get_modality
    from repro.sim.chaos import ChaosEngine, chaos_profile

    if args.list_modalities:
        for name, description in available_modalities().items():
            print(f"{name:<12} {description}")
        return 0
    attack_cls = get_modality(args.modality)

    scenario = _load_scenario_arg(args)
    config, orchestrator_config = _attack_configs(args, scenario)
    if args.campaign:
        return _cmd_attack_campaign(args, scenario, config, orchestrator_config)

    machine = _vulnerable_machine(args.seed, args.density)
    if args.trace:
        machine.obs.tracer.enable()
    # A chaos engine is attached whenever chaos is requested, and also for
    # traced runs so the chaos layer always announces its plan in the
    # trace ("none" is the empty plan: the pump stays a no-op and the
    # simulation is bit-identical to an engine-less run).
    if args.chaos != "none" or args.trace:
        ChaosEngine(machine.kernel, chaos_profile(args.chaos, args.chaos_intensity))
    workload = None
    if scenario is not None:
        from repro.workload import WorkloadEngine

        workload = WorkloadEngine(machine, scenario)
        workload.start()
    attack = attack_cls(machine, config=config, tenant_workload=workload)
    report = AttackOrchestrator(attack, orchestrator_config).run()
    if args.json:
        import json

        payload = report.to_dict()
        payload["metrics"] = machine.obs.metrics.snapshot()
        if workload is not None:
            payload["workload"] = workload.summary()
        _emit_observability(machine, args, json_mode=True)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0 if report.success else 1
    spend = report.budget
    print(f"flips templated:      {report.templated_flips}")
    print(f"chaos profile:        {report.chaos_profile}")
    print(f"chaos events fired:   {len(report.chaos_events)}")
    print(f"stage attempts:       {report.attempts}")
    print(f"candidates tried:     {report.candidates_tried}")
    print(f"recoveries:           {len(report.recoveries)}")
    for action in report.recoveries:
        print(f"  - {action}")
    classes = ", ".join(report.failure_classes) or "-"
    print(f"failure classes:      {classes}")
    if report.final_failure is not None:
        print(
            f"final failure:        {report.final_failure.failure_class.value} "
            f"({report.final_failure.detail})"
        )
    print(
        f"budget spend:         {spend.sim_time_ns / 1e9:.2f} s sim of "
        f"{spend.deadline_ns / 1e9:.0f} s, {spend.campaigns} campaigns of "
        f"{spend.campaign_budget}"
    )
    _print_workload(workload)
    if report.modality != "explframe":
        print(f"modality:             {report.modality}")
    if report.modality != "explframe" and report.extra is not None:
        extra = report.extra
        print(
            f"bits recovered:       {extra['bits_recovered']} of "
            f"{extra['bits_targeted']} targeted"
        )
        if extra["accuracy"] is not None:
            print(f"bit accuracy:         {extra['accuracy']:.2%}")
        for bit in extra["bits"]:
            verdict = "ok" if bit["correct"] else "WRONG"
            print(
                f"  entry {bit['entry']:#04x} bit {bit['bit']}: "
                f"predicted {bit['predicted']} actual {bit['actual']} ({verdict})"
            )
        print(f"RUN SUCCEEDED:        {report.success}")
    else:
        print(f"faulty ciphertexts:   {report.faulty_ciphertexts}")
        print(f"true key:             {report.true_key}")
        print(f"recovered key:        {report.recovered_key or '-'}")
        print(f"KEY RECOVERED:        {report.success}")
    _emit_observability(machine, args, json_mode=False)
    return 0 if report.success else 1


def _cmd_attack_campaign(
    args: argparse.Namespace, scenario, attack_config, orchestrator_config
) -> int:
    """Run ``--campaign N`` orchestrated attempts; exit 0 iff all succeed.

    The machine is built and templated once and every attempt runs on an
    independent fork of that warm state.  ``--chaos`` derives a
    per-attempt plan from each attempt's seed, and ``--workers N`` fans
    the attempts out across a process pool — the report digest is
    identical for every worker count (docs/CAMPAIGNS.md).

    ``--checkpoint DIR`` routes execution through the campaign service:
    attempts are journaled as they complete and ``--resume`` continues
    an interrupted run to the same digest.
    """
    from repro.attack.orchestrator import AttackCampaign
    from repro.sim.errors import ConfigError

    if args.resume and args.checkpoint is None:
        raise ConfigError("--resume requires --checkpoint DIR")
    campaign = AttackCampaign(
        _vulnerable_config(args.seed, args.density),
        args.campaign,
        modality=args.modality,
        attack_config=attack_config,
        orchestrator_config=orchestrator_config,
        chaos_profile=args.chaos,
        chaos_intensity=args.chaos_intensity,
        workers=args.workers,
        scenario=scenario,
    )
    if args.checkpoint is None:
        result = campaign.run()
    else:
        from repro.parallel.service import CampaignService

        result = CampaignService(
            campaign, args.checkpoint, resume=args.resume
        ).run()
    if args.json:
        import json

        print(json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")))
        return 0 if result.successes == result.attempts else 1
    if scenario is not None:
        print(
            f"scenario:             {scenario.name} (target {scenario.target}, "
            f"{len(scenario.tenants) - 1} background tenant(s))"
        )
    print(f"attempts:             {result.attempts}")
    print(f"successes:            {result.successes}")
    print(f"report digest:        {result.digest()}")
    if result.pool is not None:
        workers = result.pool.get("campaign.pool.workers", 1)
        mode = next(
            (key.split("mode=", 1)[1].rstrip("}")
             for key in result.pool if key.startswith("campaign.pool.mode{")),
            "serial",
        )
        print(f"pool:                 {workers} worker(s), {mode} dispatch")
    if result.service is not None:
        journaled = result.service["campaign.service.attempts_journaled"]
        resumed = result.service["campaign.service.attempts_resumed"]
        retries = result.service["campaign.service.worker_retries"]
        print(
            f"service:              {journaled} journaled, {resumed} resumed, "
            f"{retries} worker retr{'y' if retries == 1 else 'ies'}"
        )
        if args.checkpoint is not None:
            print(f"checkpoint:           {args.checkpoint}")
    if args.chaos != "none" and result.reports:
        fired = sum(len(report.chaos_events) for report in result.reports)
        print(f"chaos events fired:   {fired} across {result.attempts} attempts")
    for index, report in enumerate(result.reports):
        outcome = "ok" if report.success else "FAIL"
        print(
            f"  [{index}] {outcome}  seed={report.seed}  "
            f"stages={report.attempts}  "
            f"chaos={len(report.chaos_events)}  "
            f"sim={report.budget.sim_time_ns / 1e9:.2f}s"
        )
    return 0 if result.successes == result.attempts else 1


def cmd_steer(args: argparse.Namespace) -> int:
    """Measure steering success over trials with the requested knobs."""
    from repro.attack.steering import SteeringProtocol, SteeringTrialConfig
    from repro.core import Machine, MachineConfig

    machine = Machine(MachineConfig.small(seed=args.seed))
    protocol = SteeringProtocol(machine)
    config = SteeringTrialConfig(
        victim_request_pages=args.victim_pages,
        same_cpu=not args.cross_cpu,
        noise_pages=args.noise,
        attacker_sleeps=args.sleep,
    )
    rate = protocol.success_rate(args.trials, config)
    print(
        f"steering success: {rate:.0%} over {args.trials} trials "
        f"(victim={args.victim_pages}p, "
        f"{'cross' if args.cross_cpu else 'same'}-cpu, noise={args.noise}, "
        f"sleep={args.sleep})"
    )
    return 0


def cmd_template(args: argparse.Namespace) -> int:
    """Run one templating campaign and print its yield and templates."""
    from repro.attack.templating import Templator, TemplatorConfig

    machine = _vulnerable_machine(args.seed, args.density)
    attacker = machine.kernel.spawn("templator", cpu=0)
    templator = Templator(
        machine.kernel,
        attacker.pid,
        TemplatorConfig(buffer_bytes=args.buffer_mib * MIB, batch_pairs=16),
    )
    result = templator.run()
    print(f"buffer:        {args.buffer_mib} MiB")
    print(f"pairs:         {result.pairs_hammered}")
    print(f"flips:         {result.flips_found} ({result.flips_per_gib:.0f}/GiB)")
    print(f"sim time:      {result.elapsed_ns / 1e9:.2f} s")
    for template in result.templates[: args.show]:
        direction = "0->1" if template.flips_to_one else "1->0"
        print(
            f"  va={template.page_va:#x} offset={template.page_offset:#05x} "
            f"bit={template.bit} {direction}"
        )
    return 0


def _pfa_key(args: argparse.Namespace, sizes: tuple[int, ...]) -> bytes:
    """``--key`` as bytes of one of ``sizes``, else the demo key of ``sizes[0]``.

    A key that is not hex or not a size the cipher's PFA path takes is a
    ConfigError (exit 2), not a traceback from deep inside the cipher.
    """
    from repro.sim.errors import ConfigError

    if not args.key:
        return bytes(range(sizes[0]))
    try:
        key = bytes.fromhex(args.key)
    except ValueError:
        raise ConfigError(f"--key must be hex, got {args.key!r}") from None
    if len(key) not in sizes:
        allowed = " or ".join(str(size) for size in sizes)
        raise ConfigError(
            f"--key for --cipher {args.cipher} must be {allowed} bytes, "
            f"got {len(key)}"
        )
    return key


def cmd_pfa(args: argparse.Namespace) -> int:
    """Run the offline PFA demo against a software-faulted cipher."""
    bit = 3 if args.bit is None else args.bit
    if args.cipher == "aes":
        # The AES batch kernel is AES-128 only.
        key = _pfa_key(args, (16,))

        import numpy as np

        from repro.ciphers.aes_tables import AES_SBOX
        from repro.ciphers.batch import aes128_encrypt_batch, random_plaintexts
        from repro.ciphers.faults import FaultSpec, apply_fault
        from repro.pfa.pfa import (
            ciphertexts_to_unique_key,
            invert_key_schedule_128,
            recover_k10_known_fault,
        )

        index = 0x42 if args.fault_index is None else args.fault_index
        faulty = apply_fault(AES_SBOX, FaultSpec(index=index, bit=bit))
        rng = np.random.default_rng(args.seed)
        consumed, state = ciphertexts_to_unique_key(
            lambda n: aes128_encrypt_batch(random_plaintexts(n, rng), key, faulty)
        )
        k10 = bytes(c[0] for c in recover_k10_known_fault(state, AES_SBOX[index]))
        master = invert_key_schedule_128(k10)
        print(f"ciphertexts consumed: {consumed}")
        print(f"recovered master key: {master.hex()}")
        print(f"correct:              {master == key}")
        return 0 if master == key else 1

    import random as pyrandom

    from repro.ciphers.present import PRESENT_SBOX, Present
    from repro.pfa.pfa_present import ciphertexts_to_unique_k32, recover_k32_known_fault
    from repro.sim.errors import ConfigError

    key = _pfa_key(args, (10, 16))
    index = 2 if args.fault_index is None else args.fault_index
    if not 0 <= index <= 0xF:
        raise ConfigError(
            f"--fault-index for --cipher present must be in [0, 15], got {index}"
        )
    if not 0 <= bit <= 3:
        raise ConfigError(f"--bit for --cipher present must be in [0, 3], got {bit}")
    table = bytearray(PRESENT_SBOX)
    table[index] ^= 1 << bit
    cipher = Present(key, sbox_provider=lambda: bytes(table))
    rng = pyrandom.Random(args.seed)
    pts = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(2000)]
    consumed, state = ciphertexts_to_unique_k32(cipher.encrypt_block, lambda i: pts[i])
    k32 = recover_k32_known_fault(state, PRESENT_SBOX[index])
    truth = Present(key).round_keys[31]
    print(f"ciphertexts consumed: {consumed}")
    print(f"recovered K32:        {k32:016x}")
    print(f"correct:              {k32 == truth}")
    return 0 if k32 == truth else 1


def cmd_procfs(args: argparse.Namespace) -> int:
    """Render one /proc-style view of a machine under a small workload."""
    from repro.core import Machine, MachineConfig
    from repro.os import procfs

    machine = Machine(MachineConfig.small(seed=args.seed))
    kernel = machine.kernel
    task = kernel.spawn("workload", cpu=0)
    va = kernel.sys_mmap(task.pid, 64 * PAGE_SIZE, name="heap")
    for index in range(64):
        kernel.mem_write(task.pid, va + index * PAGE_SIZE, b"w")
    views = {
        "buddyinfo": lambda: procfs.buddyinfo(machine.node),
        "zoneinfo": lambda: procfs.zoneinfo(machine.node),
        "meminfo": lambda: procfs.meminfo(machine.node),
        "maps": lambda: procfs.maps(task),
        "status": lambda: procfs.status_memory(task),
        "pagetypeinfo": lambda: procfs.pagetypeinfo(machine.node),
    }
    print(views[args.view]())
    return 0


class _VersionAction(argparse.Action):
    """``--version`` that reads the package version only when parsed.

    Prints what ``action="version"`` would, ``<prog> <version>``, but
    calls :func:`repro.package_version` (an installed-metadata scan) at
    parse time, so runs that never print it never pay for it.
    """

    def __init__(self, option_strings, dest, help=None):
        super().__init__(
            option_strings, dest, nargs=0, default=argparse.SUPPRESS, help=help
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from repro import package_version

        print(f"{parser.prog} {package_version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (one subcommand per entry point)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExplFrame reproduction: attacks and diagnostics on a simulated machine",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attack = sub.add_parser("attack", help="run the full ExplFrame attack")
    _add_seed(attack)
    attack.add_argument(
        "--modality",
        metavar="NAME",
        default="explframe",
        help="registered attack modality to run (default explframe; see "
        "--list-modalities and docs/ATTACKS.md)",
    )
    attack.add_argument(
        "--list-modalities",
        action="store_true",
        help="print the registered attack modalities and exit",
    )
    attack.add_argument(
        "--cipher", choices=["aes", "aes_ttable", "present"], default="aes"
    )
    attack.add_argument(
        "--evict-slack",
        type=int,
        default=2,
        metavar="N",
        help="evictframe only: eviction-set members beyond the cache's "
        "associativity (default 2)",
    )
    attack.add_argument(
        "--evict-pattern",
        choices=["sequential", "interleave"],
        default="sequential",
        help="evictframe only: per-round access order over aggressors and "
        "their eviction sets (default sequential)",
    )
    attack.add_argument(
        "--scenario",
        metavar="NAME|FILE",
        default=None,
        help="run against a multi-tenant victim workload: a preset name "
        "(single, duet, apartment-8) or a scenario JSON file "
        "(docs/SCENARIOS.md); the target tenant's cipher and CPU override "
        "--cipher",
    )
    attack.add_argument("--buffer-mib", type=int, default=8)
    attack.add_argument("--density", type=float, default=3.0, help="weak cells per row")
    attack.add_argument("--campaigns", type=int, default=4)
    attack.add_argument(
        "--campaign",
        type=int,
        default=0,
        metavar="N",
        help="run N orchestrated attempts as a campaign (0 = single run)",
    )
    # Accepted and ignored: every campaign forks its templated machine.
    # Kept only because bench/workloads.py still passes it.
    attack.add_argument(
        "--fork-from-template", action="store_true", help=argparse.SUPPRESS
    )
    attack.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="with --campaign: run attempts on N worker processes "
        "(default 1 = in-process; the report digest is identical either way)",
    )
    attack.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="with --campaign: journal every attempt to DIR (crash-safe "
        "campaign service; see docs/CAMPAIGNS.md)",
    )
    attack.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: continue an interrupted campaign from the "
        "journal instead of refusing to touch it",
    )
    from repro.sim.chaos import CHAOS_PROFILES

    attack.add_argument(
        "--chaos",
        choices=CHAOS_PROFILES,
        default="none",
        help="inject a chaos profile the orchestrator must survive",
    )
    attack.add_argument(
        "--chaos-intensity", type=float, default=1.0, help="scale the chaos profile"
    )
    attack.add_argument(
        "--deadline",
        type=float,
        default=3600.0,
        help="orchestrator deadline in simulated seconds",
    )
    attack.add_argument(
        "--max-retries", type=int, default=4, help="per-stage retry attempts"
    )
    attack.add_argument(
        "--json",
        action="store_true",
        help="print the AttackRunReport as JSON instead of the text summary",
    )
    attack.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a sim-time trace of the run to FILE (chrome://tracing JSON)",
    )
    attack.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics table after the run",
    )
    attack.set_defaults(func=cmd_attack)

    steer = sub.add_parser("steer", help="steering success-rate trials")
    _add_seed(steer)
    steer.add_argument("--trials", type=int, default=10)
    steer.add_argument("--victim-pages", type=int, default=1)
    steer.add_argument("--cross-cpu", action="store_true")
    steer.add_argument("--noise", type=int, default=0)
    steer.add_argument("--sleep", action="store_true")
    steer.set_defaults(func=cmd_steer)

    template = sub.add_parser("template", help="Rowhammer templating survey")
    _add_seed(template)
    template.add_argument("--buffer-mib", type=int, default=4)
    template.add_argument("--density", type=float, default=3.0)
    template.add_argument("--show", type=int, default=5, help="templates to print")
    template.set_defaults(func=cmd_template)

    pfa = sub.add_parser("pfa", help="offline persistent fault analysis demo")
    _add_seed(pfa)
    pfa.add_argument("--cipher", choices=["aes", "present"], default="aes")
    pfa.add_argument("--key", default=None, help="hex key (default: fixed demo key)")
    pfa.add_argument(
        "--fault-index",
        type=int,
        default=None,
        help="S-box entry to fault (default: 0x42 for aes, 2 for present)",
    )
    pfa.add_argument(
        "--bit", type=int, default=None, help="bit of that entry to flip (default: 3)"
    )
    pfa.set_defaults(func=cmd_pfa)

    proc = sub.add_parser("procfs", help="render /proc-style machine views")
    _add_seed(proc)
    proc.add_argument(
        "--view",
        choices=["buddyinfo", "zoneinfo", "meminfo", "maps", "status", "pagetypeinfo"],
        default="buddyinfo",
    )
    proc.set_defaults(func=cmd_procfs)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    0 = success, 1 = the command ran but failed (e.g. key not recovered),
    2 = invalid arguments, configuration, or an unusable checkpoint.
    """
    from repro.sim.errors import CheckpointError, ConfigError, WorkerLostError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except WorkerLostError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
