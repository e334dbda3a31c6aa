#!/usr/bin/env python3
"""Rowhammer templating survey: map a module's vulnerable cells.

Templates a buffer on a simulated vulnerable module and reports the flip
population the way a Rowhammer characterisation study would: yield per
GiB, direction split (true vs anti cells), in-page offset spread, and a
repeatability check across repeated hammer rounds.  Also demonstrates the
two negative controls: hammering without clflush (cache absorbs it) and
hammering cross-bank pairs (row buffer absorbs it).

Run:  python examples/templating_survey.py

CLI equivalent:  python -m repro template --buffer-mib 8 --show 5
(--density scales weak cells per row)
"""

from collections import Counter

from repro import Machine, MachineConfig, TemplatorConfig, Templator
from repro.attack.templating import TEMPLATE_ROUNDS
from repro.sim.units import MIB


def main() -> None:
    machine = Machine(MachineConfig.vulnerable(seed=11))
    kernel = machine.kernel
    attacker = kernel.spawn("surveyor", cpu=0)
    config = TemplatorConfig(buffer_bytes=8 * MIB, batch_pairs=8)
    templator = Templator(kernel, attacker.pid, config)

    print(f"templating {config.buffer_bytes // MIB} MiB, {TEMPLATE_ROUNDS} rounds/pair...")
    result = templator.run()
    print(f"  pairs hammered: {result.pairs_hammered}")
    print(f"  distinct flips: {result.flips_found}  ({result.flips_per_gib:.0f}/GiB)")
    print(f"  simulated time: {result.elapsed_ns / 1e9:.2f} s")

    directions = Counter(
        "0->1" if template.flips_to_one else "1->0" for template in result.templates
    )
    print(f"  direction split: {dict(directions)} (anti vs true cells)")

    bits = Counter(template.bit for template in result.templates)
    print(f"  bit positions:   {dict(sorted(bits.items()))}")

    quarter = Counter(template.page_offset // 1024 for template in result.templates)
    print(f"  page quarter:    {dict(sorted(quarter.items()))} (flips spread over pages)")

    # Repeatability: the property Section VI of the paper relies on.
    template = result.templates[0]
    pattern = 0x00 if template.flips_to_one else 0xFF
    hits = 0
    rounds = 5
    for _ in range(rounds):
        kernel.mem_write(attacker.pid, template.byte_va, bytes([pattern]))
        templator.hammerer.hammer_pair(*template.aggressor_vas)
        byte = kernel.mem_read(attacker.pid, template.byte_va, 1)[0]
        hits += bool(byte & (1 << template.bit)) == template.flips_to_one
    print(f"  repeatability:   first template re-flipped {hits}/{rounds} rounds")

    # Negative control 1: no clflush, no flips.
    va_a, va_b = template.aggressor_vas
    no_flush = templator.hammerer.hammer_without_flush(va_a, va_b)
    print(f"  without clflush: {no_flush.activations} activations "
          f"(cache absorbs the loop) -> hammering requires flushing")

    # Negative control 2: an invulnerable module yields nothing.
    clean_machine = Machine(MachineConfig.invulnerable(seed=11))
    clean_attacker = clean_machine.kernel.spawn("surveyor", cpu=0)
    clean = Templator(
        clean_machine.kernel,
        clean_attacker.pid,
        TemplatorConfig(buffer_bytes=2 * MIB, batch_pairs=8),
    ).run()
    print(f"  invulnerable module control: {clean.flips_found} flips")


if __name__ == "__main__":
    main()
