"""Experiment T3 — paper Section VI: flip-location repeatability.

Claim under test: *"there is a high probability of getting bit flips in
the same location when conducting Rowhammer on the same virtual address
space"*.  We template a buffer, then repeat the hammering several rounds
(restoring the data pattern in between) and measure which fraction of
flip locations recurs in every round.  The table also reports the raw
templating yield (flips per GiB), the attack's other prerequisite.
"""

from __future__ import annotations

from conftest import small_vulnerable

from repro.analysis.tabulate import format_table, write_results
from repro.attack.templating import TEMPLATE_ROUNDS, Templator, TemplatorConfig
from repro.sim.units import MIB

CONFIG = TemplatorConfig(buffer_bytes=4 * MIB, batch_pairs=8)
REHAMMER_ROUNDS = 4


def test_t3_templating_yield_and_repeatability(benchmark):
    machine = small_vulnerable(seed=3)
    kernel = machine.kernel
    attacker = kernel.spawn("attacker", cpu=0)
    templator = Templator(kernel, attacker.pid, CONFIG)
    result = templator.run()
    assert result.flips_found > 0

    # Repeat-hammer every template and check it reproduces each time.
    recurrence = {template: 0 for template in result.templates}
    for _ in range(REHAMMER_ROUNDS):
        for template in result.templates:
            pattern = 0x00 if template.flips_to_one else 0xFF
            kernel.mem_write(attacker.pid, template.byte_va, bytes([pattern]))
            templator.hammerer.hammer_pair(*template.aggressor_vas)
            byte = kernel.mem_read(attacker.pid, template.byte_va, 1)[0]
            if bool(byte & (1 << template.bit)) == template.flips_to_one:
                recurrence[template] += 1

    always = sum(1 for count in recurrence.values() if count == REHAMMER_ROUNDS)
    ever = sum(1 for count in recurrence.values() if count > 0)

    table = format_table(
        ["metric", "value"],
        [
            ["buffer templated", f"{CONFIG.buffer_bytes // MIB} MiB"],
            ["hammer rounds per pair", TEMPLATE_ROUNDS],
            ["aggressor pairs hammered", result.pairs_hammered],
            ["distinct flips found", result.flips_found],
            ["flips per GiB", f"{result.flips_per_gib:.0f}"],
            ["re-hammer rounds", REHAMMER_ROUNDS],
            ["flips recurring in EVERY round", f"{always}/{result.flips_found}"],
            ["flips recurring at least once", f"{ever}/{result.flips_found}"],
            [
                "repeatability",
                f"{always / result.flips_found:.1%}",
            ],
        ],
        title="T3: flip yield and same-location repeatability",
    )
    write_results("t3_repeatability", table)

    # Paper shape: repeatability is high (the weak-cell map is physical).
    assert always / result.flips_found > 0.9

    template = result.templates[0]
    pattern = 0x00 if template.flips_to_one else 0xFF

    def rehammer_once():
        kernel.mem_write(attacker.pid, template.byte_va, bytes([pattern]))
        templator.hammerer.hammer_pair(*template.aggressor_vas)

    benchmark.pedantic(rehammer_once, rounds=10, iterations=1)
