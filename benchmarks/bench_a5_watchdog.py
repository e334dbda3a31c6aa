"""Ablation A5 — software detection of the attack (ANVIL-style watchdog).

Measures the separation an activation-rate detector gets between the
attack and ordinary workloads on the same machine:

* the attacker's templating campaign concentrates ~1.2 M activations
  into single refresh windows;
* allocation churn, page-cache streaming and AES encryption stay three
  to four orders of magnitude below that;

so a per-window threshold anywhere in the wide gap yields perfect
true/false-positive separation on these workloads.  The second table
sweeps the threshold to show the operating band.
"""

from __future__ import annotations

import numpy as np

from conftest import small_vulnerable

from repro.analysis.tabulate import format_table, write_results
from repro.attack.templating import Templator, TemplatorConfig
from repro.ciphers.table_memory import CipherVictim
from repro.defense.watchdog import HammerWatchdog, WatchdogConfig
from repro.sim.units import MIB, PAGE_SIZE

TEMPLATOR = TemplatorConfig(buffer_bytes=2 * MIB, batch_pairs=8)


def run_workloads():
    """One machine, four workloads; returns (machine, pid-by-name)."""
    machine = small_vulnerable(seed=5)
    kernel = machine.kernel

    churner = kernel.spawn("churner", cpu=1)
    kernel.churn(churner.pid, 512)

    reader = kernel.spawn("reader", cpu=1)
    kernel.sys_file_read(reader.pid, 9, 0, 512 * PAGE_SIZE)

    victim = CipherVictim(kernel, bytes(16), cpu=1, name="aes-server")
    victim.allocate_table_page()
    rng = np.random.default_rng(0)
    victim.encrypt_batch(256, rng)
    for _ in range(32):
        victim.encrypt(bytes(16))

    attacker = kernel.spawn("attacker", cpu=0)
    Templator(kernel, attacker.pid, TEMPLATOR).run()

    pids = {
        "allocation churn (512 pages)": churner.pid,
        "page-cache streaming (2 MiB)": reader.pid,
        "AES encryption service": victim.pid,
        "Rowhammer templating": attacker.pid,
    }
    return machine, pids


def test_a5_watchdog_separation(benchmark):
    machine, pids = run_workloads()
    ledger = machine.kernel.ledger

    rows = []
    hottest = {}
    for name, pid in pids.items():
        peak = ledger.max_per_window(pid)
        hottest[name] = peak
        rows.append([name, pid, peak])
    table = format_table(
        ["workload", "pid", "peak activations in one refresh window"],
        rows,
        title="A5: per-task DRAM activation peaks (same machine)",
    )

    attack_peak = hottest["Rowhammer templating"]
    benign_peak = max(
        peak for name, peak in hottest.items() if name != "Rowhammer templating"
    )
    # The detection gap: the attack is orders of magnitude hotter.
    assert attack_peak > 50 * max(benign_peak, 1)

    rows2 = []
    for threshold in (10_000, 50_000, 100_000, 500_000, 1_000_000):
        watchdog = HammerWatchdog(WatchdogConfig(threshold_per_window=threshold))
        watchdog.scan(ledger)
        flagged = watchdog.flagged_pids()
        true_positive = pids["Rowhammer templating"] in flagged
        false_positives = len(flagged - {pids["Rowhammer templating"]})
        rows2.append(
            [
                threshold,
                "yes" if true_positive else "NO",
                false_positives,
            ]
        )
    table2 = format_table(
        ["threshold (activations/window)", "attacker flagged", "false positives"],
        rows2,
        title="A5b: watchdog threshold sweep",
    )
    write_results("a5_watchdog", table + "\n\n" + table2)

    # Across the entire sweep there are no false positives, and every
    # threshold up to the physical hammer rate catches the attacker.
    assert all(row[2] == 0 for row in rows2)
    assert all(row[1] == "yes" for row in rows2[:4])

    benchmark.pedantic(
        lambda: HammerWatchdog(WatchdogConfig()).scan(ledger), rounds=20, iterations=1
    )
