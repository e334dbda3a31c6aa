"""Experiment T10 — copy-on-write snapshots + vectorized flip evaluation.

The claim behind the CoW refactor: campaign fan-out cost was dominated
by ``MachineSnapshot.fork`` deep-copying the whole warm machine (~170 ms
each), and the hammer loop by per-cell Python bit probing.  After the
refactor a fork is a small object-graph unpickle whose frames are shared
copy-on-write with the snapshot (O(1) in module size), and victim-row
evaluation batches its threshold compare and data-pattern gather through
numpy for dense rows while keeping the scalar loop for sparse ones.

Everything is measured against the checked-in pre-CoW baseline
(``results/t10_cow_baseline.json``, recorded on the PR-5 tree before
any of this landed).  One table, three claims:

* fork cost: live fork must be >= ``MIN_FORK_SPEEDUP`` cheaper than the
  baseline's deep-copy fork,
* hammer loop: the dense-row model (64 weak cells/row mean) must be
  measurably faster and flip-for-flip identical; the sparse campaign
  model (~0.5 cells/row) must not regress — both are reported,
* digests: a 2-attempt campaign run serial and on 4 ship workers must
  both equal the T10 golden in ``goldens.json``, the pre-CoW digest —
  the refactor is invisible to the attack, bit for bit.

The baseline timings came from this host class; cross-host comparisons
are indicative only, which is why the hard gates are the (host-relative)
fork ratio and the (host-free) digest + flip-count equalities.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

SEED = 7
MIN_FORK_SPEEDUP = 50.0
MIN_DENSE_SPEEDUP = 1.2
MAX_SPARSE_REGRESSION = 1.15  # sparse loop may not get >15% slower

BASELINE_PATH = Path(__file__).resolve().parent / "results" / "t10_cow_baseline.json"
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

#: Dense flip model: enough weak cells per row that the vector path runs.
DENSE_MODEL = dict(
    weak_cells_per_row_mean=64.0,
    threshold_mean=600_000.0,
    threshold_sd=100_000.0,
    threshold_min=200_000,
    threshold_max=1_200_000,
)


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


def measure_fork() -> dict:
    """Warm one campaign snapshot; time forks and the shipped blob size."""
    from repro.attack.orchestrator import AttackCampaign

    campaign = AttackCampaign(
        _campaign_config(), 2, attack_config=_fast_attack()
    )
    begin = time.perf_counter()
    snapshot = campaign._warm_snapshot()
    build_s = time.perf_counter() - begin
    fork_times = []
    for _ in range(20):  # forks are ~ms; a deep min() shakes allocator noise
        begin = time.perf_counter()
        snapshot.fork(seed=123)
        fork_times.append(time.perf_counter() - begin)
    return {
        "snapshot": snapshot,
        "build_s": build_s,
        "fork_s": min(fork_times),
        "blob_bytes": len(snapshot.to_bytes()),
    }


def measure_hammer_sparse(snapshot) -> float:
    """200 hammer calls on a warm campaign fork (sparse weak-cell rows)."""
    from repro.dram.geometry import DRAMAddress

    machine, _ = snapshot.fork(seed=SEED)
    controller = machine.controller
    mapping = controller.mapping
    pair = [mapping.to_phys(DRAMAddress(0, 0, 0, row, 0)) for row in (99, 101)]
    controller.hammer(pair, 600_000)  # warm the weak-cell memo
    best = None
    for _ in range(6):  # best-of-6, matching the baseline recording
        begin = time.perf_counter()
        for _ in range(200):
            controller.hammer(pair, 600_000)
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None or elapsed < best else best
    return best


def measure_hammer_dense() -> tuple[float, int]:
    """100 hammer calls on a bare controller with a dense flip model."""
    from repro.dram.controller import MemoryController
    from repro.dram.flipmodel import FlipModelConfig
    from repro.dram.geometry import DRAMAddress, DRAMGeometry
    from repro.dram.mapping import LinearMapping
    from repro.dram.timing import DRAMTiming
    from repro.sim.clock import SimClock
    from repro.sim.rng import RngStreams

    geometry = DRAMGeometry.small()
    controller = MemoryController(
        geometry=geometry,
        mapping=LinearMapping(geometry),
        timing=DRAMTiming(),
        flip_config=FlipModelConfig(**DENSE_MODEL),
        rng=RngStreams(SEED),
        clock=SimClock(),
    )
    mapping = controller.mapping
    pair = [mapping.to_phys(DRAMAddress(0, 0, 0, row, 0)) for row in (99, 101)]
    controller.hammer(pair, 600_000)  # warm the weak-cell memo
    best = None
    for _ in range(4):  # best-of-4, matching the baseline recording
        begin = time.perf_counter()
        for _ in range(100):
            controller.hammer(pair, 600_000)
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None or elapsed < best else best
    return best, len(controller.flip_log)


def campaign_digests() -> dict:
    """The 2-attempt campaign digest: serial and 4-worker ship."""
    from repro.attack.orchestrator import AttackCampaign

    def build(**kwargs):
        return AttackCampaign(
            _campaign_config(),
            2,
            attack_config=_fast_attack(),
            **kwargs,
        )

    serial = build().run()
    ship = build(workers=4).run()
    assert serial.successes == 2
    return {"serial": serial.digest(), "ship x4": ship.digest()}


def test_t10_cow_fork_and_flip_vectorization(benchmark):
    from repro.analysis.tabulate import format_table, write_results

    baseline = json.loads(BASELINE_PATH.read_text())
    golden = json.loads(GOLDENS_PATH.read_text())["T10"]["digest"]

    fork = measure_fork()
    sparse_s = measure_hammer_sparse(fork["snapshot"])
    dense_s, dense_flips = measure_hammer_dense()
    digests = campaign_digests()

    fork_speedup = baseline["fork_s"] / fork["fork_s"]
    sparse_speedup = baseline["hammer_sparse_200_calls_s"] / sparse_s
    dense_speedup = baseline["hammer_dense_100_calls_s"] / dense_s

    rows = [
        [
            "snapshot.fork (1 call)",
            f"{baseline['fork_s'] * 1e3:.1f} ms",
            f"{fork['fork_s'] * 1e3:.2f} ms",
            f"{fork_speedup:.1f}x",
        ],
        [
            "hammer, sparse rows (200 calls)",
            f"{baseline['hammer_sparse_200_calls_s'] * 1e3:.1f} ms",
            f"{sparse_s * 1e3:.1f} ms",
            f"{sparse_speedup:.2f}x",
        ],
        [
            "hammer, dense rows (100 calls)",
            f"{baseline['hammer_dense_100_calls_s'] * 1e3:.1f} ms",
            f"{dense_s * 1e3:.1f} ms",
            f"{dense_speedup:.2f}x",
        ],
        [
            "ship blob",
            f"{baseline['snapshot_blob_bytes']:,} B",
            f"{fork['blob_bytes']:,} B",
            f"{baseline['snapshot_blob_bytes'] / fork['blob_bytes']:.2f}x",
        ],
    ]
    digest_rows = [
        [mode, digest[:16], str(digest == golden)]
        for mode, digest in digests.items()
    ]
    table = "\n\n".join(
        [
            format_table(
                ["operation", "pre-CoW baseline", "CoW + vector", "speedup"],
                rows,
                title=(
                    f"T10: copy-on-write snapshots + vectorized flip model "
                    f"(seed {SEED}, dense flips {dense_flips})"
                ),
            ),
            format_table(
                ["campaign mode", "digest[:16]", "== pre-CoW digest"],
                digest_rows,
                title="T10: 2-attempt campaign digest parity vs pre-CoW baseline",
            ),
        ]
    )
    write_results("t10_cow", table)

    # Claim 1: fan-out forks are near-free relative to the deep-copy era.
    assert fork_speedup >= MIN_FORK_SPEEDUP, (
        f"fork speedup {fork_speedup:.1f}x below the {MIN_FORK_SPEEDUP}x bar "
        f"({fork['fork_s'] * 1e3:.2f} ms vs baseline {baseline['fork_s'] * 1e3:.1f} ms)"
    )
    # Claim 2: the vectorized flip model is faster where it matters and
    # flip-for-flip identical; the sparse scalar fallback does not regress.
    assert dense_flips == baseline["hammer_dense_flips"], (
        f"dense hammer produced {dense_flips} flips, "
        f"baseline produced {baseline['hammer_dense_flips']}"
    )
    assert dense_speedup >= MIN_DENSE_SPEEDUP, (
        f"dense hammer speedup {dense_speedup:.2f}x below {MIN_DENSE_SPEEDUP}x"
    )
    assert sparse_s <= baseline["hammer_sparse_200_calls_s"] * MAX_SPARSE_REGRESSION, (
        f"sparse hammer regressed: {sparse_s:.4f}s vs "
        f"baseline {baseline['hammer_sparse_200_calls_s']:.4f}s"
    )
    # Claim 3: none of it is visible to the attack — every execution mode
    # still produces the exact pre-CoW campaign digest.
    for mode, digest in digests.items():
        assert digest == golden, (
            f"{mode} digest {digest} diverged from the T10 golden (pre-CoW)"
        )

    snapshot = fork["snapshot"]
    benchmark.pedantic(
        lambda: snapshot.fork(seed=123),
        rounds=5,
        iterations=1,
    )
