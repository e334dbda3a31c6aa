"""Per-layer host-time probes, installed around ``repro``'s public functions.

The probes live in the benchmark, not in the program: :class:`LayerTracer`
replaces each listed function with a wrapper that counts calls and
accumulates *self time* (the call's duration minus the part covered by
nested probed calls).  Calls at the ``os`` syscall / memory-operation level
and above also keep a span each (name, start, end, parent, attempt); the
hot leaves below it keep only their counts and self time, which is what
keeps the traced pass affordable.  Spans stay in memory and are written
once, as a Chrome trace, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Probe:
    """One probed function: ``module.owner.attr`` (``owner`` None = module level)."""

    layer: str
    fn: str
    module: str
    owner: str | None
    attr: str
    spans: bool

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.fn}"


def _probes(layer, module, owner, spans, *fns):
    """Probes for ``fns``: attribute names, or ``(label, attribute)`` pairs."""
    return tuple(
        Probe(layer, label, module, owner, attr, spans)
        for label, attr in (fn if isinstance(fn, tuple) else (fn, fn) for fn in fns)
    )


#: Every probed function, grouped by the ``repro`` module it belongs to.
#: Two probes may share a name (``to_dram`` of both mappings); their
#: figures add up under that name.
PROBES: tuple[Probe, ...] = (
    *_probes("dram.cache", "repro.dram.cache", "CpuCache", False, "access", "flush"),
    *_probes("dram.mapping", "repro.dram.mapping", "LinearMapping", False, "to_dram"),
    *_probes("dram.mapping", "repro.dram.mapping", "XorBankMapping", False, "to_dram"),
    *_probes(
        "dram.controller", "repro.dram.controller", "MemoryController", False,
        "access", "hammer",
    ),
    *_probes("dram.bank", "repro.dram.bank", "Bank", False, "access", "bulk_activate"),
    *_probes(
        "dram.memory", "repro.dram.memory", "PhysicalMemory", False,
        "read", "write", "clear_frame",
    ),
    *_probes("vm", "repro.vm.pagetable", "PageTable", False, "translate", "is_mapped"),
    *_probes(
        "os", "repro.os.kernel", "Kernel", True,
        "mem_read", "mem_write", "sys_hammer", "sys_hammer_evict", "sys_mmap", "sys_munmap",
    ),
    *_probes(
        "mm", "repro.mm.allocator", "ZonedPageFrameAllocator", False,
        "alloc_pages", "free_pages",
    ),
    *_probes(
        "sim.events", "repro.sim.events", "EventScheduler", False,
        "dispatch_due", "run_until",
    ),
    *_probes(
        "attack.template", "repro.attack.templating", "Templator", True,
        "run", "discover_pairs",
    ),
    *_probes("attack.template", "repro.attack.hammer", "Hammerer", True, "fill"),
    *_probes("attack.steer", "repro.attack.explframe", "ExplFrameAttack", True, "stage_and_steer"),
    *_probes(
        "attack.evictset", "repro.attack.evictframe", "EvictFrameAttack", True,
        "derive_eviction_set",
    ),
    *_probes(
        "ciphers", "repro.ciphers.table_memory", "CipherVictim", True,
        "encrypt", "encrypt_batch", "table_is_faulty",
    ),
    *_probes("pfa", "repro.pfa.pfa", "PfaState", True, "update"),
    *_probes("pfa", "repro.pfa.pfa", None, True, "recover_k10_known_fault"),
    *_probes(
        "workload", "repro.workload.engine", "WorkloadEngine", True,
        "start", "await_target_window", "attach_target", "probe_target",
    ),
    *_probes(
        "core", "repro.core.machine", "Machine", True,
        ("machine_init", "__init__"), "snapshot",
    ),
    *_probes("core", "repro.core.machine", "MachineSnapshot", True, "fork"),
)

#: Probe names in table order, each once.
NAMES: tuple[str, ...] = tuple(dict.fromkeys(probe.name for probe in PROBES))
#: Layer names in table order, each once.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(probe.layer for probe in PROBES))


class LayerTracer:
    """Counts, self times and spans for :data:`PROBES` (or a given list).

    ``covered_s`` is the time spent inside outermost probed calls; it is
    measured independently of the self times, which must sum to it, so the
    untraced remainder ``other`` and the layers together account for the
    traced wall exactly.
    """

    def __init__(self, probes=PROBES, clock=time.perf_counter):
        self.probes = tuple(probes)
        self.names = tuple(dict.fromkeys(probe.name for probe in self.probes))
        self.clock = clock
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.covered_s = 0.0
        # (name index or -1 for an attempt, start, end, span id, parent id, attempt)
        self.spans: list[tuple] = []
        self._children: list[float] = []  # child time of each open probed call
        self._open: list[int] = []  # ids of open spans (probes and attempts)
        self._next_id = 0
        self._attempt: int | None = None
        self._restore: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, index: int, spans: bool):
        """``fn`` wrapped to account its calls under name ``index``."""
        # The accounting is inlined in both wrappers rather than shared
        # through a helper: the leaves run millions of times per attack.
        clock, calls, self_s = self.clock, self.calls, self.self_s
        children, open_ids, records = self._children, self._open, self.spans

        if not spans:

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                children.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    calls[index] += 1
                    self_s[index] += elapsed - children.pop()
                    if children:
                        children[-1] += elapsed
                    else:
                        self.covered_s += elapsed

            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = open_ids[-1] if open_ids else None
            open_ids.append(span_id)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                calls[index] += 1
                self_s[index] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.covered_s += elapsed
                open_ids.pop()
                records.append((index, start, end, span_id, parent, self._attempt))

        return spanned

    def install(self) -> None:
        """Swap every probe's function for its wrapper (import as needed)."""
        # Import everything first, so a module-level function is rebound in
        # every module that has imported it by name.
        for probe in self.probes:
            importlib.import_module(probe.module)
        for probe in self.probes:
            module = sys.modules[probe.module]
            index = self.names.index(probe.name)
            if probe.owner is None:
                original = getattr(module, probe.attr)
                wrapped = self.wrap(original, index, probe.spans)
                # Rebind every module that imported the function by name.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(probe.attr) is original:
                        self._restore.append((mod, probe.attr, original))
                        setattr(mod, probe.attr, wrapped)
            else:
                owner = getattr(module, probe.owner)
                original = owner.__dict__[probe.attr]
                self._restore.append((owner, probe.attr, original))
                setattr(owner, probe.attr, self.wrap(original, index, probe.spans))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- attempts -------------------------------------------------------------

    def open_attempt(self, attempt: int) -> None:
        """Mark the start of attempt ``attempt``; spans inside carry its id."""
        self._attempt = attempt
        self._open.append(self._next_id)
        self._next_id += 1

    def close_attempt(self, start: float, end: float) -> None:
        """Record the attempt's own span (its time counts as ``other``)."""
        span_id = self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans.append((-1, start, end, span_id, parent, self._attempt))
        self._attempt = None

    # -- results --------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-probe calls/self time, per-layer totals and the ``other`` bucket."""
        layers: dict[str, float] = {}
        probes: dict[str, dict] = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            probes[name] = {"calls": calls, "self_s": self_s}
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return {
            "wall_s": wall_s,
            "other_s": wall_s - self.covered_s,
            "layers": layers,
            "probes": probes,
            "spans": len(self.spans),
        }

    def write_chrome(self, path: str, origin: float) -> None:
        """Write the spans as a Chrome trace (Perfetto / chrome://tracing)."""
        events = []
        for index, start, end, span_id, parent, attempt in sorted(
            self.spans, key=lambda span: (span[1], -span[2])
        ):
            name = "attempt" if index < 0 else self.names[index]
            events.append({
                "name": name,
                "cat": "attempt" if index < 0 else name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "attempt": attempt},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
