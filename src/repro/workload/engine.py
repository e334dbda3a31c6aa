"""The workload engine: tenants as event-driven victim processes.

Each tenant is a schedulable task whose encryption requests arrive as
self-rescheduling events on the ``"workload"`` queue.  Arrival instants
are a pure function of the tenant's private RNG stream — the delays are
drawn off ``workload.arrivals/<name>`` in order, so adding or removing
*other* tenants never perturbs a tenant's request schedule (asserted in
tests; the contract docs/SCENARIOS.md relies on).

Background tenants get their victims (and table pages) at
:meth:`WorkloadEngine.start`.  The *target* tenant starts with no
victim: the attack creates one per steering attempt and hands it over
via :meth:`WorkloadEngine.attach_target`, so the target's traffic is
served by whichever process the attacker is currently steering against.

Serving a request costs simulated time (each block's table fetches, as
one encryption makes them) and — when ``scratch_pages > 0`` — churns the
CPU's page frame cache: each request maps fresh scratch and frees the
*previous* request's, the noisy-neighbour interference T12 measures.
"""

from __future__ import annotations

from repro.attack.base import TargetVictim
from repro.ciphers.table_memory import CipherVictim
from repro.obs.metrics import metric_key
from repro.os.task import TaskState
from repro.sim.errors import ConfigError
from repro.sim.units import PAGE_SIZE
from repro.workload.scenario import Scenario, TenantSpec

#: Events land on this queue; the kernel drains it at every syscall pump
#: (and any ``run_until`` fires it in global due order).
WORKLOAD_QUEUE = "workload"

#: Arrival offsets kept per tenant for inspection (ring buffer bound).
_MAX_RECORDED_ARRIVALS = 4096


class _Tenant:
    """Runtime state of one tenant (spec + victim + counters).

    A tenant points at its machine, never back at its engine: the engine
    holds its tenants, so a back-pointer would make every workload a
    reference cycle that outlives the machine it ran on.
    """

    def __init__(self, machine, spec: TenantSpec, key: bytes, *, is_target: bool):
        self.machine = machine
        self.spec = spec
        self.key = key
        self.is_target = is_target
        self.epoch_ns = 0
        self.victim: CipherVictim | None = None
        self.queue = 0
        self.issued = 0
        self.served = 0
        self.dropped = 0
        self.blocks_encrypted = 0
        self.next_due_ns: int | None = None
        self.arrival_offsets: list[int] = []
        self._scratch_va: int | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    def bind_obs(self, obs, encryptions) -> None:
        """Register this tenant's metrics; ``encryptions`` is its role's counter."""
        self.obs = obs
        metrics = obs.metrics
        labels = {"tenant": self.name}
        self._m_issued = metrics.counter("workload.tenant.requests_issued", labels=labels)
        self._m_served = metrics.counter("workload.tenant.requests_served", labels=labels)
        self._m_dropped = metrics.counter("workload.tenant.requests_dropped", labels=labels)
        self._m_encryptions = encryptions

    # RNG streams are re-fetched on every draw: ``RngStreams.reseed()``
    # (campaign attempts) invalidates memoized streams, and a cached
    # generator would silently keep the old seed.
    def _arrival_rng(self):
        return self.machine.rng.stream(f"workload.arrivals/{self.name}")

    def _draw_delay_ns(self) -> int:
        spec = self.spec
        mean = spec.mean_interarrival_ns
        span = spec.jitter
        u = self._arrival_rng().random()
        return max(1, round(mean * (1.0 - span + 2.0 * span * u)))

    def schedule_first(self, epoch_ns: int) -> None:
        self.epoch_ns = epoch_ns
        self.next_due_ns = epoch_ns + self._draw_delay_ns()
        self._arm()

    def _arm(self) -> None:
        self.machine.events.schedule(
            f"workload.request.{self.name}",
            self.next_due_ns,
            self._on_fire,
            queue=WORKLOAD_QUEUE,
        )

    def _on_fire(self, now_ns: int) -> None:
        self._catch_up()
        if self.victim is not None:
            if self.queue:
                self._serve()
            if self.spec.scratch_pages:
                self._churn_scratch()
        # Serving advanced the clock; account anything that came due
        # meanwhile (they stay queued for the next fire) so the re-arm
        # below is always strictly in the future.
        self._catch_up()
        self._arm()

    def _catch_up(self) -> None:
        """Materialise every arrival due by now — pure accounting."""
        clock = self.machine.clock
        while self.next_due_ns <= clock.now_ns:
            self._record_arrival(self.next_due_ns)
            self.next_due_ns += self._draw_delay_ns()

    def _record_arrival(self, due_ns: int) -> None:
        spec = self.spec
        if len(self.arrival_offsets) < _MAX_RECORDED_ARRIVALS:
            self.arrival_offsets.append(due_ns - self.epoch_ns)
        self.issued += spec.burst
        self._m_issued.inc(spec.burst)
        accepted = min(spec.burst, spec.max_queue - self.queue)
        if accepted < spec.burst:
            lost = spec.burst - accepted
            self.dropped += lost
            self._m_dropped.inc(lost)
        self.queue += accepted
        self.obs.tracer.instant(
            "workload.request", "workload", tenant=self.name, queue=self.queue
        )

    def _serve(self) -> None:
        """Serve the queue: every payload block is one ``victim.fetch_tables()``.

        Nothing reads an organic ciphertext; probes, whose ciphertexts are
        read, encrypt through :meth:`WorkloadEngine.probe_target`.
        """
        spec, victim = self.spec, self.victim
        kernel = self.machine.kernel
        if spec.sleeps and victim.task.state is TaskState.SLEEPING:
            kernel.sys_wake(victim.pid)
        served, self.queue = self.queue, 0
        blocks = served * spec.payload_blocks
        for _ in range(blocks):
            victim.fetch_tables()
        self.served += served
        self.blocks_encrypted += blocks
        self._m_served.inc(served)
        self._m_encryptions.inc(blocks)
        if spec.sleeps:
            kernel.sys_sleep(victim.pid)

    def _churn_scratch(self) -> None:
        """Rolling per-request working memory: map fresh, free previous.

        Freeing *after* mapping means an odd number of arrivals inside a
        steering window leaves the staged frame captured by scratch — the
        interference is real churn, not a no-op push-pop.
        """
        spec = self.spec
        kernel = self.machine.kernel
        pid = self.victim.pid
        previous = self._scratch_va
        length = spec.scratch_pages * PAGE_SIZE
        self._scratch_va = kernel.sys_mmap(
            pid, length, populate=True, name=f"scratch-{self.name}"
        )
        if previous is not None:
            kernel.sys_munmap(pid, previous, length)


class WorkloadEngine:
    """Drives a :class:`Scenario`'s tenants on one machine."""

    def __init__(self, machine, scenario: Scenario):
        self.machine = machine
        self.kernel = machine.kernel
        self.scenario = scenario
        num_cpus = machine.num_cpus
        for spec in scenario.tenants:
            if spec.cpu is not None and spec.cpu >= num_cpus:
                raise ConfigError(
                    f"tenant {spec.name!r} pins cpu {spec.cpu} but the machine "
                    f"has {num_cpus} CPUs"
                )
        self.tenants: dict[str, _Tenant] = {}
        for spec in scenario.tenants:
            key = spec.resolve_key(machine.rng.stream(f"workload.key/{spec.name}"))
            self.tenants[spec.name] = _Tenant(
                machine, spec, key, is_target=spec.name == scenario.target
            )
        self.started = False
        self.epoch_ns = 0
        self.bind_obs(machine.obs)

    @property
    def target(self) -> _Tenant:
        """The targeted tenant's runtime state."""
        return self.tenants[self.scenario.target]

    @property
    def target_key(self) -> bytes:
        """The key the attack must recover."""
        return self.target.key

    @property
    def background_count(self) -> int:
        """Number of non-target tenants."""
        return len(self.tenants) - 1

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (re-run on machine fork)."""
        self.obs = obs
        metrics = obs.metrics
        encryptions = {
            role: metrics.counter("workload.tenant.encryptions", labels={"role": role})
            for role in ("target", "noise")
        }
        for tenant in self.tenants.values():
            tenant.bind_obs(obs, encryptions["target" if tenant.is_target else "noise"])
        metrics.add_collector(self._metric_values)

    def _metric_values(self) -> dict:
        """Each tenant's queue depth (the collector-sourced gauge)."""
        return {
            metric_key("workload.tenant.queue_depth", {"tenant": name}): tenant.queue
            for name, tenant in self.tenants.items()
        }

    def start(self) -> None:
        """Spawn background victims and begin every tenant's stream.

        The workload epoch is stamped *after* victim setup (process
        creation costs simulated time), so per-tenant arrival offsets
        from the epoch depend only on that tenant's own RNG stream.
        """
        if self.started:
            raise ConfigError("workload already started")
        self.started = True
        for tenant in self.tenants.values():
            if tenant.is_target:
                continue
            victim = CipherVictim(
                self.kernel,
                tenant.key,
                cpu=tenant.spec.cpu,
                cipher=tenant.spec.cipher,
                name=f"tenant-{tenant.name}",
            )
            victim.allocate_table_page()
            tenant.victim = victim
        self.epoch_ns = self.machine.clock.now_ns
        for tenant in self.tenants.values():
            tenant.schedule_first(self.epoch_ns)

    def attach_target(self, victim: TargetVictim) -> None:
        """Hand the target tenant the victim the attack just steered.

        Accepts any modality's steered victim structurally (the
        :class:`~repro.attack.base.TargetVictim` protocol:
        :class:`CipherVictim` is the canonical implementation).  The
        previous incarnation (an earlier steering attempt) exits,
        returning its frames to the page frame cache — the attack calls
        this *after* scoring the new allocation, so the exit can't
        perturb the steer it follows.
        """
        if not isinstance(victim, TargetVictim):
            raise ConfigError(
                f"target victim {victim!r} does not implement the "
                "TargetVictim protocol (pid, encrypt, fetch_tables)"
            )
        tenant = self.target
        previous = tenant.victim
        tenant.victim = victim
        # The rolling scratch mapping lived in the previous incarnation's
        # address space; it dies with that process, not via munmap here.
        tenant._scratch_va = None
        if previous is not None:
            self.kernel.sys_exit(previous.pid)

    def probe_target(self, plaintext: bytes) -> bytes:
        """Encrypt one block on the target tenant's victim; return the ciphertext.

        The FAULT+PROBE response-discrepancy oracle: a probe is one more
        request the target serves (counted in its issued/served/encryption
        totals), not a side-channel call behind the engine's back — so
        probing traffic shows up in tenant summaries and metrics exactly
        like organic load, whose blocks only fetch the tables.
        """
        tenant = self.target
        victim = tenant.victim
        if victim is None:
            raise ConfigError("no victim attached to the target tenant")
        ciphertext = victim.encrypt(plaintext)
        tenant.issued += 1
        tenant.served += 1
        tenant.blocks_encrypted += 1
        tenant._m_issued.inc()
        tenant._m_served.inc()
        tenant._m_encryptions.inc()
        return ciphertext

    def await_target_window(self) -> int:
        """Run background traffic up to just before the target's next request.

        Returns that request's due time.  This is the steering window: the
        attacker stages frames, waits out the window (noisy neighbours
        churn the page frame cache meanwhile), and the target's allocation
        happens at the window's edge.
        """
        if not self.started:
            raise ConfigError("workload not started")
        due = self.target.next_due_ns
        if due - 1 > self.machine.clock.now_ns:
            self.machine.run_until(due - 1)
        return due

    def summary(self) -> dict:
        """Per-tenant traffic counters (plain data, for reports/CLI)."""
        out = {}
        for name, tenant in self.tenants.items():
            out[name] = {
                "role": "target" if tenant.is_target else "noise",
                "cipher": tenant.spec.cipher,
                "key_bits": tenant.spec.resolved_key_bits,
                "rate_hz": tenant.spec.request_rate_hz,
                "issued": tenant.issued,
                "served": tenant.served,
                "dropped": tenant.dropped,
                "queued": tenant.queue,
                "blocks_encrypted": tenant.blocks_encrypted,
            }
        return out
