"""End-to-end ExplFrame: template -> steer -> re-hammer -> PFA -> key.

This is the complete attack the paper's title promises, run against a
simulated AES victim:

1. **Template.**  The unprivileged attacker finds repeatable flips in her
   buffer and filters for ones usable against the victim's table: the flip
   must land at an in-page offset inside the S-box region (the table's
   offset within its page is public binary layout), and its direction must
   be *armed* by the S-box data (a 1->0 cell needs the table bit to be 1).
2. **Steer.**  She munmaps the flippy page and stays active; the victim
   process starts up and makes its small table allocation on the shared
   CPU, receiving the staged frame.
3. **Re-hammer.**  She hammers the *same aggressor virtual addresses*
   again; the same physical cell flips — now inside the victim's S-box.
4. **Analyse.**  She triggers encryptions and runs Persistent Fault
   Analysis; because she templated the flip she knows exactly which S-box
   entry and bit changed (v* is known), so the missing-value statistics
   give the last round key directly and the schedule inverts to the
   master key.

All scoring against ground truth (did steering land? is the table really
faulty? does the key match?) uses instrumentation outside the attacker's
view.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

from repro.attack.base import (
    FailureClass,
    GENERIC_STAGES,
    ResolutionStage,
    StageFailure,
    StageOutcome,
)
from repro.attack.templating import Templator, TemplatorConfig
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.present import PRESENT_SBOX, Present
from repro.ciphers.table_memory import DEFAULT_TABLE_OFFSET, CipherVictim
from repro.core.machine import Machine
from repro.core.results import FlipTemplate
from repro.pfa.keyrank import KeyCandidates
from repro.pfa.pfa import (
    PfaState,
    invert_key_schedule_128,
    recover_k10_known_fault,
)
from repro.sim.errors import ConfigError, FaultError, TemplatingExhaustedError
from repro.sim.units import PAGE_SIZE


#: Ciphertexts per victim encryption batch while collecting for PFA.
PFA_BATCH = 256
#: Batches PFA encrypts ahead in one kernel call: its first block, then
#: each later block.  Any size is exact (batches are still fetched,
#: counted and stop-tested one at a time); the size only sets how much
#: host work a stop wastes.  A key becomes unique after 7 to 18 batches
#: (median 9 over 600 machine seeds), so the first block rarely wastes one.
PFA_FIRST_BLOCK = 8
PFA_LATER_BLOCK = 1
#: First PFA ciphertext budget; each retry of the stage doubles it.
PFA_LIMIT = 20_000
#: Hammer passes over a template's aggressors before the re-hammer stage
#: reports the flip as non-repeatable.
REHAMMER_ATTEMPTS = 3


@dataclass(frozen=True)
class ExplFrameConfig:
    """Parameters of a full attack run (the config every modality shares).

    ``cipher`` selects the victim implementation: ``"aes"`` (AES-128,
    256-byte S-box, full master key via schedule inversion),
    ``"aes_ttable"`` (classic T-table AES-128: Te0..Te3 fill the victim's
    first table page and the last-round S-box sits in a second page, so
    the attacker stages *two* frames and steers the flippy one into the
    victim's second allocation), or ``"present"`` (PRESENT-80, 16-byte
    nibble table; PFA yields the full 64-bit last round key, which is
    what a run recovers — the 16-bit schedule residue is left to
    :func:`repro.pfa.recover_present80_key`).

    The victim table always sits at ``DEFAULT_TABLE_OFFSET`` in its page,
    and the PFA and re-hammer budgets are the module constants
    ``PFA_BATCH``, ``PFA_LIMIT`` and ``REHAMMER_ATTEMPTS``.
    """

    templator: TemplatorConfig = field(default_factory=TemplatorConfig)
    cpu: int = 0
    cipher: str = "aes"
    # Templating campaigns to run (each maps a fresh buffer) before giving
    # up on finding a flip that lands in the table region with an armed
    # direction.  Small tables (PRESENT's 16 bytes) typically need several.
    max_campaigns: int = 4

    def __post_init__(self) -> None:
        if self.cipher not in ("aes", "aes_ttable", "present"):
            raise ConfigError(
                f"cipher must be 'aes', 'aes_ttable' or 'present', got {self.cipher!r}"
            )
        if self.max_campaigns <= 0:
            raise ConfigError("max_campaigns must be positive")

    @property
    def table_size(self) -> int:
        """Bytes of (last-round) S-box the victim keeps in memory."""
        return 16 if self.cipher == "present" else 256


class ExplFrameAttack:
    """One attacker task's stages of the full attack.

    The reference implementation of the :class:`AttackRun` side of the
    modality contract (docs/ATTACKS.md): the orchestrator drives the
    shared template/steer front half plus the :meth:`resolution_stages`
    this class declares (re-hammer, then PFA).
    """

    #: Modality this run belongs to (reports carry it; "explframe" is
    #: the default and is omitted from serialized reports).
    modality_name = "explframe"
    #: One line for ``--list-modalities``.
    description = (
        "steer a templated flip into the victim's S-box and recover the key "
        "by persistent fault analysis (the paper's attack)"
    )
    #: The config dataclass this attack's constructor takes.
    config_class = ExplFrameConfig

    def __init__(
        self,
        machine: Machine,
        key: bytes | None = None,
        config: ExplFrameConfig | None = None,
        tenant_workload=None,
    ):
        self.machine = machine
        self.kernel = machine.kernel
        self.config = config or ExplFrameConfig()
        self.tenant_workload = tenant_workload
        if tenant_workload is not None:
            if key is not None:
                raise ConfigError(
                    "pass either an explicit key or a tenant workload, not both "
                    "(the target tenant's key is the ground truth)"
                )
            spec = tenant_workload.scenario.target_spec
            if spec.cipher != self.config.cipher:
                raise ConfigError(
                    f"attack cipher {self.config.cipher!r} does not match the "
                    f"target tenant's {spec.cipher!r}"
                )
            if spec.cpu is not None and spec.cpu != self.config.cpu:
                raise ConfigError(
                    f"attack cpu {self.config.cpu} does not match the target "
                    f"tenant's pinned cpu {spec.cpu}"
                )
            key = tenant_workload.target_key
        rng = machine.rng.stream("victim.key")
        key_bytes = 10 if self.config.cipher == "present" else 16
        self.true_key = (
            key if key is not None else bytes(rng.randrange(256) for _ in range(key_bytes))
        )
        self.attacker = self.kernel.spawn("explframe-attacker", cpu=self.config.cpu)
        self.templator = Templator(self.kernel, self.attacker.pid, self.config.templator)
        # Cumulative counters across campaigns (the orchestrator re-runs
        # stages individually, so these live on the attack).
        self.total_flips = 0
        self.campaigns_run = 0
        self._retired_rounds = 0
        # Analysis units (faulty ciphertexts here; probe responses for
        # FAULT+PROBE) consumed across every resolution-stage attempt.
        self.analysis_units = 0
        self.bind_obs(machine.obs)

    def bind_obs(self, obs) -> None:
        """Attach an observability hub (re-run on machine fork)."""
        self.obs = obs
        if self.tenant_workload is not None:
            self.tenant_workload.bind_obs(obs)
        metrics = obs.metrics
        self._bind_shared_metrics(metrics)
        self._bind_modality_metrics(metrics)

    def _bind_shared_metrics(self, metrics) -> None:
        """Counters for the template/steer front half (every modality)."""
        self._m_campaigns = metrics.counter("attack.template.campaigns")
        self._m_flips = metrics.counter("attack.template.flips")
        self._m_usable = metrics.counter("attack.template.usable")
        self._m_steer_attempts = metrics.counter("attack.steer.attempts")
        self._m_steer_hits = metrics.counter("attack.steer.successes")

    def _bind_modality_metrics(self, metrics) -> None:
        """Modality-specific instruments (subclasses override).

        Kept separate from the shared block so a non-PFA modality never
        registers ``attack.pfa.*`` — registered families appear in every
        metrics snapshot even at zero, and the explframe ``--json``
        report bytes are a compatibility contract.
        """
        self._m_ciphertexts = metrics.counter("attack.pfa.ciphertexts")

    @property
    def hammer_rounds_total(self) -> int:
        """Hammer rounds issued so far, across retired and live templators."""
        return self._retired_rounds + self.templator.hammerer.total_rounds

    # -- stage 1: templating -------------------------------------------------------

    def usable_templates(self, templates: list[FlipTemplate]) -> list[FlipTemplate]:
        """Templates that can fault the victim's S-box.

        The flip must land inside the table's in-page byte range and its
        direction must be armed by the clean S-box data at that position.
        """
        in_range = self.templator.templates_hitting_range(
            templates,
            DEFAULT_TABLE_OFFSET,
            DEFAULT_TABLE_OFFSET + self.config.table_size,
        )
        clean_table = PRESENT_SBOX if self.config.cipher == "present" else AES_SBOX
        usable = []
        for template in in_range:
            # PRESENT stores one nibble per byte: only flips in the low
            # nibble change the cipher (the implementation masks with 0xF).
            if self.config.cipher == "present" and template.bit > 3:
                continue
            sbox_index = template.page_offset - DEFAULT_TABLE_OFFSET
            table_bit = (clean_table[sbox_index] >> template.bit) & 1
            # A 0->1 cell rests at 0 and needs the stored bit to be 0;
            # a 1->0 cell needs it to be 1.
            needed = 0 if template.flips_to_one else 1
            if table_bit == needed:
                usable.append(template)
        return usable

    def retire_templator(self) -> None:
        """Swap in a fresh templator over a new buffer.

        Required before templating again once any buffer page has been
        unmapped for staging (re-filling the old buffer would fault), and
        used between campaigns so each one maps fresh memory.
        """
        self._retired_rounds += self.templator.hammerer.total_rounds
        self.templator = Templator(self.kernel, self.attacker.pid, self.config.templator)

    def run_templating_campaign(self) -> list[FlipTemplate]:
        """One templating pass; returns the usable templates it found."""
        with self.obs.tracer.span(
            "attack.template", "attack", campaign=self.campaigns_run
        ) as span:
            templating = self.templator.run()
            self.total_flips += templating.flips_found
            self.campaigns_run += 1
            usable = self.usable_templates(templating.templates)
            span.set("flips", templating.flips_found)
            span.set("usable", len(usable))
        self._m_campaigns.inc()
        self._m_flips.inc(templating.flips_found)
        self._m_usable.inc(len(usable))
        return usable

    def template_until_usable(self, max_campaigns: int | None = None) -> list[FlipTemplate]:
        """Template over fresh buffers until a usable flip appears.

        Raises :class:`TemplatingExhaustedError` after ``max_campaigns``
        (default: the config's) empty-handed campaigns, so callers can
        classify the failure rather than inspecting a sentinel.
        """
        budget = self.config.max_campaigns if max_campaigns is None else max_campaigns
        for attempt in range(budget):
            if attempt > 0:
                self.retire_templator()
            usable = self.run_templating_campaign()
            if usable:
                return usable
        raise TemplatingExhaustedError(
            f"no armed in-table flip after {budget} templating campaigns "
            f"({self.total_flips} flips found overall)",
            campaigns=budget,
            flips_found=self.total_flips,
        )

    # -- stage 2+3: steer and re-hammer ----------------------------------------------

    def _pick_sacrificial_page(self, template: FlipTemplate) -> int:
        """A resident buffer page that is neither the flip nor an aggressor.

        Used by the two-allocation (T-table) steering: the attacker frees
        it *after* the flippy page so it sits on top of the cache and
        absorbs the victim's first allocation (the Te page), leaving the
        flippy frame for the second (the S-box page).
        """
        forbidden = {template.page_va}
        forbidden.update(va & ~(PAGE_SIZE - 1) for va in template.aggressor_vas)
        base = self.templator.buffer_va
        for index in range(self.templator.buffer_pages):
            candidate = base + index * PAGE_SIZE
            if candidate in forbidden:
                continue
            if self.attacker.mm.page_table.is_mapped(candidate):
                return candidate
        raise ConfigError("no sacrificial page available in the buffer")

    def stage_and_steer(self, template: FlipTemplate) -> tuple[CipherVictim, int, bool]:
        """Unmap the flippy page (and helpers), let the victim allocate.

        For single-table victims the flippy frame must be the *next*
        allocation; for the T-table victim it must be the *second*, so a
        sacrificial frame is staged on top of it.

        With a tenant workload attached, the victim's allocation happens
        at the target tenant's *next request arrival* rather than
        immediately: the attacker stages the frames and must survive the
        window until the target wakes, while background tenants churn the
        shared page frame cache.  The new victim then replaces the
        target's previous incarnation so tenant traffic exercises it.
        """
        workload = self.tenant_workload
        with self.obs.tracer.span("attack.steer", "attack") as span:
            victim = CipherVictim(
                self.kernel,
                self.true_key,
                cpu=self.config.cpu,
                cipher=self.config.cipher,
                name="victim" if workload is None else f"tenant-{workload.scenario.target}",
            )
            staged_pfn = self.kernel.pfn_of(self.attacker.pid, template.page_va)
            if self.config.cipher == "aes_ttable":
                sacrificial_va = self._pick_sacrificial_page(template)
                self.kernel.sys_munmap(self.attacker.pid, template.page_va, PAGE_SIZE)
                self.kernel.sys_munmap(self.attacker.pid, sacrificial_va, PAGE_SIZE)
            else:
                self.kernel.sys_munmap(self.attacker.pid, template.page_va, PAGE_SIZE)
            if workload is not None:
                # Ride out the steering window: noisy neighbours run until
                # just before the target's next request is due.
                window_end = workload.await_target_window()
                span.set("tenant", workload.scenario.target)
                span.set("window_end_ns", window_end)
            # The attacker stays active; the victim's small allocations come
            # straight off the shared CPU's page frame cache in LIFO order.
            landed_pfn = victim.allocate_table_page()
            steering_success = landed_pfn == staged_pfn
            if workload is not None:
                workload.attach_target(victim)
            span.set("staged_pfn", staged_pfn)
            span.set("success", steering_success)
        self._m_steer_attempts.inc()
        if steering_success:
            self._m_steer_hits.inc()
        return victim, staged_pfn, steering_success

    def rehammer(self, template: FlipTemplate, victim: CipherVictim) -> bool:
        """Hammer the template's aggressors until the victim table faults."""
        with self.obs.tracer.span("attack.rehammer", "attack") as span:
            for attempt in range(REHAMMER_ATTEMPTS):
                self.templator.hammerer.hammer_pair(*template.aggressor_vas)
                if victim.table_is_faulty():
                    span.set("attempts", attempt + 1)
                    span.set("faulted", True)
                    return True
            span.set("attempts", REHAMMER_ATTEMPTS)
            span.set("faulted", False)
        return False

    # -- stage 4: fault analysis ----------------------------------------------------

    def run_pfa(
        self, victim: CipherVictim, v_star: int, limit: int
    ) -> tuple[bytes | None, int]:
        """Collect faulty ciphertexts and recover the master key.

        Ciphertexts come in whole batches of ``PFA_BATCH``, each tested for
        a unique key, until one is or ``limit`` is reached; the last batch
        may pass it (20,224 ciphertexts at limit 20,000).  Batches are
        encrypted ahead in blocks (``PFA_FIRST_BLOCK``, then
        ``PFA_LATER_BLOCK``), clipped to the batches the limit allows; a
        stop inside a block leaves the victim and the plaintext stream as
        the one-batch loop would.

        Returns (key or None, ciphertexts consumed).
        """
        rng = self.machine.rng.numpy_stream("attack.plaintexts")
        state = PfaState()
        block = PFA_FIRST_BLOCK
        unique = False
        while not unique and state.total < limit:
            batches = min(block, -(-(limit - state.total) // PFA_BATCH))
            with closing(victim.encrypt_batches(batches, PFA_BATCH, rng)) as ahead:
                for ciphertexts in ahead:
                    state.update(ciphertexts)
                    if unique := state.is_unique():
                        break
            block = PFA_LATER_BLOCK
        if not unique:
            return None, state.total
        candidates = KeyCandidates(recover_k10_known_fault(state, v_star))
        try:
            k10 = candidates.unique_key()
            master = invert_key_schedule_128(k10)
        except FaultError:
            return None, state.total
        return master, state.total

    def run_pfa_present(
        self, victim: CipherVictim, v_star: int, limit: int
    ) -> tuple[bytes | None, int]:
        """PRESENT variant: recover the 64-bit last round key K32.

        Returns (K32 as 8 bytes or None, ciphertexts consumed).  The 16
        schedule bits PFA cannot see stay unrecovered.
        """
        from repro.pfa.pfa_present import (
            ciphertexts_to_unique_k32,
            recover_k32_known_fault,
        )

        rng = self.machine.rng.stream("attack.present-plaintexts")
        plaintexts = [
            bytes(rng.randrange(256) for _ in range(8)) for _ in range(limit)
        ]
        try:
            consumed, state = ciphertexts_to_unique_k32(
                victim.encrypt, lambda i: plaintexts[i], limit=limit
            )
        except FaultError:
            return None, limit
        k32 = recover_k32_known_fault(state, v_star)
        return k32.to_bytes(8, "big"), consumed

    def v_star_for(self, template: FlipTemplate) -> int:
        """The clean S-box value at the templated flip's position.

        PFA needs to know which table entry was replaced; the attacker
        knows it because she templated the flip (v* is public layout plus
        her own measurement, not ground truth).
        """
        sbox_index = template.page_offset - DEFAULT_TABLE_OFFSET
        clean_table = PRESENT_SBOX if self.config.cipher == "present" else AES_SBOX
        return clean_table[sbox_index]

    def run_fault_analysis(
        self, victim: CipherVictim, template: FlipTemplate, limit: int
    ) -> tuple[bytes | None, int]:
        """Stage-4 dispatch: run the right PFA variant for the cipher."""
        v_star = self.v_star_for(template)
        with self.obs.tracer.span(
            "attack.pfa", "attack", cipher=self.config.cipher
        ) as span:
            if self.config.cipher == "present":
                result = self.run_pfa_present(victim, v_star, limit)
            else:
                result = self.run_pfa(victim, v_star, limit)
            span.set("ciphertexts", result[1])
            span.set("recovered", result[0] is not None)
        self._m_ciphertexts.inc(result[1])
        return result

    def target_key(self) -> bytes:
        """The key material a successful run must recover."""
        if self.config.cipher != "present":
            return self.true_key
        # PRESENT: the full 64-bit last round key (a 16-bit schedule
        # residue remains).
        return Present(self.true_key).round_keys[31].to_bytes(8, "big")

    # -- modality contract (docs/ATTACKS.md) ------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        """Stage labels on this modality's timeline, in pipeline order."""
        return GENERIC_STAGES + ("rehammer", "pfa")

    def failure_classes(self) -> tuple[FailureClass, ...]:
        """Failure classes this modality can emit (metrics label set)."""
        return (
            FailureClass.TEMPLATING_EXHAUSTED,
            FailureClass.STEERING_MISS,
            FailureClass.NON_REPEATABLE_FLIP,
            FailureClass.DISARMED_DIRECTION,
            FailureClass.PFA_INCONCLUSIVE,
            FailureClass.KEY_MISMATCH,
            FailureClass.BUDGET_EXHAUSTED,
        )

    def resolution_stages(self) -> tuple[ResolutionStage, ...]:
        """Post-steer stages: re-hammer (with shape check), then PFA."""
        return (
            ResolutionStage(
                "rehammer", policy="rehammer",
                run=self._rehammer_stage, verify=self._verify_fault_shape,
            ),
            ResolutionStage("pfa", policy="pfa", run=self._pfa_stage),
        )

    def run_complete(self) -> bool:
        """One recovered key is the whole job for this modality."""
        return True

    def analysis_units_consumed(self) -> int:
        """Faulty ciphertexts consumed across every PFA attempt."""
        return self.analysis_units

    def report_extra(self) -> dict | None:
        """No modality block: the core report schema already says it all."""
        return None

    def _rehammer_stage(self, victim, template: FlipTemplate, attempt: int) -> StageOutcome:
        recovery = (
            None if attempt == 0 else f"re-hammer after backoff (try {attempt + 1})"
        )
        if self.rehammer(template, victim):
            return StageOutcome(ok=True, recovery=recovery)
        return StageOutcome(
            ok=False,
            recovery=recovery,
            failure=StageFailure(
                "rehammer",
                FailureClass.NON_REPEATABLE_FLIP,
                f"templated flip at offset {template.page_offset:#x} bit "
                f"{template.bit} did not reproduce",
            ),
        )

    def _verify_fault_shape(self, victim, template: FlipTemplate) -> StageFailure | None:
        """Ground-truth shape check: is the observed fault the templated one?

        PFA assumes the fault is exactly the templated (entry, bit) —
        anything else (wrong entry, wrong bit, extra corruptions) means
        v* is wrong and PFA would chase a phantom key.
        """
        corrupted = victim.sbox.corrupted_entries()
        if len(corrupted) == 1:
            index, expected, actual = corrupted[0]
            predicted_index = template.page_offset - DEFAULT_TABLE_OFFSET
            if index == predicted_index and actual == expected ^ (1 << template.bit):
                return None
        return StageFailure(
            "rehammer",
            FailureClass.DISARMED_DIRECTION,
            "fault present but shape does not match the template "
            f"(expected entry {template.page_offset - DEFAULT_TABLE_OFFSET}, "
            f"bit {template.bit})",
        )

    def _pfa_stage(self, victim, template: FlipTemplate, attempt: int) -> StageOutcome:
        # Retries widen the ciphertext budget instead of hoping the same
        # sample size lands differently.
        limit = PFA_LIMIT << attempt
        recovery = (
            None if attempt == 0 else f"retry PFA with ciphertext budget {limit}"
        )
        recovered, consumed = self.run_fault_analysis(
            victim, template, limit
        )
        self.analysis_units += consumed
        if recovered is None:
            return StageOutcome(
                ok=False,
                recovery=recovery,
                failure=StageFailure(
                    "pfa",
                    FailureClass.PFA_INCONCLUSIVE,
                    f"key space not unique after {consumed} ciphertexts",
                ),
            )
        if recovered != self.target_key():
            # Wrong fault model: move to the next candidate immediately.
            return StageOutcome(
                ok=False,
                recovery=recovery,
                advance="next-candidate",
                failure=StageFailure(
                    "pfa",
                    FailureClass.KEY_MISMATCH,
                    "PFA converged on a key that fails verification",
                ),
            )
        return StageOutcome(ok=True, recovery=recovery, recovered=recovered)

