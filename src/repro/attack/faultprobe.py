"""FAULT+PROBE: recover victim memory bits from response discrepancies.

The second registered attack modality, after the PAPERS.md entry
*FAULT+PROBE: A Generic Rowhammer-based Bit Recovery Attack*.  It shares
the whole front half of the pipeline with ExplFrame — template a
repeatable flip, steer the flippy frame into the victim's table
allocation through the page frame cache — but resolves the steered flip
completely differently: instead of collecting faulty ciphertexts and
running persistent fault analysis, it *reads the targeted bit back*.

The physics: a weak cell only fires when the stored data arms it.  A
1→0 cell rests charged and can only flip a stored ``1``; an anti-cell
(0→1) can only flip a stored ``0``.  So hammering a steered flip is a
conditional experiment on the secret bit underneath it:

* probe the victim (encrypt known plaintexts through its served-request
  path) to capture reference responses,
* hammer the templated aggressors,
* probe again — a **discrepancy** means the cell fired, so the stored
  bit equalled the cell's armed value; **no discrepancy** means the cell
  was disarmed, so the bit was the opposite value.

Each steered candidate yields one bit (a fresh victim incarnation per
steer keeps the experiment clean); the run keeps consuming candidates —
re-templating under the campaign budget as needed — until
``TARGET_BITS`` positions are recovered.  Accuracy is scored against the
ground-truth table content and reported in the run report's ``extra``
block; mispredictions come from armed flips that fail to reproduce
within the pulse budget (the same physics that gives ExplFrame its
``non-repeatable-flip`` retries) and from probe plaintexts that miss the
faulted table entry.

Unlike ExplFrame, templating does **not** filter candidates by armed
direction — the attacker does not know the bit value; that is the
secret being recovered.
"""

from __future__ import annotations

from repro.attack.base import (
    FailureClass,
    GENERIC_STAGES,
    ResolutionStage,
    StageFailure,
    StageOutcome,
)
from repro.attack.explframe import ExplFrameAttack, ExplFrameConfig
from repro.ciphers.aes_tables import AES_SBOX
from repro.ciphers.present import PRESENT_SBOX
from repro.ciphers.table_memory import DEFAULT_TABLE_OFFSET, CipherVictim
from repro.core.results import FlipTemplate

#: Distinct table positions to recover before the run is complete.
TARGET_BITS = 4
#: Plaintexts per probe round, the response-discrepancy oracle's sample
#: set.  One AES encryption performs ~160 S-box lookups, so a single
#: probe misses a given faulted entry with probability
#: ``(255/256)**160 ≈ 0.54``; a dozen probes push the miss rate below
#: 0.1%.
PROBE_CHECKS = 12
#: Hammer/probe rounds an armed cell gets to fire before the bit is
#: declared disarmed.
HAMMER_PULSES = 4


class FaultProbeAttack(ExplFrameAttack):
    """Drives the FAULT+PROBE pipeline: template → steer → probe a bit.

    Reuses ExplFrame's templating and page-frame-cache steering verbatim
    (the shared front half of the modality contract) and replaces the
    rehammer+PFA resolution with a single ``probe`` stage.  It takes the
    same :class:`ExplFrameConfig`; the probe budget is the module
    constants ``TARGET_BITS``, ``PROBE_CHECKS`` and ``HAMMER_PULSES``.
    State beyond the base class: ``recovered_bits`` maps table position
    ``(entry, bit)`` to the probe verdict for that position.
    """

    modality_name = "faultprobe"
    description = (
        "steer a templated flip under the victim's table and read the "
        "stored bit back from response discrepancies (FAULT+PROBE)"
    )
    config_class = ExplFrameConfig

    def __init__(
        self,
        machine,
        key: bytes | None = None,
        config: ExplFrameConfig | None = None,
        tenant_workload=None,
    ):
        # Probe verdicts by (entry, bit): first writer wins, so a second
        # template over an already-probed position never double-counts.
        self.recovered_bits: dict[tuple[int, int], dict] = {}
        super().__init__(
            machine, key=key, config=config, tenant_workload=tenant_workload
        )

    def _bind_modality_metrics(self, metrics) -> None:
        """FAULT+PROBE instruments (no ``attack.pfa.*`` here — registered
        families show up at zero in every snapshot, and each modality's
        snapshot must only carry its own)."""
        self._m_probes = metrics.counter("attack.faultprobe.probes")
        self._m_discrepancies = metrics.counter("attack.faultprobe.discrepancies")
        self._m_bits = metrics.counter("attack.faultprobe.bits_recovered")
        self._m_bits_correct = metrics.counter("attack.faultprobe.bits_correct")

    # -- templating filter --------------------------------------------------------

    def usable_templates(self, templates: list[FlipTemplate]) -> list[FlipTemplate]:
        """In-table flips, *without* ExplFrame's armed-direction filter.

        Whether a flip's direction is armed depends on the stored bit —
        the secret FAULT+PROBE recovers — so every in-range flip is a
        usable probe.  (PRESENT's high nibble is still skipped: those
        bits never influence responses, so they cannot be probed.)
        """
        in_range = self.templator.templates_hitting_range(
            templates,
            DEFAULT_TABLE_OFFSET,
            DEFAULT_TABLE_OFFSET + self.config.table_size,
        )
        if self.config.cipher != "present":
            return in_range
        return [template for template in in_range if template.bit <= 3]

    # -- modality contract (docs/ATTACKS.md) --------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        return GENERIC_STAGES + ("probe",)

    def failure_classes(self) -> tuple[FailureClass, ...]:
        return (
            FailureClass.TEMPLATING_EXHAUSTED,
            FailureClass.STEERING_MISS,
            FailureClass.PROBE_INCONCLUSIVE,
            FailureClass.BUDGET_EXHAUSTED,
        )

    def resolution_stages(self) -> tuple[ResolutionStage, ...]:
        # One stage; its retry policy reuses the analysis ("pfa") slot of
        # OrchestratorConfig — see that dataclass's docstring.
        return (ResolutionStage("probe", policy="pfa", run=self._probe_stage),)

    def run_complete(self) -> bool:
        """Done once ``TARGET_BITS`` distinct positions have verdicts."""
        return len(self.recovered_bits) >= TARGET_BITS

    def analysis_units_consumed(self) -> int:
        """Oracle responses consumed (the report's analysis-unit column)."""
        return self.analysis_units

    def report_extra(self) -> dict:
        """The modality's result block: per-bit verdicts and accuracy."""
        bits = [
            self.recovered_bits[position]
            for position in sorted(self.recovered_bits)
        ]
        correct = sum(1 for bit in bits if bit["correct"])
        return {
            "bits_targeted": TARGET_BITS,
            "bits_recovered": len(bits),
            "bits_correct": correct,
            "accuracy": round(correct / len(bits), 4) if bits else None,
            "bits": bits,
        }

    # -- the probe stage ----------------------------------------------------------

    def _oracle(self, victim: CipherVictim, plaintext: bytes) -> bytes:
        """One response from the victim, through tenant traffic if present."""
        self.analysis_units += 1
        self._m_probes.inc()
        if self.tenant_workload is not None:
            return self.tenant_workload.probe_target(plaintext)
        return victim.encrypt(plaintext)

    def _probe_stage(
        self, victim: CipherVictim, template: FlipTemplate, attempt: int
    ) -> StageOutcome:
        """Probe → hammer → re-probe; infer the stored bit from firing.

        A 0→1 cell (``flips_to_one``) only fires over a stored 0, a 1→0
        cell only over a stored 1 — so a discrepancy pins the bit to the
        armed value and silence pins it to the opposite.
        """
        recovery = (
            None if attempt == 0 else f"re-probe after backoff (try {attempt + 1})"
        )
        block = 8 if self.config.cipher == "present" else 16
        rng = self.machine.rng.stream("attack.probe-plaintexts")
        with self.obs.tracer.span(
            "attack.probe", "attack", offset=template.page_offset, bit=template.bit
        ) as span:
            plaintexts = [
                bytes(rng.randrange(256) for _ in range(block))
                for _ in range(PROBE_CHECKS)
            ]
            reference = [self._oracle(victim, pt) for pt in plaintexts]
            # Stability check: a reference that won't repeat (e.g. a table
            # already corrupted mid-read) cannot anchor a discrepancy.
            if [self._oracle(victim, pt) for pt in plaintexts] != reference:
                span.set("stable", False)
                return StageOutcome(
                    ok=False,
                    recovery=recovery,
                    failure=StageFailure(
                        "probe",
                        FailureClass.PROBE_INCONCLUSIVE,
                        "reference responses unstable before hammering",
                    ),
                )
            discrepancy = False
            pulses = 0
            for pulse in range(HAMMER_PULSES):
                self.templator.hammerer.hammer_pair(*template.aggressor_vas)
                pulses = pulse + 1
                if [self._oracle(victim, pt) for pt in plaintexts] != reference:
                    discrepancy = True
                    self._m_discrepancies.inc()
                    break
            armed_value = 0 if template.flips_to_one else 1
            predicted = armed_value if discrepancy else 1 - armed_value
            span.set("discrepancy", discrepancy)
            span.set("pulses", pulses)
            span.set("predicted", predicted)
        self._score_bit(template, predicted, discrepancy, pulses)
        return StageOutcome(ok=True, recovery=recovery)

    def _score_bit(
        self, template: FlipTemplate, predicted: int, discrepancy: bool, pulses: int
    ) -> None:
        """Record the verdict; ``actual``/``correct`` are ground truth.

        The attacker's output is ``predicted`` alone — the scoring
        columns exist so benches and CI can measure recovery accuracy,
        mirroring how steering success is scored in ExplFrame.
        """
        entry = template.page_offset - DEFAULT_TABLE_OFFSET
        position = (entry, template.bit)
        if position in self.recovered_bits:
            return
        clean_table = PRESENT_SBOX if self.config.cipher == "present" else AES_SBOX
        actual = (clean_table[entry] >> template.bit) & 1
        correct = predicted == actual
        self.recovered_bits[position] = {
            "entry": entry,
            "bit": template.bit,
            "predicted": predicted,
            "actual": actual,
            "correct": correct,
            "discrepancy": discrepancy,
            "pulses": pulses,
        }
        self._m_bits.inc()
        if correct:
            self._m_bits_correct.inc()

