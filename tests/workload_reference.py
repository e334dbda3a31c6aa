"""Test-only reference tenant serving: every organic block fully encrypted.

``repro.workload.engine._Tenant._serve`` serves each block of a request
with ``CipherVictim.fetch_tables``: the table fetches one encryption
makes, without the rounds, because nothing reads an organic ciphertext.
:func:`reference_serve` is the formulation it replaced: it draws each
block's plaintext byte by byte off the tenant's ``workload.payload/<name>``
stream and runs ``victim.encrypt``.  The differential tests in
``tests/test_workload_serving.py`` install it in place of ``_serve`` and
require every simulated outcome to stay the same.
"""

from __future__ import annotations

from repro.os.task import TaskState


def reference_serve(tenant) -> None:
    """Serve ``tenant``'s queue by encrypting a drawn payload per block."""
    spec, victim = tenant.spec, tenant.victim
    kernel = tenant.machine.kernel
    if spec.sleeps and victim.task.state is TaskState.SLEEPING:
        kernel.sys_wake(victim.pid)
    block = 8 if spec.cipher == "present" else 16
    rng = tenant.machine.rng.stream(f"workload.payload/{tenant.name}")
    while tenant.queue:
        tenant.queue -= 1
        for _ in range(spec.payload_blocks):
            victim.encrypt(bytes(rng.randrange(256) for _ in range(block)))
        tenant.blocks_encrypted += spec.payload_blocks
        tenant.served += 1
        tenant._m_served.inc()
        tenant._m_encryptions.inc(spec.payload_blocks)
    if spec.sleeps:
        kernel.sys_sleep(victim.pid)
