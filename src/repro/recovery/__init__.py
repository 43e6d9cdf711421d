"""Rollback recovery — the paper's future-work correction extension.

The paper provides *detection* only and names checkpoint-based rollback
as its standard correction companion (§IV-F, "checkpointing [35],
write-ahead logging [36] and transactions [37]"), leaving full fault
tolerance as future work (§VIII).  :mod:`repro.recovery.rollback`
implements that loop end to end: detect, roll back to the start of the
first failing segment (every check before it has passed, so that state
is safe to restore even though unverified stores escaped to memory),
re-execute, and compare the result with the fault-free run.  Campaigns
reach it through the ``recovery`` job kind (schemes with
``supports_recovery`` only), which yields
:class:`~repro.common.records.RecoveryRecord` rows.
"""

from repro.recovery.rollback import RecoveryOutcome, detect_and_recover

__all__ = [
    "RecoveryOutcome",
    "detect_and_recover",
]
