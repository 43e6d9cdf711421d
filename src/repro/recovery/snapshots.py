"""Recovery snapshots: verified architectural state to roll back to.

The paper provides *detection* only, and names checkpointing-based
rollback as the standard correction companion (§IV-F: "suitable
correction techniques for these circumstances include checkpointing [35],
write-ahead logging [36] and transactions [37]"), leaving full fault
tolerance as future work (§VIII).  This package implements that
extension.

A :class:`RecoverySnapshot` couples a register checkpoint with a memory
image *as of the same commit boundary*.  Because the detection scheme
deliberately lets unverified stores escape to memory (§IV-F), a snapshot
becomes **safe to restore** only once every log segment up to its
boundary has validated — the same strong-induction order the checkers
already establish.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.checkpoint import RegisterCheckpoint
from repro.isa.memory_image import MemoryImage


@dataclass
class RecoverySnapshot:
    """Registers + memory at one segment boundary (commit ``seq``)."""

    seq: int
    checkpoint: RegisterCheckpoint
    memory: MemoryImage
    #: becomes True when every check up to ``seq`` has passed
    verified: bool = False


class SnapshotStore:
    """Maintains rollback snapshots along the commit stream.

    Memory is snapshotted incrementally: we keep one evolving image and
    record, per snapshot, the *undo log* (address → previous value) of
    stores committed since, so restoring snapshot *k* replays undo
    entries backwards.  This is the write-ahead-logging flavour of the
    paper's reference [36], which costs one (addr, old value) pair per
    store instead of a full memory copy per checkpoint.
    """

    def __init__(self, initial_memory: MemoryImage,
                 start_checkpoint: RegisterCheckpoint) -> None:
        self.memory = initial_memory.copy()
        self._snapshots: list[RecoverySnapshot] = []
        self._undo: list[list[tuple[int, int]]] = []
        self._current_undo: list[tuple[int, int]] = []
        self._start = RecoverySnapshot(
            seq=0, checkpoint=start_checkpoint,
            memory=initial_memory.copy(), verified=True)

    def apply_store(self, addr: int, value: int) -> None:
        """Undo-log and apply one committed store (callers walk the
        trace's mem columns)."""
        self._current_undo.append((addr, self.memory.load(addr)))
        self.memory.store(addr, value)

    def take_snapshot(self, seq: int,
                      checkpoint: RegisterCheckpoint) -> RecoverySnapshot:
        """Snapshot at a segment boundary (after commit ``seq - 1``)."""
        snapshot = RecoverySnapshot(
            seq=seq, checkpoint=checkpoint, memory=self.memory.copy())
        self._snapshots.append(snapshot)
        self._undo.append(self._current_undo)
        self._current_undo = []
        return snapshot

    def mark_verified_up_to(self, seq: int) -> None:
        """All checks for commits < ``seq`` passed: snapshots at or
        before that boundary are now safe restore points."""
        for snapshot in self._snapshots:
            if snapshot.seq <= seq:
                snapshot.verified = True

    def latest_verified(self) -> RecoverySnapshot:
        """The most recent snapshot safe to restore (always exists: the
        program-entry state is verified by definition)."""
        for snapshot in reversed(self._snapshots):
            if snapshot.verified:
                return snapshot
        return self._start

    @property
    def snapshots(self) -> list[RecoverySnapshot]:
        return list(self._snapshots)

    def undo_cost_entries(self) -> int:
        """Total undo-log entries retained (write-ahead-logging cost)."""
        return sum(len(u) for u in self._undo) + len(self._current_undo)
