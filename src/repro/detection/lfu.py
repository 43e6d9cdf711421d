"""The load forwarding unit (paper §IV-C, Figure 5).

Loads are duplicated *at cache access time*, while the value is still in
the ECC-protected domain, and tagged with their reorder-buffer ID.  At
commit, the tagged entry is forwarded to the load-store log; mis-speculated
loads are never forwarded and are simply overwritten when their ROB entry
is reallocated (no flush logic — §IV-C).

This closes the window of vulnerability that naive commit-time forwarding
would leave: if a particle strike corrupts the loaded value in the main
core's physical register *after* the access but *before* commit, the log
still receives the correct value, so the checker core re-executes with
good data and the corrupted store/checkpoint downstream is caught.

On the committed stream a capture is always followed by the forward of
the same ROB id, which returns the captured (addr, value) unchanged, so
the detection hook (:mod:`repro.detection.system`) logs the value
captured at access directly: that is what this unit forwards.  The
unit's speculative-overwrite semantics are exercised directly by its
unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LfuEntry:
    """One load captured at access time."""

    rob_id: int
    addr: int
    value: int
    valid: bool = True


class LoadForwardingUnit:
    """ROB-ID-indexed table of loads awaiting commit.

    Sized like the ROB (paper: "having a load forwarding unit as large as
    the reorder buffer is over-provisioning... the table will never be
    full"), so a capture can never fail for lack of space.
    """

    __slots__ = ("size", "_table", "captures", "forwards", "overwrites")

    def __init__(self, rob_entries: int) -> None:
        self.size = rob_entries
        self._table: list[LfuEntry | None] = [None] * rob_entries
        self.captures = 0
        self.forwards = 0
        self.overwrites = 0

    def capture(self, rob_id: int, addr: int, value: int) -> None:
        """Duplicate a load at cache-access time (possibly speculative)."""
        slot = rob_id % self.size
        if self._table[slot] is not None:
            # the previous occupant was mis-speculated or already
            # forwarded; reallocation simply overwrites it
            self.overwrites += 1
        self._table[slot] = LfuEntry(rob_id=rob_id, addr=addr, value=value)
        self.captures += 1

    def forward_at_commit(self, rob_id: int) -> tuple[int, int]:
        """On commit of load ``rob_id``, emit (addr, value) for the log."""
        slot = rob_id % self.size
        entry = self._table[slot]
        if entry is None or entry.rob_id != rob_id:
            raise LookupError(
                f"no captured load for ROB id {rob_id}; capture/commit "
                f"sequencing violated")
        self._table[slot] = None
        self.forwards += 1
        return entry.addr, entry.value

    def occupancy(self) -> int:
        return sum(1 for e in self._table if e is not None)
