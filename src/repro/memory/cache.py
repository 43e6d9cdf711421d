"""Set-associative cache timing model.

The functional memory contents live in :class:`repro.isa.MemoryImage`; the
caches here model *timing only* (tags, LRU replacement, MSHR-limited miss
concurrency, and coalescing of misses to an already-outstanding line).
This mirrors how trace-driven simulators treat caches: a lookup returns the
cycle at which the data is available, and mutates the tag state.
"""

from __future__ import annotations

from repro.common.config import CacheConfig


class CacheModel:
    """Tags + LRU + MSHRs for one cache level.

    All times are in cycles of the clock domain the cache lives in; the
    caller converts between domains.  The cache itself does not know its
    miss penalty — the hierarchy supplies the fill time, so one model
    serves L1s, the L2, and the checker cores' instruction caches.

    Sets are copy-on-write between a model and its snapshots: each set is
    a dict of line -> 0 in LRU order (oldest first), and ``_owned`` holds
    one flag per set, set only while no other model references that dict.
    A method that writes a set (``lookup``'s hit refresh, ``fill``,
    ``install``) first replaces an unowned set with a private copy.  So a
    set dict that two models reference is never mutated.  ``snapshot``
    clears the source's flags too, which makes it a write to the source:
    a model must not be snapshotted while another thread accesses it (the
    timing-splice cursor's lock serialises both).
    """

    __slots__ = (
        "config", "_sets", "_owned", "_set_mask", "_line_shift",
        "_mshr_ready", "_outstanding", "hits", "misses", "mshr_stalls",
    )

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        num_sets = config.num_sets
        self._sets: list[dict[int, int]] = [dict() for _ in range(num_sets)]
        self._owned = bytearray(b"\x01" * num_sets)
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        # MSHR slots: cycle each slot frees up
        self._mshr_ready = [0] * config.mshrs
        # line -> fill-complete cycle, for miss coalescing
        self._outstanding: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.mshr_stalls = 0

    def snapshot(self) -> "CacheModel":
        """Independent copy of the tag/MSHR state.

        The clone shares the source's set dicts, and both sides copy a
        set the first time they write it (see the class docstring); the
        MSHR and in-flight state is copied, and the config and the derived
        shift/mask scalars are shared (immutable after construction)."""
        clone = CacheModel.__new__(CacheModel)
        clone.config = self.config
        clone._sets = self._sets[:]
        num_sets = len(self._sets)
        clone._owned = bytearray(num_sets)
        self._owned = bytearray(num_sets)
        clone._set_mask = self._set_mask
        clone._line_shift = self._line_shift
        clone._mshr_ready = self._mshr_ready[:]
        clone._outstanding = dict(self._outstanding)
        clone.hits = self.hits
        clone.misses = self.misses
        clone.mshr_stalls = self.mshr_stalls
        return clone

    def probe(self, addr: int) -> bool:
        """Check for a hit without updating any state."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def lookup(self, addr: int, now: int) -> tuple[bool, int]:
        """Access the cache at cycle ``now``.

        Returns ``(hit, ready_cycle)``:

        * on a **hit**, ``ready_cycle = now + hit_latency`` and the line's
          LRU position is refreshed;
        * on a **coalesced miss** (line already being fetched), the access
          completes when the outstanding fill does;
        * on a **true miss**, returns ``(False, allocation_cycle)`` —
          the cycle the miss *starts* after acquiring an MSHR.  The caller
          must then compute the fill time from the next level and call
          :meth:`fill`.
        """
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if line in ways:
            self.hits += 1
            if not self._owned[index]:
                ways = self._sets[index] = dict(ways)
                self._owned[index] = 1
            # refresh LRU: move to most-recent by re-inserting
            del ways[line]
            ways[line] = 0
            ready = now + self.config.hit_latency_cycles
            pending = self._outstanding.get(line)
            if pending is not None and pending > ready:
                # the line is still in flight (outstanding demand fill or
                # prefetch): the access completes when the fill does
                ready = pending
            return True, ready
        pending = self._outstanding.get(line)
        if pending is not None and pending > now:
            self.hits += 1  # counted as a hit-under-miss
            return True, pending
        self.misses += 1
        # acquire the least-soon-busy MSHR slot
        slot = min(range(len(self._mshr_ready)), key=self._mshr_ready.__getitem__)
        start = self._mshr_ready[slot]
        if start > now:
            self.mshr_stalls += 1
        else:
            start = now
        return False, start

    def fill(self, addr: int, miss_start: int, fill_done: int) -> None:
        """Install the line for a miss that started at ``miss_start`` and
        whose data arrives at ``fill_done``; occupies an MSHR meanwhile."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if not self._owned[index]:
            ways = self._sets[index] = dict(ways)
            self._owned[index] = 1
        if line not in ways and len(ways) >= self.config.assoc:
            # evict true-LRU (first key in insertion order)
            ways.pop(next(iter(ways)))
        ways[line] = 0
        self._outstanding[line] = fill_done
        slot = min(range(len(self._mshr_ready)), key=self._mshr_ready.__getitem__)
        self._mshr_ready[slot] = fill_done
        # keep the outstanding map small
        if len(self._outstanding) > 4 * self.config.mshrs:
            self._outstanding = {
                ln: t for ln, t in self._outstanding.items() if t > miss_start
            }

    def install(self, addr: int, ready: int = 0) -> None:
        """Insert a line without an MSHR (prefetch fill)."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if not self._owned[index]:
            ways = self._sets[index] = dict(ways)
            self._owned[index] = 1
        if line not in ways and len(ways) >= self.config.assoc:
            ways.pop(next(iter(ways)))
        ways[line] = 0
        if ready:
            self._outstanding[line] = ready
