"""Statistics primitives used throughout the simulator.

The evaluation figures need running means/maxima (Figures 11, 12),
percentiles (the paper's "99.9% of loads and stores checked within 5000 ns"
claim) and density estimates (Figure 8).  Everything here is deterministic
and allocation-light so it can sit on the simulator's hot path.
"""

from __future__ import annotations

import math


class Samples:
    """A full sample set with percentile and density support.

    Used where the figure needs the distribution itself (Figure 8's density
    plot, the 99.9th-percentile claim).  Stores raw values; the simulator
    produces at most a few hundred thousand per run, which is fine.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def extend(self, values: list[float]) -> None:
        for v in values:
            self.add(v)

    def __len__(self) -> int:
        return len(self._values)

    def snapshot(self) -> "Samples":
        """Independent copy sharing nothing mutable (fork support)."""
        clone = Samples.__new__(Samples)
        clone._values = self._values[:]
        clone._sorted = self._sorted
        return clone

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def _ensure_sorted(self) -> list[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def mean(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        values = self._ensure_sorted()
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(values) - 1)
        if values[lo] == values[hi]:
            # avoid float interpolation drift on equal neighbours
            return values[lo]
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples <= threshold (e.g. the 5000 ns coverage claim)."""
        values = self._ensure_sorted()
        if not values:
            return 0.0
        # binary search for rightmost index with value <= threshold
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] <= threshold:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(values)

    def density(self, bins: int = 50, lo: float | None = None,
                hi: float | None = None) -> list[tuple[float, float]]:
        """Histogram-based density estimate: (bin centre, density) pairs.

        The densities integrate to ~1 over [lo, hi], matching the y-axis of
        the paper's Figure 8.
        """
        values = self._ensure_sorted()
        if not values:
            return []
        if lo is None:
            lo = values[0]
        if hi is None:
            hi = values[-1]
        if hi <= lo:
            hi = lo + 1.0
        width = (hi - lo) / bins
        counts = [0] * bins
        covered = 0
        for v in values:
            if lo <= v <= hi:
                idx = min(int((v - lo) / width), bins - 1)
                counts[idx] += 1
                covered += 1
        if covered == 0:
            return [(lo + (i + 0.5) * width, 0.0) for i in range(bins)]
        return [
            (lo + (i + 0.5) * width, counts[i] / (covered * width))
            for i in range(bins)
        ]


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, used for suite-level slowdown summaries."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
