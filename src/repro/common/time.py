"""Deterministic simulated-time base.

All timing in the simulator is kept in integer *ticks*.  One tick is 1/16 of
a nanosecond (62.5 ps), chosen so that every clock frequency used by the
paper maps to an exact integer period:

=========  ==================  ============
Frequency  Period              Ticks/cycle
=========  ==================  ============
3.2 GHz    0.3125 ns           5
2 GHz      0.5 ns              8
1 GHz      1 ns                16
500 MHz    2 ns                32
250 MHz    4 ns                64
125 MHz    8 ns                128
=========  ==================  ============

Using integers avoids any floating-point drift when converting between the
main core's clock domain and the checker cores' clock domain, which the
detection co-simulation does constantly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

#: Number of ticks per nanosecond.  62.5 ps resolution.
TICKS_PER_NS = 16

#: Number of ticks per microsecond.
TICKS_PER_US = TICKS_PER_NS * 1000


def ns_to_ticks(ns: float) -> int:
    """Convert nanoseconds to ticks, rounding to the nearest tick."""
    return round(ns * TICKS_PER_NS)


def ticks_to_ns(ticks: int) -> float:
    """Convert ticks to nanoseconds."""
    return ticks / TICKS_PER_NS

def ticks_to_us(ticks: int) -> float:
    """Convert ticks to microseconds."""
    return ticks / TICKS_PER_US


@dataclass(frozen=True)
class Clock:
    """A clock domain defined by its frequency.

    The clock's period must be an exact whole number of ticks; the
    frequencies used throughout the paper (125 MHz ... 3.2 GHz) all satisfy
    this.  Construct with :meth:`from_mhz`.
    """

    freq_mhz: float
    period_ticks: int

    @classmethod
    def from_mhz(cls, freq_mhz: float) -> "Clock":
        """Create a clock from a frequency in MHz.

        Raises :class:`ConfigError` if the period is not an exact number of
        ticks (i.e. the frequency does not divide 16 GHz).
        """
        if freq_mhz <= 0:
            raise ConfigError(f"clock frequency must be positive, got {freq_mhz} MHz")
        period = 1000.0 * TICKS_PER_NS / freq_mhz
        period_int = round(period)
        if abs(period - period_int) > 1e-9 or period_int == 0:
            raise ConfigError(
                f"{freq_mhz} MHz does not have an integer tick period "
                f"(got {period} ticks); pick a divisor of 16 GHz"
            )
        return cls(freq_mhz=freq_mhz, period_ticks=period_int)

    def ticks_to_cycles_ceil(self, ticks: int) -> int:
        """Smallest cycle count covering ``ticks`` ticks."""
        return -(-ticks // self.period_ticks)


#: The main core's clock (Table I: 3.2 GHz).
MAIN_CLOCK_MHZ = 3200.0

#: The default checker cores' clock (Table I: 1 GHz).
CHECKER_CLOCK_MHZ = 1000.0
