"""Power model (paper §VI-C).

The paper sidesteps McPAT (which cannot represent cores this small) and
uses published per-MHz figures:

* Rocket/E51-class checker core: ≈ 34 µW/MHz at 40 nm;
* Cortex-A57-class main core: ≈ 800 µW/MHz at 20 nm.

Twelve checkers at 1 GHz against a 3.2 GHz main core gives the paper's
≈ 16 % power overhead, described there as an *upper bound* because the
checker figure is for the older node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig

#: Checker-core dynamic power at 40 nm, µW per MHz (paper's cited figure).
CHECKER_UW_PER_MHZ_40NM = 34.0

#: Main-core dynamic power at 20 nm, µW per MHz.
MAIN_UW_PER_MHZ_20NM = 800.0


@dataclass(frozen=True)
class PowerBreakdown:
    """Power model output, in milliwatts."""

    main_core_mw: float
    checker_cores_mw: float

    @property
    def overhead(self) -> float:
        """Detection power relative to the main core (paper: ≈16 %,
        an upper bound since the checker figure is unscaled 40 nm)."""
        return self.checker_cores_mw / self.main_core_mw


def power_model(config: SystemConfig) -> PowerBreakdown:
    """Evaluate the §VI-C power model for ``config``."""
    main_mw = MAIN_UW_PER_MHZ_20NM * config.main_core.freq_mhz / 1000.0
    checker_mw = (CHECKER_UW_PER_MHZ_40NM * config.checker.freq_mhz
                  * config.checker.num_cores / 1000.0)
    return PowerBreakdown(main_core_mw=main_mw, checker_cores_mw=checker_mw)


def energy_overhead_per_run(slowdown: float, power_overhead: float) -> float:
    """Energy overhead of a protected run vs. unprotected.

    Energy = power × time: the detection scheme's energy cost combines its
    added power with its (small) slowdown.
    """
    return (1.0 + power_overhead) * slowdown - 1.0
