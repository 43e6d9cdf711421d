"""Silicon-area model (paper §VI-B).

Reproduces the paper's published-constant arithmetic:

* a Rocket/E51-class in-order core is 0.14 mm² at 40 nm, scaled by the
  node factor to 20 nm (area scales ≈ ×0.25 across those two full nodes) —
  "twelve E51-sized cores would therefore fit in approximately 0.42 mm²";
* a Cortex-A57-class out-of-order core is 2.05 mm² at 20 nm excluding
  shared caches;
* 20 nm SRAM at ≈ 1 mm² per MiB (from the ISSCC'14 density the paper
  cites), covering the added 80 KiB (instruction caches, checkpoints, load
  forwarding unit, load-store log);
* a 1 MiB single-ported L2 at ≈ 1 mm² when the shared-cache-inclusive
  figure is wanted.

Headline reproduction targets: ≈ 24 % overhead vs. the bare core,
≈ 16 % including the L2 — versus 100 % for dual-core lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SystemConfig

#: Rocket core area at 40 nm, mm² (paper's cited figure).
ROCKET_AREA_MM2_40NM = 0.14

#: Area scale factor from 40 nm to 20 nm (two full nodes).
NODE_SCALE_40_TO_20 = 0.25

#: Cortex-A57 core area at 20 nm, mm², excluding shared caches.
A57_AREA_MM2_20NM = 2.05

#: 20 nm SRAM density, mm² per MiB (ISSCC'14-derived, as the paper uses
#: ~1 mm² for 1 MiB single-ported SRAM).
SRAM_MM2_PER_MIB = 1.0

#: The main core's 1 MiB L2, mm².
L2_AREA_MM2 = 1.0


@dataclass(frozen=True)
class AreaBreakdown:
    """Area model output, all in mm² at 20 nm."""

    main_core_mm2: float
    checker_cores_mm2: float
    sram_added_mm2: float
    l2_mm2: float
    added_sram_kib: float

    @property
    def detection_added_mm2(self) -> float:
        return self.checker_cores_mm2 + self.sram_added_mm2

    @property
    def overhead_vs_core(self) -> float:
        """Detection hardware relative to the bare main core (paper: ≈24 %)."""
        return self.detection_added_mm2 / self.main_core_mm2

    @property
    def overhead_vs_core_with_l2(self) -> float:
        """Relative to core + L2 (paper: ≈16 %)."""
        return self.detection_added_mm2 / (self.main_core_mm2 + self.l2_mm2)


def added_sram_kib(config: SystemConfig) -> float:
    """SRAM the detection scheme adds, in KiB.

    Log + per-core L0 I-caches + shared checker L1I + load forwarding unit
    + checkpoint storage.  With Table I values this is the paper's 80 KiB.
    """
    ck = config.checker
    det = config.detection
    log_kib = det.log_bytes / 1024
    l0_kib = ck.num_cores * ck.l0i.size_bytes / 1024
    shared_l1i_kib = ck.shared_l1i.size_bytes / 1024
    # load forwarding unit: one (addr, value) pair per ROB entry
    lfu_kib = config.main_core.rob_entries * 16 / 1024
    # checkpoint storage: one register file copy per segment + 1
    regs = config.main_core  # 32 int + 32 fp architectural registers
    ckpt_kib = (ck.num_cores + 1) * (64 * 8) / 1024
    return log_kib + l0_kib + shared_l1i_kib + lfu_kib + ckpt_kib


def area_model(config: SystemConfig) -> AreaBreakdown:
    """Evaluate the §VI-B area model for ``config``."""
    checker_area = (config.checker.num_cores * ROCKET_AREA_MM2_40NM
                    * NODE_SCALE_40_TO_20)
    sram_kib = added_sram_kib(config)
    sram_area = (sram_kib / 1024) * SRAM_MM2_PER_MIB
    return AreaBreakdown(
        main_core_mm2=A57_AREA_MM2_20NM,
        checker_cores_mm2=checker_area,
        sram_added_mm2=sram_area,
        l2_mm2=L2_AREA_MM2,
        added_sram_kib=sram_kib,
    )
