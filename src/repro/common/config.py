"""Configuration dataclasses reproducing Table I of the paper.

Every structural parameter of the simulated system lives here, with the
paper's defaults.  The experiment harness varies these (checker frequency,
log size, instruction timeout, number of checker cores) to regenerate the
parameter-sensitivity figures.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

from repro.common.errors import ConfigError
from repro.common.records import canonical_json
from repro.common.time import CHECKER_CLOCK_MHZ, MAIN_CLOCK_MHZ, Clock

#: Bytes occupied by one load-store log entry: a 64-bit address plus a
#: 64-bit value (loads record both so the checker can validate the address
#: and consume the value; stores record both so the checker can validate
#: address and data).
LOG_ENTRY_BYTES = 16


@dataclass(frozen=True)
class MainCoreConfig:
    """The high-performance out-of-order core (Table I, top)."""

    freq_mhz: float = MAIN_CLOCK_MHZ
    fetch_width: int = 3
    commit_width: int = 3
    rob_entries: int = 40
    iq_entries: int = 32
    lq_entries: int = 16
    sq_entries: int = 16
    int_regs: int = 128
    fp_regs: int = 128
    int_alus: int = 3
    fp_alus: int = 2
    muldiv_alus: int = 1
    #: Cycles commit pauses while an architectural register checkpoint is
    #: copied out (Table I: 16 cycles).
    checkpoint_latency_cycles: int = 16
    #: Pipeline refill penalty after a branch misprediction, in cycles.
    mispredict_penalty_cycles: int = 12

    def clock(self) -> Clock:
        return Clock.from_mhz(self.freq_mhz)

    def validate(self) -> None:
        if self.fetch_width < 1 or self.commit_width < 1:
            raise ConfigError("core widths must be >= 1")
        if self.rob_entries < self.commit_width:
            raise ConfigError("ROB must hold at least one commit group")
        if min(self.int_alus, self.fp_alus, self.muldiv_alus) < 1:
            raise ConfigError("each functional-unit class needs >= 1 unit")
        if self.checkpoint_latency_cycles < 0:
            raise ConfigError("checkpoint latency cannot be negative")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Tournament predictor (Table I): local/global/chooser + BTB + RAS."""

    local_entries: int = 2048
    local_history_bits: int = 11
    global_entries: int = 8192
    chooser_entries: int = 2048
    btb_entries: int = 2048
    ras_entries: int = 16

    def validate(self) -> None:
        for name in ("local_entries", "global_entries", "chooser_entries", "btb_entries"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ConfigError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """One level of set-associative cache."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency_cycles: int = 2
    mshrs: int = 6

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def validate(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by assoc*line "
                f"({self.assoc}*{self.line_bytes})"
            )
        sets = self.num_sets
        if sets < 1 or sets & (sets - 1):
            raise ConfigError(f"cache set count must be a power of two, got {sets}")


@dataclass(frozen=True)
class DRAMConfig:
    """DDR3-1600 11-11-11-28 timing (Table I), expressed as access latencies
    seen by the L2 miss path, in nanoseconds."""

    #: Row-buffer hit latency (CL only).
    row_hit_ns: float = 13.75
    #: Row-buffer miss (tRCD + CL).
    row_miss_ns: float = 27.5
    #: Row-buffer conflict (tRP + tRCD + CL).
    row_conflict_ns: float = 41.25
    #: Number of row-buffer-tracked banks.
    banks: int = 8
    #: Bytes per DRAM row.
    row_bytes: int = 8192

    def validate(self) -> None:
        if not (0 < self.row_hit_ns <= self.row_miss_ns <= self.row_conflict_ns):
            raise ConfigError("DRAM latencies must satisfy hit <= miss <= conflict")
        if self.banks < 1:
            raise ConfigError("DRAM needs at least one bank")


@dataclass(frozen=True)
class MemoryConfig:
    """The main core's memory hierarchy (Table I, middle)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, assoc=2, hit_latency_cycles=2, mshrs=6
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, assoc=2, hit_latency_cycles=2, mshrs=6
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1024 * 1024, assoc=16, hit_latency_cycles=12, mshrs=16
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Whether the L2 runs the stride prefetcher (Table I: yes).
    l2_stride_prefetcher: bool = True

    def validate(self) -> None:
        self.l1i.validate()
        self.l1d.validate()
        self.l2.validate()
        self.dram.validate()


@dataclass(frozen=True)
class CheckerConfig:
    """The set of small in-order checker cores (Table I, bottom)."""

    num_cores: int = 12
    freq_mhz: float = CHECKER_CLOCK_MHZ
    pipeline_stages: int = 4
    #: Per-core private L0 instruction cache.
    l0i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * 1024, assoc=2, hit_latency_cycles=1, mshrs=1
        )
    )
    #: L1 instruction cache shared between all checker cores.
    shared_l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, assoc=4, hit_latency_cycles=4, mshrs=4
        )
    )
    #: L0 miss that also misses the shared L1I and goes to the main L2, in
    #: checker cycles.
    l2_fetch_latency_cycles: int = 12

    def clock(self) -> Clock:
        return Clock.from_mhz(self.freq_mhz)

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("need at least one checker core")
        if self.pipeline_stages < 1:
            raise ConfigError("pipeline needs at least one stage")
        self.l0i.validate()
        self.shared_l1i.validate()
        Clock.from_mhz(self.freq_mhz)


@dataclass(frozen=True)
class DetectionConfig:
    """The load-store log and detection policy (Table I: 36 KiB log, 3 KiB
    per core, 5,000-instruction timeout)."""

    #: Total load-store log size in bytes, split evenly between segments.
    log_bytes: int = 36 * 1024
    #: Maximum committed instructions per segment before an early checkpoint
    #: is forced.  ``None`` disables the timeout (used by Figures 10/12).
    instruction_timeout: int | None = 5000
    #: Model the load forwarding unit (ablation knob; the paper always has
    #: it).  When disabled, load values are snapshotted at commit instead of
    #: at access, re-opening the window of vulnerability.
    load_forwarding_unit: bool = True
    #: When True, checker cores are treated as infinitely fast and the only
    #: detection cost is register checkpointing.  Used for Figure 10.
    ideal_checkers: bool = False

    def segment_bytes(self, num_cores: int) -> int:
        return self.log_bytes // num_cores

    def segment_entries(self, num_cores: int) -> int:
        """Capacity of one log segment, in load/store entries."""
        entries = self.segment_bytes(num_cores) // LOG_ENTRY_BYTES
        if entries < 1:
            raise ConfigError(
                f"log of {self.log_bytes} B split {num_cores} ways leaves "
                f"no room for even one {LOG_ENTRY_BYTES} B entry per segment"
            )
        return entries

    def validate(self, num_cores: int) -> None:
        if self.log_bytes <= 0:
            raise ConfigError("log size must be positive")
        if self.instruction_timeout is not None and self.instruction_timeout < 1:
            raise ConfigError("instruction timeout must be >= 1 or None")
        self.segment_entries(num_cores)


@dataclass(frozen=True)
class SystemConfig:
    """Complete system configuration (Table I)."""

    main_core: MainCoreConfig = field(default_factory=MainCoreConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    checker: CheckerConfig = field(default_factory=CheckerConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def validate(self) -> "SystemConfig":
        """Validate every sub-config; returns self for chaining."""
        self.main_core.validate()
        self.branch.validate()
        self.memory.validate()
        self.checker.validate()
        self.detection.validate(self.checker.num_cores)
        return self

    # Memos in the instance ``__dict__`` (a frozen dataclass allows it):
    # per object, never per value, since ``with_checker_freq(1000)``
    # equals the default ``1000.0`` config but serialises differently.

    @cached_property
    def description(self) -> dict:
        """``asdict(self)``, computed once and shared: treat it read-only."""
        return asdict(self)

    @cached_property
    def description_json(self) -> str:
        """The canonical JSON of :attr:`description`."""
        return canonical_json(self.description)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of :attr:`description_json`."""
        return hashlib.sha256(self.description_json.encode()).hexdigest()

    # -- convenience constructors used by the sweep harness ---------------

    def with_checker_freq(self, freq_mhz: float) -> "SystemConfig":
        return replace(self, checker=replace(self.checker, freq_mhz=freq_mhz))

    def with_checker_cores(self, num_cores: int) -> "SystemConfig":
        return replace(self, checker=replace(self.checker, num_cores=num_cores))

    def with_log(self, log_bytes: int, instruction_timeout: int | None) -> "SystemConfig":
        return replace(
            self,
            detection=replace(
                self.detection,
                log_bytes=log_bytes,
                instruction_timeout=instruction_timeout,
            ),
        )

    def with_ideal_checkers(self, ideal: bool = True) -> "SystemConfig":
        return replace(self, detection=replace(self.detection, ideal_checkers=ideal))


def default_config() -> SystemConfig:
    """The paper's Table I configuration."""
    return SystemConfig().validate()


def config_from_dict(data: dict) -> SystemConfig:
    """Rebuild a validated :class:`SystemConfig` from ``asdict()`` output.

    The inverse of :func:`dataclasses.asdict` for the nested config tree:
    campaign manifests persist each job's full configuration as plain
    JSON, and worker processes on other hosts reconstruct it from this.
    Round-trip contract: ``config_from_dict(asdict(cfg)) == cfg``.
    """
    memory = data["memory"]
    checker = dict(data["checker"])
    checker["l0i"] = CacheConfig(**checker["l0i"])
    checker["shared_l1i"] = CacheConfig(**checker["shared_l1i"])
    return SystemConfig(
        main_core=MainCoreConfig(**data["main_core"]),
        branch=BranchPredictorConfig(**data["branch"]),
        memory=MemoryConfig(
            l1i=CacheConfig(**memory["l1i"]),
            l1d=CacheConfig(**memory["l1d"]),
            l2=CacheConfig(**memory["l2"]),
            dram=DRAMConfig(**memory["dram"]),
            l2_stride_prefetcher=memory["l2_stride_prefetcher"],
        ),
        checker=CheckerConfig(**checker),
        detection=DetectionConfig(**data["detection"]),
    ).validate()


def table1_rows() -> list[tuple[str, str]]:
    """Render Table I as (parameter, value) rows, for the config bench."""
    cfg = default_config()
    mc, ck, det = cfg.main_core, cfg.checker, cfg.detection
    mem = cfg.memory
    timeout = "inf" if det.instruction_timeout is None else str(det.instruction_timeout)
    return [
        ("Main core", f"{mc.fetch_width}-wide, out-of-order, {mc.freq_mhz / 1000:.1f}GHz"),
        (
            "Pipeline",
            f"{mc.rob_entries}-entry ROB, {mc.iq_entries}-entry IQ, "
            f"{mc.lq_entries}-entry LQ, {mc.sq_entries}-entry SQ, "
            f"{mc.int_regs} Int / {mc.fp_regs} FP registers, "
            f"{mc.int_alus} Int ALUs, {mc.fp_alus} FP ALUs, {mc.muldiv_alus} Mult/Div ALU",
        ),
        (
            "Branch pred.",
            f"{cfg.branch.local_entries}-entry local, {cfg.branch.global_entries}-entry "
            f"global, {cfg.branch.chooser_entries}-entry chooser, "
            f"{cfg.branch.btb_entries}-entry BTB, {cfg.branch.ras_entries}-entry RAS",
        ),
        ("Reg. checkpoint", f"{mc.checkpoint_latency_cycles} cycles latency"),
        ("L1 ICache", f"{mem.l1i.size_bytes // 1024}KiB, {mem.l1i.assoc}-way, "
                      f"{mem.l1i.hit_latency_cycles}-cycle hit lat, {mem.l1i.mshrs} MSHRs"),
        ("L1 DCache", f"{mem.l1d.size_bytes // 1024}KiB, {mem.l1d.assoc}-way, "
                      f"{mem.l1d.hit_latency_cycles}-cycle hit lat, {mem.l1d.mshrs} MSHRs"),
        ("L2 Cache", f"{mem.l2.size_bytes // 1024}KiB, {mem.l2.assoc}-way, "
                     f"{mem.l2.hit_latency_cycles}-cycle hit lat, {mem.l2.mshrs} MSHRs, "
                     f"stride prefetcher"),
        ("Memory", "DDR3-1600 11-11-11-28 800MHz"),
        ("Checker cores", f"{ck.num_cores}x in-order, {ck.pipeline_stages} stage pipeline, "
                          f"{ck.freq_mhz / 1000:g}GHz"),
        ("Log size", f"{det.log_bytes // 1024}KiB: "
                     f"{det.segment_bytes(ck.num_cores) // 1024}KiB per core, "
                     f"{timeout} instruction timeout"),
        ("Checker cache", f"{ck.l0i.size_bytes // 1024}KiB L0 ICache per core, "
                          f"{ck.shared_l1i.size_bytes // 1024}KiB shared L1"),
    ]
