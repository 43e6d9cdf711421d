"""The paper's contribution: parallel error detection on heterogeneous cores."""

from repro.detection.checker import (
    CheckError,
    CheckResult,
    ErrorKind,
    SegmentChecker,
)
from repro.detection.checkpoint import ArchStateTracker, RegisterCheckpoint
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    HardFault,
    TransientFault,
)
from repro.detection.lslog import (
    CloseReason,
    Segment,
    segment_close,
    segment_starts,
)
from repro.detection.system import (
    DetectionEvent,
    DetectionReport,
    DetectionRunResult,
    DetectionVerdict,
    ParallelErrorDetection,
    run_unprotected,
    run_with_detection,
)

__all__ = [
    "ArchStateTracker",
    "CheckError",
    "CheckResult",
    "CloseReason",
    "DetectionEvent",
    "DetectionReport",
    "DetectionRunResult",
    "DetectionVerdict",
    "ErrorKind",
    "EXECUTION_SITES",
    "FaultInjector",
    "FaultSite",
    "HardFault",
    "ParallelErrorDetection",
    "RegisterCheckpoint",
    "Segment",
    "SegmentChecker",
    "TransientFault",
    "run_unprotected",
    "run_with_detection",
    "segment_close",
    "segment_starts",
]
