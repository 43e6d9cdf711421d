"""Serialisable result records for campaigns and figure harnesses.

Every record here is a frozen dataclass with a stable dict/JSON
round-trip, so campaign results can be cached on disk, shipped between
worker processes, and compared byte-for-byte across runs.  The canonical
JSON encoding (sorted keys, no whitespace) is the determinism contract:
a campaign run serially, in parallel, or replayed from a warm cache must
produce identical bytes for identical jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields


#: The one encoder behind :func:`canonical_json`.  ``json.dumps`` with
#: these options builds a new encoder on every call; ``encode`` keeps no
#: state between calls, so one shared instance gives the same bytes.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, minimal separators.

    Identical payloads serialise to identical bytes regardless of dict
    construction order or worker count — the byte-identity contract of
    the campaign cache.
    """
    return _CANONICAL_ENCODER.encode(payload)


@dataclass(frozen=True)
class RunSummary:
    """One benchmark × configuration data point (the figure-table cell)."""

    benchmark: str
    slowdown: float
    mean_delay_ns: float
    max_delay_ns: float
    base_cycles: int
    det_cycles: int


@dataclass(frozen=True)
class RunRecord:
    """A full fault-free detection run, rich enough to rebuild the
    per-run :class:`~repro.detection.system.DetectionReport` views the
    figure harness consumes (delay distribution, closure accounting,
    stall breakdown)."""

    benchmark: str
    scale: str
    config_key: str
    main_cycles: int
    system_cycles: int
    instructions: int
    delays_ns: tuple[float, ...]
    segments_checked: int
    entries_checked: int
    closes_by_reason: tuple[tuple[str, int], ...]
    checkpoints_taken: int
    checkpoint_stall_cycles: int
    log_full_stall_cycles: int
    checker_busy_ticks: tuple[int, ...]
    all_checks_done_tick: int
    detected: bool

    def mean_delay_ns(self) -> float:
        return (sum(self.delays_ns) / len(self.delays_ns)
                if self.delays_ns else 0.0)

    def max_delay_ns(self) -> float:
        return max(self.delays_ns) if self.delays_ns else 0.0


@dataclass(frozen=True)
class SchemeRunResult:
    """One benchmark timed under one protection scheme — the unified
    record every registered :class:`repro.schemes.base.ProtectionScheme`
    produces for a ``baseline``-kind campaign job.

    Carries both the measured timing (cycles vs. the unprotected core)
    and the scheme's Figure 1(d) comparison row plus capability flags,
    so a cross-scheme sweep is a pure function of these records.
    """

    scheme: str
    benchmark: str
    scale: str
    config_key: str
    cycles: int
    base_cycles: int
    instructions: int
    system_cycles: int
    slowdown: float
    #: typical error-detection latency in nanoseconds (None = no detection)
    detection_latency_ns: float | None
    area_overhead: float
    energy_overhead: float
    detects_faults: bool
    covers_hard_faults: bool
    supports_recovery: bool


#: Classification of one fault-injection trial (§IV-I's coverage buckets).
FAULT_OUTCOMES = ("not_activated", "masked", "detected", "escaped")


@dataclass(frozen=True)
class CoverageRecord:
    """One fault-injection trial, classified.

    ``escaped`` is the outcome the paper's coverage argument forbids:
    architecturally visible corruption that no check caught (SDC).
    """

    benchmark: str
    scale: str
    config_key: str
    site: str
    seq: int
    bit: int
    activated: bool
    outcome: str
    #: segment-close-to-check latency of the first event, in microseconds
    detect_latency_us: float | None
    first_error_segment: int | None
    first_error_entry: int | None
    #: protection scheme that classified the trial
    scheme: str = "detection"


@dataclass(frozen=True)
class FaultBatchRecord:
    """One batched fault-injection job: a whole grid cell of trials
    evaluated in one pass over a single golden trace.

    ``records`` holds one :class:`CoverageRecord` *as its tagged dict*
    per injected fault, in the cell's fault order — byte-identical to
    what the same faults produce as individual ``fault`` jobs, so any
    consumer may flatten a batch into per-fault records and forget the
    batching ever happened.
    """

    benchmark: str
    scale: str
    config_key: str
    #: per-fault CoverageRecord dicts, in the cell's fault order
    records: tuple[dict, ...]
    #: protection scheme that classified the trials
    scheme: str = "detection"


@dataclass(frozen=True)
class RecoveryRecord:
    """One detect→rollback→re-execute trial (the recovery extension)."""

    benchmark: str
    scale: str
    config_key: str
    site: str
    seq: int
    bit: int
    activated: bool
    detected: bool
    rollback_seq: int | None
    replayed_instructions: int
    recovered: bool
    state_correct: bool
    trace_len: int
    #: protection scheme that drove the detect→rollback→re-execute loop
    scheme: str = "detection"


@dataclass(frozen=True)
class JobLease:
    """A worker's exclusive, time-bounded claim on one manifest job.

    Lease envelopes are the only mutable coordination state of a
    distributed campaign: they are created atomically (``link(2)`` of a
    fully written temp file) so exactly one worker wins a job, and they
    carry a wall-clock expiry so a crashed worker's jobs return to the
    pending pool once ``expires_at`` passes.  Hosts sharing a manifest
    are expected to have loosely synchronised clocks (NTP-grade skew is
    far below any sensible TTL).
    """

    key: str
    worker: str
    acquired_at: float
    expires_at: float
    #: how many times this job has been leased (1 = first attempt; each
    #: reap of an expired lease increments it)
    attempt: int = 1


@dataclass(frozen=True)
class JobFailure:
    """A permanently failed manifest job: the envelope written under
    ``failed/`` when a worker's execution raised.  Failed jobs leave the
    pending pool (no retry storm); ``campaign-worker --retry-failed``
    clears the envelopes to re-queue them."""

    key: str
    worker: str
    error: str
    attempt: int = 1


_RECORD_TYPES = {
    cls.__name__: cls
    for cls in (RunRecord, CoverageRecord, FaultBatchRecord, RecoveryRecord,
                RunSummary, SchemeRunResult, JobLease, JobFailure)
}

#: Record fields that round-trip through JSON as lists but are tuples in
#: the frozen dataclasses.
_TUPLE_FIELDS = {"delays_ns", "checker_busy_ticks", "records"}


#: Field names per record type, in declaration order.
_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls))
                for cls in _RECORD_TYPES.values()}


def frozen_record(cls, **values):
    """``cls(**values)`` for a frozen record class, without the
    generated ``__init__``, which pays one ``object.__setattr__`` per
    field (most of a per-fault job's own framing time): the fresh
    keyword dict becomes the instance dict.  ``values`` must name every
    field, defaulted ones included; the record then compares, hashes
    and converts exactly like the constructed one."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", values)
    return record


def record_to_dict(record) -> dict:
    """Record → plain dict tagged with its type, ready for JSON.

    Built from the fields directly: record fields are scalars, tuples of
    scalars, or (a batch's ``records``) dicts shared with the record, so
    the canonical JSON equals ``asdict``'s without its deep copy.
    """
    cls = type(record)
    payload = {name: getattr(record, name) for name in _FIELD_NAMES[cls]}
    for name in _TUPLE_FIELDS & payload.keys():
        payload[name] = list(payload[name])
    closes = payload.get("closes_by_reason")
    if closes is not None:
        payload["closes_by_reason"] = [list(pair) for pair in closes]
    payload["record_type"] = cls.__name__
    return payload


def record_from_dict(payload: dict):
    """Inverse of :func:`record_to_dict`."""
    data = dict(payload)
    type_name = data.pop("record_type")
    cls = _RECORD_TYPES[type_name]
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"{type_name} record has unknown fields {sorted(unknown)}")
    for name in _TUPLE_FIELDS & data.keys():
        data[name] = tuple(data[name])
    if "closes_by_reason" in data:
        data["closes_by_reason"] = tuple(
            (str(reason), int(count))
            for reason, count in data["closes_by_reason"])
    return cls(**data)


def record_to_json(record) -> str:
    return canonical_json(record_to_dict(record))


def record_from_json(text: str):
    return record_from_dict(json.loads(text))
