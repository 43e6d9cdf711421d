"""Parallel campaign engine with an on-disk run cache.

A **campaign** is a declarative grid of jobs — (benchmark, scale,
:class:`~repro.common.config.SystemConfig`, fault/interrupt scenario)
tuples — executed through a :class:`CampaignEngine` that

* **runs pending jobs in fork order**: grouped by golden trace, each
  group in ascending fault seq, so consecutive fault jobs walk one
  fork cursor forward (see :func:`~repro.isa.executor.fork_cursor`);
* **shards deterministically** across a ``multiprocessing`` worker pool:
  job *i* of the fork-ordered pending set goes to shard ``i % workers``,
  so each shard walks forward too, and results are reassembled in
  submission order, so worker count never changes what a campaign
  produces, only how fast;
* **caches results content-addressed on disk**: every job has a stable
  key — the SHA-256 of its canonical JSON description (kind, protection
  scheme, benchmark, scale, the full config tree, the fault/interrupt
  scenario, and a schema version bumped whenever record semantics
  change) — and a warm cache replays a figure regeneration or fault
  campaign with zero re-executions.  Records are appended as lines to
  per-writer pack files (see :class:`RunCache`);
* **deduplicates** identical jobs within one submission (a sweep that
  names the same config twice executes it once).

Everything a job produces is a serialisable record from
:mod:`repro.common.records`; the full simulation objects never cross a
process or cache boundary.

Scaling beyond one process pool is the job of the orchestration layer
above this one: :mod:`repro.harness.manifest` materialises a grid as an
on-disk manifest and :mod:`repro.harness.orchestrator` lets any number
of worker processes (on any hosts sharing the directory) lease jobs
from it — all of them executing through the same :func:`execute_job`
and writing into the same :class:`RunCache`.  The static
:meth:`CampaignGrid.shard` round-robin split remains as the manual
compatibility path for environments without a shared directory.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import multiprocessing
import os
import socket
import threading
import uuid
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.common.config import SystemConfig, default_config
from repro.common.records import (
    CoverageRecord,
    FaultBatchRecord,
    RecoveryRecord,
    RunRecord,
    SchemeRunResult,
    canonical_json,
    frozen_record,
    record_from_dict,
    record_to_dict,
)
from repro.common.rng import derive
from repro.core.timing import config_key as timing_config_key
from repro.detection.faults import FaultSite, TransientFault, earliest_fault_seq
from repro.detection.system import run_with_detection
from repro.schemes import get_scheme, scheme_names
from repro.schemes.base import ProtectionScheme
# re-exported from its historical home here; the definition moved to the
# scheme layer alongside its consumers
from repro.schemes.base import architecturally_masked as architecturally_masked
from repro.workloads.suite import (
    benchmark_trace,
    benchmark_trace_length,
    configure_trace_store,
)

#: Bump whenever job execution or record layout changes meaning: every
#: cached result carries it, so stale caches read as misses, never as
#: silently wrong data.  v2: jobs carry a protection-scheme name, and
#: baseline/fault/recovery records gained scheme fields.  v3: the
#: execution core is columnar with pre-decoded dispatch and clean traces
#: flow through the shared golden-trace store (whose envelopes carry
#: their own schema) — results are re-keyed against the new pipeline.
#: v4: fault/recovery jobs execute through the fork-point path (golden
#: prefix spliced at the earliest fault, pre-fork segments checked by
#: column comparison) and golden envelopes carry state keyframes —
#: byte-identical records by construction, re-keyed all the same so a
#: fork-path defect can never be masked by pre-fork cached results.
#: v5: the ``fault-batch`` job kind (a whole fault grid cell per job,
#: one shared fork cursor over one golden trace), specs carry a
#: ``faults`` tuple, and golden envelopes are binary columnar (store
#: schema 3) — per-fault records stay byte-identical, but the spec
#: description grew a field, so every key changes.
#: v6: specs carry a ``timing`` mode (``cycle`` re-times every run on
#: the OoO model, ``interval`` estimates from the golden timing record),
#: golden envelopes carry per-config timing columns (store schema 4),
#: and detection-scheme fault jobs splice the pre-fork golden timing —
#: ``cycle`` records stay byte-identical, but interval records are a
#: genuinely different estimator, so the mode is part of every key.
#: v7: detection-scheme fault batches schedule one shared timing-splice
#: cursor per cell (snapshots at the sorted fork seqs, golden prefix
#: timed once per cell), forks are explicit flat snapshots instead of
#: deepcopy, and pre-fork segment checks are memoised — all pinned
#: byte-identical, but ``fault-batch`` is now gated on the scheme's
#: ``supports_fault_batch`` capability, so the envelope is re-keyed
#: against the capability-checked pipeline.
CACHE_SCHEMA_VERSION = 7

#: Subdirectory of a cache root holding the shared golden-trace store.
TRACE_STORE_DIRNAME = "traces"

#: Subdirectory of a cache root holding the run cache's pack files.
PACKS_DIRNAME = "packs"

#: Bytes an index refresh reads from a pack per call.
PACK_CHUNK = 1 << 20

#: Every pack line is a canonical envelope, so it opens with its key
#: (``key`` sorts first) and closes with its schema (``schema`` sorts
#: last).
_LINE_HEAD = b'{"key":"'
_KEY_END = len(_LINE_HEAD) + 64
_LINE_TAIL = b',"schema":%d}' % CACHE_SCHEMA_VERSION

#: Job kinds the engine knows how to execute.
JOB_KINDS = ("baseline", "detection", "fault", "fault-batch", "recovery")

#: Default scheme per job kind when a spec does not name one: timing
#: baselines default to the unprotected core; everything else to the
#: paper's detection scheme (the pre-registry behaviour).
DEFAULT_SCHEMES = {"baseline": "unprotected"}

#: The six architecturally visible main-core fault sites of the §IV-I
#: coverage campaigns (PC faults are exercised separately).
CAMPAIGN_SITES = (
    FaultSite.RESULT, FaultSite.LOAD_VALUE, FaultSite.LOAD_ADDR,
    FaultSite.STORE_VALUE, FaultSite.STORE_ADDR, FaultSite.BRANCH,
)


def config_fingerprint(config: SystemConfig) -> str:
    """Stable content hash of a full system configuration.

    Delegates to :func:`repro.core.timing.config_key` so campaign
    records and golden timing address configurations by the same key —
    a record's ``config_key`` can be looked up directly in a trace's
    ``timings``.
    """
    return timing_config_key(config)


def unique_suffix() -> str:
    """Collision-proof token for temp/reap file names in directories
    shared between hosts (pid alone is not unique across hosts)."""
    return f"{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work, hashable and picklable.

    Equal-valued specs are the same job: they share a cache entry and
    execute at most once per campaign.
    """

    kind: str
    benchmark: str
    scale: str = "small"
    config: SystemConfig = field(default_factory=default_config)
    fault: TransientFault | None = None
    #: the whole fault cell of a ``fault-batch`` job, in record order
    faults: tuple[TransientFault, ...] = ()
    interrupt_seqs: tuple[int, ...] = ()
    #: protection-scheme registry name; empty resolves to the kind's
    #: default (:data:`DEFAULT_SCHEMES`) so pre-registry call sites keep
    #: naming the same jobs
    scheme: str = ""
    #: the timing model, always ``cycle`` (the exact OoO model); kept
    #: because every cache key hashes it
    timing: str = "cycle"

    def __post_init__(self) -> None:
        if not self.scheme:
            object.__setattr__(
                self, "scheme", DEFAULT_SCHEMES.get(self.kind, "detection"))
        if self.timing != "cycle":
            raise ValueError(f"unknown timing mode {self.timing!r}; "
                             f"only 'cycle' is supported")

    def describe(self) -> dict:
        """The canonical description hashed into the cache key (its
        ``config`` is the config's shared memo: serialise, never mutate)."""
        return {"benchmark": self.benchmark,
                "config": self.config.description,
                **self._scenario()}

    def _scenario(self) -> dict:
        """The description's entries whose names sort after ``config``."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": self.kind,
            "scheme": self.scheme,
            "scale": self.scale,
            "fault": (_describe_fault(self.fault)
                      if self.fault is not None else None),
            "faults": [_describe_fault(fault) for fault in self.faults],
            "interrupt_seqs": list(self.interrupt_seqs),
            "timing": self.timing,
        }

    def key(self) -> str:
        """SHA-256 of ``canonical_json(self.describe())``.  Canonical JSON
        sorts keys, and ``benchmark`` < ``config`` < every scenario
        entry, so the config's memoised JSON splices in verbatim."""
        text = (f'{{"benchmark":{canonical_json(self.benchmark)},'
                f'"config":{self.config.description_json},'
                f'{canonical_json(self._scenario())[1:]}')
        return hashlib.sha256(text.encode()).hexdigest()


#: TransientFault's field names, in declaration order.
_FAULT_FIELDS = tuple(f.name for f in fields(TransientFault))


def _describe_fault(fault: TransientFault) -> dict:
    """``asdict(fault)`` with the site as its value, built without the
    deep copy (every field is an immutable scalar)."""
    payload = {name: getattr(fault, name) for name in _FAULT_FIELDS}
    payload["site"] = fault.site.value
    return payload


# -- job execution (runs inside worker processes) ---------------------------

def _run_record(spec: JobSpec, config_key: str, result) -> RunRecord:
    report = result.report
    return RunRecord(
        benchmark=spec.benchmark,
        scale=spec.scale,
        config_key=config_key,
        main_cycles=result.main_cycles,
        system_cycles=result.system_cycles,
        instructions=result.core.instructions,
        delays_ns=tuple(report.delays_ns.values),
        segments_checked=report.segments_checked,
        entries_checked=report.entries_checked,
        closes_by_reason=tuple(sorted(report.closes_by_reason.items())),
        checkpoints_taken=report.checkpoints_taken,
        checkpoint_stall_cycles=report.checkpoint_stall_cycles,
        log_full_stall_cycles=report.log_full_stall_cycles,
        checker_busy_ticks=tuple(report.checker_busy_ticks),
        all_checks_done_tick=report.all_checks_done_tick,
        detected=report.detected,
    )


def _baseline_record(spec: JobSpec, scheme: ProtectionScheme,
                     config_key: str) -> SchemeRunResult:
    """A ``baseline``-kind job: time the benchmark under ``scheme``."""
    trace = benchmark_trace(spec.benchmark, spec.scale)
    timing = scheme.time(trace, spec.config)
    summary = scheme.overheads(timing, spec.config)
    return SchemeRunResult(
        scheme=scheme.name,
        benchmark=spec.benchmark,
        scale=spec.scale,
        config_key=config_key,
        cycles=timing.cycles,
        base_cycles=timing.base_cycles,
        instructions=timing.instructions,
        system_cycles=timing.system_cycles,
        slowdown=summary.slowdown,
        detection_latency_ns=summary.detection_latency_ns,
        area_overhead=summary.area_overhead,
        energy_overhead=summary.energy_overhead,
        detects_faults=scheme.detects_faults,
        covers_hard_faults=scheme.covers_hard_faults,
        supports_recovery=scheme.supports_recovery,
    )


def _detection_record(spec: JobSpec, scheme: ProtectionScheme,
                      config_key: str) -> RunRecord:
    """A ``detection``-kind job: the paper scheme's *rich* fault-free run
    (delay distribution, closure accounting, stall breakdown).  Other
    schemes have no detection report; time them with ``baseline`` jobs."""
    if spec.scheme != "detection":
        raise ValueError(
            f"kind 'detection' needs the 'detection' scheme's report; "
            f"got scheme {spec.scheme!r} (use kind 'baseline' to time it)")
    trace = benchmark_trace(spec.benchmark, spec.scale)
    result = run_with_detection(
        trace, spec.config,
        interrupt_seqs=list(spec.interrupt_seqs) or None)
    return _run_record(spec, config_key, result)


def _coverage_record(spec: JobSpec, scheme: ProtectionScheme,
                     config_key: str, fault: TransientFault,
                     verdict) -> CoverageRecord:
    """One classified trial as a record — shared verbatim by the
    per-fault and batch executors, so their records cannot drift."""
    return frozen_record(
        CoverageRecord,
        scheme=scheme.name,
        benchmark=spec.benchmark,
        scale=spec.scale,
        config_key=config_key,
        # the member's value, read without ``Enum.value``'s Python-level
        # descriptor (this runs once per fault job)
        site=fault.site._value_,
        seq=fault.seq,
        bit=fault.bit,
        activated=verdict.activated,
        outcome=verdict.outcome,
        detect_latency_us=verdict.detect_latency_us,
        first_error_segment=verdict.first_error_segment,
        first_error_entry=verdict.first_error_entry,
    )


def _fault_record(spec: JobSpec, scheme: ProtectionScheme,
                  config_key: str) -> CoverageRecord:
    """A ``fault`` job: a cell of one fault through the batch path, so
    its record is byte-identical to that fault's in any ``fault-batch``
    cell."""
    fault = spec.fault
    clean = benchmark_trace(spec.benchmark, spec.scale)
    verdict, = scheme.inject_batch(clean, spec.config, (fault,),
                                   spec.interrupt_seqs)
    return _coverage_record(spec, scheme, config_key, fault, verdict)


def _fault_batch_record(spec: JobSpec, scheme: ProtectionScheme,
                        config_key: str) -> FaultBatchRecord:
    """A ``fault-batch`` job: one grid cell of faults, one golden trace,
    one fork cursor (see :meth:`ProtectionScheme.inject_batch`).

    The nested per-fault dicts are exactly what the same faults would
    produce as individual ``fault`` jobs — pinned by tests, so batch
    campaigns remain flattenable and comparable against per-job runs.
    """
    if not spec.faults:
        raise ValueError("fault-batch job carries an empty fault cell")
    clean = benchmark_trace(spec.benchmark, spec.scale)
    verdicts = scheme.inject_batch(clean, spec.config, spec.faults,
                                   interrupt_seqs=spec.interrupt_seqs)
    return FaultBatchRecord(
        benchmark=spec.benchmark,
        scale=spec.scale,
        config_key=config_key,
        records=tuple(
            record_to_dict(
                _coverage_record(spec, scheme, config_key, fault, verdict))
            for fault, verdict in zip(spec.faults, verdicts)),
        scheme=scheme.name,
    )


def _recovery_record(spec: JobSpec, scheme: ProtectionScheme,
                     config_key: str) -> RecoveryRecord:
    if not scheme.supports_recovery:
        raise ValueError(
            f"scheme {scheme.name!r} does not support recovery campaigns")
    fault = spec.fault
    clean = benchmark_trace(spec.benchmark, spec.scale)
    # the fault path every fault job shares: the fork-point path unless
    # vetoed, byte-identical to a full re-execution minus the clean prefix
    _, injector, faulty = next(scheme.faulty_runs(clean, (fault,)))
    if not injector.activations:
        return RecoveryRecord(
            benchmark=spec.benchmark, scale=spec.scale, config_key=config_key,
            site=fault.site.value, seq=fault.seq, bit=fault.bit,
            activated=False, detected=False, rollback_seq=None,
            replayed_instructions=0, recovered=False, state_correct=False,
            trace_len=len(clean), scheme=scheme.name)
    outcome = scheme.recover(clean, faulty, spec.config)
    return RecoveryRecord(
        benchmark=spec.benchmark, scale=spec.scale, config_key=config_key,
        site=fault.site.value, seq=fault.seq, bit=fault.bit,
        activated=True, detected=outcome.detected,
        rollback_seq=outcome.rollback_seq,
        replayed_instructions=outcome.replayed_instructions,
        recovered=outcome.recovered, state_correct=outcome.state_correct,
        trace_len=len(clean), scheme=scheme.name)


#: kind → executor; each executor receives the spec, its resolved scheme
#: instance, and the config fingerprint.
_KIND_EXECUTORS = {
    "baseline": _baseline_record,
    "detection": _detection_record,
    "fault": _fault_record,
    "fault-batch": _fault_batch_record,
    "recovery": _recovery_record,
}


def execute_job(spec: JobSpec) -> dict:
    """Execute one job and return its record as a plain dict.

    This is the single execution entry point shared by serial runs and
    pool workers; the scheme named by the spec is resolved through the
    registry here, in whichever process the job lands in.  Per-process
    trace caches in the suite registry keep repeated jobs on the same
    benchmark cheap within one worker.
    """
    try:
        executor = _KIND_EXECUTORS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {spec.kind!r}; "
                         f"one of {JOB_KINDS} expected") from None
    scheme = get_scheme(spec.scheme)
    config_key = config_fingerprint(spec.config)
    return record_to_dict(executor(spec, scheme, config_key))


def _execute_shard(payload: tuple[str | None, list[tuple[int, JobSpec]]],
                   ) -> list[tuple[int, dict]]:
    """Worker entry: execute one shard, tagging results with job indices.

    ``payload`` carries the golden-trace store root alongside the jobs so
    pool children (including spawn-start ones) share the parent's store.
    """
    store_root, items = payload
    if store_root is not None:
        configure_trace_store(store_root)
    return [(index, execute_job(spec)) for index, spec in items]


# -- the on-disk cache -------------------------------------------------------

class _Pack:
    """One pack file open for reading, and the end of its indexed lines."""

    __slots__ = ("file", "indexed")

    def __init__(self, file) -> None:
        self.file = file
        self.indexed = 0


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class RunCache:
    """Content-addressed result store over append-only pack files.

    Every record is one canonical-JSON envelope ``{key, record, schema}``
    on its own line of a pack, ``<root>/packs/<host>-<slot>.pack``.  A
    cache appends only to the pack whose slot it holds an exclusive
    ``flock`` on: the lowest free slot, taken at its first write and
    kept for its lifetime.  The kernel drops the lock when a writer
    dies, so the next writer reuses that pack, and a cache holds one
    pack per concurrent writer, not one per process that ever wrote.

    Each line goes down in one ``write`` call (repeated only on a short
    write) and readers index only complete, newline-terminated lines,
    so a writer killed mid-line leaves a torn tail that reads as a
    miss; the next writer of that pack seals it with a newline before
    appending.  Unreadable or mismatched entries read as misses and are
    re-executed.

    Lookups go through an in-memory index of each key's locations.  A
    miss first indexes whatever lines the packs gained since the last
    look, so records written by other processes become visible at the
    next lookup that needs them.  One lock guards the writer and the
    index, so threads may share a cache.

    :meth:`close` (or leaving a ``with`` block) closes the pack files
    and releases the writer's slot; a later ``get`` or ``put`` reopens
    them, so a closed cache stays usable.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._packs_dir = os.path.join(self.root, PACKS_DIRNAME)
        self._lock = threading.Lock()
        #: pack file name -> its reader
        self._packs: dict[str, _Pack] = {}
        #: key -> (pack, offset, length) of each of its lines, in pack order
        self._index: dict[str, list[tuple[_Pack, int, int]]] = {}
        #: the slot-locked pack this cache appends to, the reader of that
        #: pack, and the process that locked it (a forked child must not
        #: append through its parent's descriptor)
        self._writer = None
        self._own: _Pack | None = None
        self._writer_pid = 0

    @staticmethod
    def _valid(envelope: object, key: str) -> bool:
        return (isinstance(envelope, dict)
                and envelope.get("key") == key
                and envelope.get("schema") == CACHE_SCHEMA_VERSION
                and isinstance(envelope.get("record"), dict))

    # -- the index -----------------------------------------------------------

    def _reader(self, name: str) -> _Pack:
        pack = self._packs.get(name)
        if pack is None:
            pack = _Pack(open(os.path.join(self._packs_dir, name), "rb",
                              buffering=0))
            self._packs[name] = pack
        return pack

    def _refresh(self) -> None:
        """Index the complete lines every pack gained since the last look."""
        try:
            names = os.listdir(self._packs_dir)
        except OSError:
            return
        for name in names:
            if name.endswith(".pack"):
                try:
                    self._scan(self._reader(name))
                except OSError:  # removed or unreadable: skip it
                    pass

    def _scan(self, pack: _Pack) -> None:
        """Index ``pack``'s complete lines past its indexed end, reading
        in bounded chunks; a partial last line waits for the next scan."""
        fd = pack.file.fileno()
        size = os.fstat(fd).st_size
        start = pack.indexed
        want = PACK_CHUNK
        while start < size:
            chunk = os.pread(fd, min(want, size - start), start)
            end = chunk.rfind(b"\n") + 1
            if end:
                self._index_lines(pack, chunk, end, start)
                start += end
                want = PACK_CHUNK
            elif len(chunk) < want:
                break
            else:  # one line longer than a chunk
                want *= 2
        pack.indexed = start

    def _index_lines(self, pack: _Pack, chunk: bytes, end: int,
                     base: int) -> None:
        index = self._index
        lo = 0
        while lo < end:
            hi = chunk.index(b"\n", lo)
            # a complete entry opens with its key and closes with the
            # schema field (canonical JSON sorts both ends); a sealed torn
            # fragment never closes that way, so it never reads as present
            if (hi - lo > _KEY_END + len(_LINE_TAIL)
                    and chunk.startswith(_LINE_HEAD, lo)
                    and chunk[lo + _KEY_END] == 0x22  # the key's closing quote
                    and chunk.endswith(_LINE_TAIL, lo, hi)):
                key = chunk[lo + len(_LINE_HEAD):lo + _KEY_END].decode("latin-1")
                index.setdefault(key, []).append((pack, base + lo, hi - lo))
            lo = hi + 1

    def _find(self, key: str) -> tuple[bytes, dict] | None:
        """The bytes and envelope of ``key``'s first valid line; a key
        with none refreshes the index once and tries its new lines."""
        with self._lock:
            tried = 0
            for refresh in (False, True):
                if refresh:
                    self._refresh()
                locations = self._index.get(key, ())
                for pack, offset, length in locations[tried:]:
                    try:
                        data = os.pread(pack.file.fileno(), length, offset)
                        envelope = json.loads(data)
                    except (OSError, ValueError):
                        continue
                    if self._valid(envelope, key):
                        return data, envelope
                tried = len(locations)
        return None

    def keys(self) -> set[str]:
        """Every key with a complete line in some pack, after a refresh.

        Presence is not validation: state scans count a present entry as
        done without parsing it (see ``CampaignManifest.job_states``).
        """
        with self._lock:
            self._refresh()
            return set(self._index)

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def etag(key: str) -> str:
        """The strong HTTP entity tag of ``key``'s record.

        The store is content-addressed and envelopes are canonical JSON,
        so the content key *is* the entity: two envelopes with the same
        key and schema are byte-identical by construction.  The schema
        version is folded in because a schema bump changes the envelope
        bytes for the same key.
        """
        return f'"{CACHE_SCHEMA_VERSION}-{key}"'

    def read_envelope(self, key: str) -> bytes | None:
        """The raw canonical envelope bytes of a valid entry, or None.

        This is the record-serving accessor: callers that put envelopes
        on the wire (``GET /records/{key}``) get exactly the bytes of the
        pack line, so an HTTP fetch and a direct cache read can never
        differ.
        """
        found = self._find(key)
        return None if found is None else found[0]

    def get(self, key: str) -> dict | None:
        found = self._find(key)
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return found[1]["record"]

    def has(self, key: str) -> bool:
        """Whether a valid record exists, without perturbing the hit/miss
        counters — manifest state scans poll doneness far more often than
        the engine actually consumes records."""
        return self._find(key) is not None

    # -- writes --------------------------------------------------------------

    def _adopt(self) -> None:
        """Lock the lowest free pack slot for this cache's lifetime, seal
        a torn tail a dead writer left in it, and index the pack."""
        if self._writer is not None:
            # inherited across a fork: closing this copy keeps the
            # parent's lock, which lives as long as any copy is open
            self._writer.close()
            self._writer = None
        os.makedirs(self._packs_dir, exist_ok=True)
        host = socket.gethostname()
        for slot in itertools.count():
            name = f"{host}-{slot}.pack"
            writer = open(os.path.join(self._packs_dir, name), "ab",
                          buffering=0)
            try:
                fcntl.flock(writer.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                writer.close()
                continue
            break
        own = self._reader(name)
        fd = own.file.fileno()
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            _write_all(writer.fileno(), b"\n")
        self._scan(own)
        self._writer, self._own = writer, own
        self._writer_pid = os.getpid()

    def put(self, key: str, record: dict) -> None:
        line = (canonical_json(
            {"key": key, "schema": CACHE_SCHEMA_VERSION, "record": record})
            + "\n").encode()
        with self._lock:
            if self._writer_pid != os.getpid():
                self._adopt()
            try:
                _write_all(self._writer.fileno(), line)
            except OSError:
                # the next put adopts a pack afresh and seals the torn line
                self._writer.close()
                self._writer = None
                self._writer_pid = 0
                raise
            own = self._own
            self._index.setdefault(key, []).append(
                (own, own.indexed, len(line) - 1))
            own.indexed += len(line)
            self.writes += 1

    # -- lifetime ------------------------------------------------------------

    def close(self) -> None:
        """Close every pack reader and the writer, releasing its slot's
        lock, and forget the index.  Idempotent; the next ``get`` or
        ``put`` reopens what it needs."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
            for pack in self._packs.values():
                pack.file.close()
            self._packs.clear()
            self._index.clear()
            self._writer = self._own = None
            self._writer_pid = 0

    def __enter__(self) -> "RunCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- grids -------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignGrid:
    """A declarative, ordered set of campaign jobs."""

    jobs: tuple[JobSpec, ...]

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def shard(self, index: int, count: int) -> "CampaignGrid":
        """Deterministic round-robin sub-grid ``index`` of ``count``.

        Shards partition the grid: running every shard (on any machine,
        in any order) against a shared cache covers exactly the full
        campaign.

        This is the *static* fan-out compatibility path: every shard
        must be launched (and relaunched after a crash) by hand, and a
        slow shard cannot be helped by a fast one.  Manifest-driven
        campaigns (:mod:`repro.harness.orchestrator`) supersede it with
        work-stealing leases wherever workers can share a directory.
        """
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} outside 0..{count - 1}")
        return CampaignGrid(self.jobs[index::count])


def detection_grid(benchmarks: Sequence[str],
                   configs: Sequence[SystemConfig],
                   scale: str = "small",
                   include_baselines: bool = True,
                   scheme: str = "detection") -> CampaignGrid:
    """The figure-sweep grid: every benchmark under every configuration,
    plus the unprotected baselines the slowdown normalisation needs.

    For the paper scheme the per-config cells are rich ``detection``
    runs; any other registered scheme gets uniform ``baseline`` timing
    jobs under the same configurations.
    """
    jobs: list[JobSpec] = []
    if include_baselines:
        base_cfg = configs[0] if configs else default_config()
        jobs.extend(JobSpec("baseline", name, scale, base_cfg)
                    for name in benchmarks)
    kind = "detection" if scheme == "detection" else "baseline"
    jobs.extend(JobSpec(kind, name, scale, cfg, scheme=scheme)
                for name in benchmarks for cfg in configs)
    return CampaignGrid(tuple(jobs))


def scheme_grid(benchmarks: Sequence[str],
                schemes: Sequence[str] | None = None,
                scale: str = "small",
                config: SystemConfig | None = None) -> CampaignGrid:
    """The cross-scheme comparison grid (Figure 1(d)): one timing job
    per registered scheme × benchmark, all under the same configuration.
    ``schemes=None`` sweeps the whole registry."""
    cfg = config if config is not None else default_config()
    names = tuple(schemes) if schemes is not None else scheme_names()
    for scheme in names:
        get_scheme(scheme)  # unknown names fail at grid build, not in a worker
    return CampaignGrid(tuple(
        JobSpec("baseline", bench, scale, cfg, scheme=scheme)
        for scheme in names for bench in benchmarks))


def _fault_stream(name: str, trials: int, sites: Sequence[FaultSite],
                  scale: str, seed: int) -> list[TransientFault]:
    """The ``trials`` faults a campaign injects into benchmark ``name``:
    ``sites`` in turn, with positions and bits drawn from the
    benchmark's own deterministic stream."""
    clean_len = benchmark_trace_length(name, scale)
    rng = derive(seed, f"campaign:fault:{name}")
    return [TransientFault(sites[trial % len(sites)],
                           seq=rng.randrange(10, clean_len - 10),
                           bit=rng.randrange(0, 48))
            for trial in range(trials)]


def fault_grid(benchmarks: Sequence[str],
               trials: int,
               sites: Sequence[FaultSite] = CAMPAIGN_SITES,
               scale: str = "small",
               config: SystemConfig | None = None,
               seed: int = 0,
               scheme: str = "detection") -> CampaignGrid:
    """A fault-injection grid: ``trials`` jobs per benchmark, cycling
    through ``sites``, with fault positions drawn from a per-benchmark
    deterministic stream (so the grid is a pure function of its
    arguments and caches are stable across invocations).

    The fault stream deliberately ignores ``scheme``: the same seed
    gives every scheme the identical fault set, so cross-scheme coverage
    and latency comparisons are apples-to-apples.

    Fault positions need each benchmark's dynamic trace length.  With a
    golden-trace store installed, a stored trace supplies it from its
    envelope header, so a grid over a warm store executes and decodes
    nothing; otherwise grid construction performs one functional
    execution per benchmark in the submitting process, memoised per
    process and published to the store for the jobs that follow.
    """
    cfg = config if config is not None else default_config()
    get_scheme(scheme)
    return CampaignGrid(tuple(
        JobSpec("fault", name, scale, cfg, fault=fault, scheme=scheme)
        for name in benchmarks
        for fault in _fault_stream(name, trials, sites, scale, seed)))


def fault_batch_grid(benchmarks: Sequence[str],
                     trials: int,
                     batch_size: int = 50,
                     sites: Sequence[FaultSite] = CAMPAIGN_SITES,
                     scale: str = "small",
                     config: SystemConfig | None = None,
                     seed: int = 0,
                     scheme: str = "detection") -> CampaignGrid:
    """The batched counterpart of :func:`fault_grid`: the *same* fault
    stream (same seed → the identical fault set, fault for fault, as a
    fault grid), chunked into ``fault-batch`` jobs of up to
    ``batch_size`` faults per cell.

    One batch job amortises fork-state reconstruction and per-job
    overhead across its whole cell; its record flattens into per-fault
    records byte-identical to the unbatched grid's.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    cfg = config if config is not None else default_config()
    get_scheme(scheme)
    jobs = []
    for name in benchmarks:
        # the stream fault_grid draws from: batching must not change
        # which faults a campaign injects
        faults = _fault_stream(name, trials, sites, scale, seed)
        for lo in range(0, len(faults), batch_size):
            jobs.append(JobSpec(
                "fault-batch", name, scale, cfg,
                faults=tuple(faults[lo:lo + batch_size]), scheme=scheme))
    return CampaignGrid(tuple(jobs))


def recovery_grid(benchmarks: Sequence[str],
                  trials: int,
                  scale: str = "small",
                  config: SystemConfig | None = None,
                  seed: int = 0,
                  site: FaultSite = FaultSite.STORE_VALUE,
                  bit: int = 5,
                  scheme: str = "detection") -> CampaignGrid:
    """Rollback-recovery trials: one late-striking fault per job.

    Only schemes with ``supports_recovery`` can run these; the check
    happens here so an unsupported scheme fails at grid construction
    rather than deep inside a worker process.
    """
    cfg = config if config is not None else default_config()
    if not get_scheme(scheme).supports_recovery:
        raise ValueError(
            f"scheme {scheme!r} does not support recovery campaigns")
    jobs = []
    for name in benchmarks:
        clean_len = benchmark_trace_length(name, scale)
        rng = derive(seed, f"campaign:recovery:{name}")
        for _ in range(trials):
            fault = TransientFault(
                site, seq=rng.randrange(clean_len // 4, clean_len - 10),
                bit=bit)
            jobs.append(JobSpec("recovery", name, scale, cfg, fault=fault,
                                scheme=scheme))
    return CampaignGrid(tuple(jobs))


# -- the engine --------------------------------------------------------------

@dataclass
class CampaignResult:
    """Outcome of one engine submission, in submission order."""

    jobs: tuple[JobSpec, ...]
    keys: tuple[str, ...]
    records: tuple[dict, ...]
    #: jobs actually simulated in this submission (unique pending keys)
    executed: int
    #: job slots not simulated: served from the in-memory memo or the
    #: on-disk cache, or duplicates of a job executed in this submission
    #: (``executed + cached == len(jobs)`` always)
    cached: int

    def __len__(self) -> int:
        return len(self.jobs)

    def typed_records(self) -> list:
        return [record_from_dict(r) for r in self.records]

    def records_json(self) -> str:
        """Canonical JSON of all records — the byte-identity artefact."""
        return canonical_json(list(self.records))


def _fork_order(specs: Sequence[JobSpec],
                unique: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """``unique`` (pairs of a spec's position and key) grouped by golden
    trace — (benchmark, scale), in order of first appearance — and each
    group in ascending fork seq, one-fault jobs whose fault never
    touches execution last.  Jobs without a single ``fault`` keep their
    relative order.  Consecutive jobs then walk their golden trace's
    fork cursor forward instead of rewinding it."""
    def fork_seq(item: tuple[int, str]) -> tuple[int, int]:
        fault = specs[item[0]].fault
        seq = None if fault is None else earliest_fault_seq((fault,))
        return (1, 0) if seq is None else (0, seq)

    groups: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for item in unique:
        spec = specs[item[0]]
        groups.setdefault((spec.benchmark, spec.scale), []).append(item)
    return [item for group in groups.values()
            for item in sorted(group, key=fork_seq)]


class CampaignEngine:
    """Executes job grids: dedupe → cache lookup → fork order → sharded
    pool → store.

    Pending jobs run in fork order (:func:`_fork_order`).  ``workers=1``
    runs them in-process (no pool, fully serial); any higher count deals
    the ordered list out round-robin, so every shard still walks each
    golden trace forward.  Records land in submission order, and results
    are independent of ``workers`` and of the order by construction:
    each job is a pure function of its spec.
    """

    def __init__(self, workers: int = 1,
                 cache_dir: str | os.PathLike | None = None,
                 trace_store_dir: str | os.PathLike | None = None) -> None:
        self.workers = max(1, int(workers))
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        #: golden-trace store root: explicit, or derived from the cache
        #: directory (``<cache>/traces``) so cached campaigns share clean
        #: executions across processes exactly like they share results
        if trace_store_dir is None and cache_dir is not None:
            trace_store_dir = Path(cache_dir) / TRACE_STORE_DIRNAME
        self.trace_store_dir = (str(trace_store_dir)
                                if trace_store_dir is not None else None)
        self._memo: dict[str, dict] = {}

    def run(self, jobs: Iterable[JobSpec]) -> CampaignResult:
        if self.trace_store_dir is not None:
            configure_trace_store(self.trace_store_dir)
        specs = tuple(jobs)
        keys = tuple(spec.key() for spec in specs)
        records: list[dict | None] = [None] * len(specs)

        # cache pass: memo first (free), then disk
        pending: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            record = self._memo.get(key)
            if record is None and self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._memo[key] = record
            if record is not None:
                records[i] = record
            else:
                pending.setdefault(key, []).append(i)

        # execute each unique pending job exactly once, in fork order;
        # duplicate slots count as cached so executed + cached == len(specs)
        unique = _fork_order(
            specs, [(positions[0], key) for key, positions in pending.items()])
        cached = len(specs) - len(unique)

        def store(key: str, record: dict) -> None:
            self._memo[key] = record
            if self.cache is not None:
                self.cache.put(key, record)
            for i in pending[key]:
                records[i] = record

        if self.workers == 1 or len(unique) == 1:
            # in-process, each record is stored as soon as its job
            # returns: an interrupted campaign keeps every job it finished
            for pos, key in unique:
                store(key, execute_job(specs[pos]))
        elif unique:
            indexed = [(i, specs[pos]) for i, (pos, _key) in enumerate(unique)]
            shards = [(self.trace_store_dir, indexed[w::self.workers])
                      for w in range(self.workers)]
            shards = [s for s in shards if s[1]]
            with multiprocessing.Pool(len(shards)) as pool:
                outputs = [item for shard_out
                           in pool.map(_execute_shard, shards)
                           for item in shard_out]
            for i, record in outputs:
                store(unique[i][1], record)

        return CampaignResult(
            jobs=specs, keys=keys, records=tuple(records),
            executed=len(unique), cached=cached)

    def close(self) -> None:
        """Close the run cache's pack files (see :meth:`RunCache.close`);
        the engine stays usable."""
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
