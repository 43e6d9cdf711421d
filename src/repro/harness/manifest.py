"""On-disk campaign manifests: the shared ground truth of a distributed run.

A manifest materialises one campaign grid as a directory that any number
of worker processes — on one host or on many hosts sharing the directory
(NFS, a synced volume, a CI workspace) — can cooperate on:

::

    <dir>/manifest.json   header + every job slot (key + canonical spec)
    <dir>/cache/packs/    content-addressed results, one line per record
                          in per-writer append-only pack files (RunCache)
    <dir>/leases/         one atomic lease file per in-flight job
    <dir>/failed/         one failure envelope per permanently failed job
    <dir>/traces/         shared golden-trace store (columns + keyframes)

The header records the run-cache schema, so a manifest materialised
before an execution-pipeline change (e.g. v4's fork-point fault path)
refuses to mix with workers from after it.

Job state is always *derived* from the filesystem, never stored as a
mutable field that could go stale:

* **done** — a valid record for the job's key exists in the cache;
* **failed** — a :class:`~repro.common.records.JobFailure` envelope
  exists under ``failed/``;
* **leased** — a live (unexpired) :class:`~repro.common.records.JobLease`
  file exists under ``leases/``;
* **pending** — none of the above.

Leases are the only coordination primitive.  Acquisition is an atomic
``link(2)`` of a fully written temp file, so exactly one worker can win
a job; a crashed worker's leases expire, and expiry is handled by
*reaping* — an atomic ``rename(2)`` of the stale lease file, which again
exactly one worker can win, followed by a fresh acquisition.  Because
results are content-addressed and each is appended whole, as one
complete line (a torn line reads as a miss), even the worst-case race —
a reaped worker that was merely slow, not dead — only ever re-executes
a job into a byte-identical second entry: duplicated effort, never
corrupted or divergent results.  That is what makes a manifest
resumable and idempotent: re-running a finished one is a pure cache
replay.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.common.config import config_from_dict
from repro.common.records import (
    JobFailure,
    JobLease,
    canonical_json,
    record_from_dict,
    record_to_json,
)
from repro.detection.faults import FaultSite, TransientFault
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    CampaignGrid,
    JobSpec,
    RunCache,
    unique_suffix as _unique_suffix,
)

#: Bump when the manifest directory layout or header changes shape.
#: v2: the cache holds records in pack files, not one file per record.
MANIFEST_SCHEMA_VERSION = 2

MANIFEST_FILE = "manifest.json"

#: Default lease time-to-live in seconds: generous next to any single
#: job (hundreds of ms to a few s), small next to a campaign.
DEFAULT_LEASE_TTL = 300.0


class ManifestError(ValueError):
    """A manifest directory is missing, malformed, or names a different
    campaign than the one being submitted."""


def spec_from_description(desc: dict,
                          _config_memo: dict | None = None) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its canonical ``describe()`` dict.

    The inverse of :meth:`JobSpec.describe`, used when a worker joins a
    manifest written by another process (or host) and has nothing but
    JSON.  ``_config_memo`` lets bulk loaders share reconstructed
    configs across the many jobs of one grid that differ only in fault.
    """
    def fault_from_fields(fields: dict) -> TransientFault:
        fault_fields = dict(fields)
        fault_fields["site"] = FaultSite(fault_fields["site"])
        return TransientFault(**fault_fields)

    fault = None
    if desc["fault"] is not None:
        fault = fault_from_fields(desc["fault"])
    config_json = canonical_json(desc["config"])
    if _config_memo is not None and config_json in _config_memo:
        config = _config_memo[config_json]
    else:
        config = config_from_dict(desc["config"])
        if _config_memo is not None:
            _config_memo[config_json] = config
    return JobSpec(
        kind=desc["kind"],
        benchmark=desc["benchmark"],
        scale=desc["scale"],
        config=config,
        fault=fault,
        faults=tuple(fault_from_fields(fields)
                     for fields in desc.get("faults", ())),
        interrupt_seqs=tuple(desc["interrupt_seqs"]),
        scheme=desc["scheme"],
        timing=desc.get("timing", "cycle"),
    )


def campaign_id(keys: Iterable[str]) -> str:
    """Stable identity of a campaign: the hash of its ordered job keys.

    Two grids with the same jobs in the same slot order are the same
    campaign; anything else is a different one and may not reuse a
    manifest directory.
    """
    return hashlib.sha256(
        canonical_json(list(keys)).encode()).hexdigest()


@dataclass(frozen=True)
class ManifestJob:
    """One unique job of a manifest, in first-occurrence order."""

    index: int
    key: str
    spec: JobSpec


#: The four derived job states.
JOB_STATES = ("pending", "leased", "done", "failed")


class CampaignManifest:
    """One campaign grid materialised on disk for cooperative execution.

    Construct with :meth:`create` (materialise a grid, or rejoin the
    identical grid's existing manifest) or :meth:`load` (join whatever
    is already there).  ``clock`` is injectable so lease expiry is
    testable without real waiting.
    """

    def __init__(self, root: str | os.PathLike, header: dict,
                 jobs: Sequence[JobSpec], keys: Sequence[str],
                 clock: Callable[[], float] = time.time) -> None:
        self.root = Path(root)
        self.header = header
        #: every job slot in submission order (may contain duplicates)
        self.slots: tuple[JobSpec, ...] = tuple(jobs)
        self.keys: tuple[str, ...] = tuple(keys)
        #: unique jobs in first-occurrence order — the executable set
        unique: dict[str, ManifestJob] = {}
        for i, (key, spec) in enumerate(zip(self.keys, self.slots)):
            if key not in unique:
                unique[key] = ManifestJob(index=i, key=key, spec=spec)
        self.unique: tuple[ManifestJob, ...] = tuple(unique.values())
        self.cache = RunCache(self.root / "cache")
        self._clock = clock

    # -- lifetime ------------------------------------------------------------

    def close(self) -> None:
        """Close the run cache's pack files and release its writer slot
        (see :meth:`RunCache.close`).  Idempotent; the manifest stays
        usable and reopens what it needs."""
        self.cache.close()

    def __enter__(self) -> "CampaignManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, root: str | os.PathLike,
               grid: CampaignGrid | Iterable[JobSpec],
               kind: str = "", scheme: str = "", scale: str = "",
               benchmarks: Sequence[str] = (),
               clock: Callable[[], float] = time.time) -> "CampaignManifest":
        """Materialise ``grid`` under ``root`` — idempotently.

        If a manifest already exists there it is loaded and verified to
        describe the *same* campaign (same job keys, same order); a
        mismatch raises :class:`ManifestError` rather than silently
        mixing two campaigns' results.
        """
        root = Path(root)
        specs = tuple(grid)
        keys = tuple(spec.key() for spec in specs)
        if (root / MANIFEST_FILE).exists():
            manifest = cls.load(root, clock=clock)
            if manifest.header["campaign_id"] != campaign_id(keys):
                raise ManifestError(
                    f"manifest at {root} holds campaign "
                    f"{manifest.header['campaign_id'][:12]}…, not the one "
                    f"being submitted — use a fresh directory per campaign")
            return manifest
        header = {
            "manifest_schema": MANIFEST_SCHEMA_VERSION,
            "schema": CACHE_SCHEMA_VERSION,
            "campaign_id": campaign_id(keys),
            "kind": kind,
            "scheme": scheme,
            "scale": scale,
            "benchmarks": list(benchmarks),
            "slots": len(specs),
        }
        payload = dict(header)
        payload["jobs"] = [
            {"key": key, "spec": spec.describe()}
            for key, spec in zip(keys, specs)
        ]
        for sub in ("cache", "leases", "failed", "traces"):
            (root / sub).mkdir(parents=True, exist_ok=True)
        path = root / MANIFEST_FILE
        tmp = path.with_suffix(f".tmp.{_unique_suffix()}")
        tmp.write_text(canonical_json(payload))
        os.replace(tmp, path)
        return cls(root, header, specs, keys, clock=clock)

    @classmethod
    def load(cls, root: str | os.PathLike,
             clock: Callable[[], float] = time.time) -> "CampaignManifest":
        """Join an existing manifest, reconstructing and verifying every
        job spec (a spec whose recomputed key disagrees with the stored
        one means the manifest was written by an incompatible version)."""
        root = Path(root)
        path = root / MANIFEST_FILE
        try:
            payload = json.loads(path.read_text())
        except OSError as err:
            raise ManifestError(f"no campaign manifest at {root}: {err}") \
                from None
        except ValueError as err:
            raise ManifestError(f"corrupt manifest {path}: {err}") from None
        if not isinstance(payload, dict):
            raise ManifestError(
                f"corrupt manifest {path}: top level is "
                f"{type(payload).__name__}, not an object")
        if payload.get("manifest_schema") != MANIFEST_SCHEMA_VERSION:
            raise ManifestError(
                f"manifest {path} has layout schema "
                f"{payload.get('manifest_schema')!r}; this version reads "
                f"{MANIFEST_SCHEMA_VERSION}")
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            raise ManifestError(
                f"manifest {path} was built for record schema "
                f"{payload.get('schema')!r}, current is "
                f"{CACHE_SCHEMA_VERSION} — rebuild it in a fresh directory")
        config_memo: dict = {}
        specs, keys = [], []
        # any structural defect below — missing fields, wrong types, an
        # unreconstructable spec — is a *malformed manifest*, reported as
        # one ManifestError rather than whatever exception it first trips
        try:
            for entry in payload["jobs"]:
                spec = spec_from_description(entry["spec"], config_memo)
                if spec.key() != entry["key"]:
                    raise ManifestError(
                        f"manifest {path} job {entry['key'][:12]}… does not "
                        f"hash to its stored key after reconstruction")
                specs.append(spec)
                keys.append(entry["key"])
            header = {k: v for k, v in payload.items() if k != "jobs"}
            if header["campaign_id"] != campaign_id(keys):
                raise ManifestError(f"manifest {path} campaign id does not "
                                    f"match its own job list")
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise ManifestError(
                f"malformed manifest {path}: "
                f"{type(err).__name__}: {err}") from None
        return cls(root, header, specs, keys, clock=clock)

    # -- derived job state ---------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.json"

    def _failure_path(self, key: str) -> Path:
        return self.root / "failed" / f"{key}.json"

    def is_done(self, key: str) -> bool:
        return self.cache.has(key)

    def is_failed(self, key: str) -> bool:
        return self._failure_path(key).exists()

    def read_lease(self, key: str) -> JobLease | None:
        """The lease envelope on ``key``, live or expired, else None."""
        try:
            payload = json.loads(self._lease_path(key).read_text())
            lease = record_from_dict(payload)
        except (OSError, ValueError, KeyError):
            return None
        return lease if isinstance(lease, JobLease) else None

    def job_state(self, key: str, now: float | None = None) -> str:
        """One of :data:`JOB_STATES`; an expired lease reads as pending."""
        if self.is_done(key):
            return "done"
        if self.is_failed(key):
            return "failed"
        now = self._clock() if now is None else now
        lease = self.read_lease(key)
        if lease is not None and lease.expires_at > now:
            return "leased"
        if lease is None and self._lease_path(key).exists():
            # unreadable lease file (should not happen with link-created
            # envelopes): trust the file while it is fresh, reap it once
            # a full default TTL has passed
            try:
                mtime = self._lease_path(key).stat().st_mtime
            except OSError:
                return "pending"
            if mtime + DEFAULT_LEASE_TTL > now:
                return "leased"
        return "pending"

    def _scan_json_names(self, directory: Path, into: set[str]) -> None:
        """Collect the ``<key>`` of every ``<key>.json`` in ``directory``
        (temp/reap files carry ``.tmp.``/``.reap.`` suffixes after the
        ``.json``, so they never match)."""
        try:
            entries = os.scandir(directory)
        except OSError:
            return
        with entries:
            for entry in entries:
                name = entry.name
                if name.endswith(".json"):
                    into.add(name[:-5])

    def job_states(self, now: float | None = None) -> dict[str, str]:
        """Derived state of every unique job, computed in one bulk pass.

        :meth:`job_state` costs ~4 metadata round-trips per key (cache
        read, failure stat, lease read/stat), so a status poll over a
        large manifest is O(jobs × stats).  This method instead takes
        the cache's key set (:meth:`RunCache.keys`, which reads only
        the lines its packs gained since the last look) and two
        directory listings, ``failed/`` and ``leases/``, and derives
        every state from the merged key sets; only the (few) present
        lease files are actually read, to evaluate expiry.

        A complete entry for a key counts as done without re-parsing
        the envelope: each is appended whole, as one line, by workers
        whose record schema the manifest header pins at load time, so
        a present entry is a complete, current one.  The leasing path
        (:meth:`try_lease`) still validates envelopes before trusting
        them.
        """
        now = self._clock() if now is None else now
        done = self.cache.keys()
        failed: set[str] = set()
        lease_files: set[str] = set()
        self._scan_json_names(self.root / "failed", failed)
        self._scan_json_names(self.root / "leases", lease_files)
        states: dict[str, str] = {}
        for job in self.unique:
            key = job.key
            if key in done:
                states[key] = "done"
            elif key in failed:
                states[key] = "failed"
            elif key in lease_files:
                # same liveness rules as job_state, but only for keys
                # that actually have a lease file on disk
                lease = self.read_lease(key)
                if lease is not None:
                    states[key] = ("leased" if lease.expires_at > now
                                   else "pending")
                else:
                    try:
                        mtime = self._lease_path(key).stat().st_mtime
                    except OSError:
                        states[key] = "pending"
                        continue
                    states[key] = ("leased"
                                   if mtime + DEFAULT_LEASE_TTL > now
                                   else "pending")
            else:
                states[key] = "pending"
        return states

    # -- leasing -------------------------------------------------------------

    def _write_lease(self, path: Path, lease: JobLease) -> bool:
        """Atomically create ``path`` with the full envelope: write a
        temp file, then ``link(2)`` it in — exactly one creator wins."""
        tmp = path.with_name(f"{path.name}.tmp.{_unique_suffix()}")
        tmp.write_text(record_to_json(lease))
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)

    def _reap(self, path: Path) -> bool:
        """Atomically remove an expired lease; exactly one reaper wins
        (``rename(2)`` of the same source succeeds for one caller)."""
        grave = path.with_name(f"{path.name}.reap.{_unique_suffix()}")
        try:
            os.rename(path, grave)
        except OSError:
            return False
        grave.unlink(missing_ok=True)
        return True

    #: Sentinel: "the caller has not read the failure envelope for me".
    _UNREAD = object()

    def try_lease(self, key: str, worker: str,
                  ttl: float = DEFAULT_LEASE_TTL,
                  max_attempts: int = 1, *,
                  _failure: object = _UNREAD) -> JobLease | None:
        """Attempt to claim ``key`` for ``worker``.

        Returns the lease on success; None if the job is done, failed,
        or validly leased to someone else.  An expired lease is reaped
        and re-acquired with an incremented ``attempt``.

        ``max_attempts`` bounds *automatic re-lease of failed jobs*: a
        job whose failure envelope records fewer than ``max_attempts``
        attempts is re-queued — its envelope is consumed by whichever
        worker wins the fresh lease, and the new lease (and any
        subsequent failure envelope) carries the incremented attempt
        count.  The default of 1 preserves the manual behaviour: failed
        jobs stay failed until an operator clears them
        (``--retry-failed``).
        """
        if self.is_done(key):
            return None
        failure = None
        if self.is_failed(key):
            # ``_failure`` lets lease_batch hand over the envelope it
            # already parsed this scan instead of re-reading it here
            failure = (self.read_failure(key)
                       if _failure is self._UNREAD else _failure)
            if not self._has_attempts_left(failure, max_attempts):
                return None
        path = self._lease_path(key)
        now = self._clock()
        attempt = 1 if failure is None else failure.attempt + 1
        if path.exists():
            stale = self.read_lease(key)
            if stale is not None:
                if stale.expires_at > now:
                    return None
                attempt = max(attempt, stale.attempt + 1)
            elif self.job_state(key, now) == "leased":
                return None  # unreadable but fresh: leave it alone
            if not self._reap(path):
                return None  # lost the reaping race
        lease = JobLease(key=key, worker=worker, acquired_at=now,
                         expires_at=now + ttl, attempt=attempt)
        if not self._write_lease(path, lease):
            return None
        if failure is not None:
            # the lease is won: consume the failure envelope so the job
            # reads as leased (then done/failed-again), not failed
            self._failure_path(key).unlink(missing_ok=True)
        return lease

    def lease_batch(self, worker: str, ttl: float = DEFAULT_LEASE_TTL,
                    limit: int = 8,
                    settled: set[str] | None = None,
                    max_attempts: int = 1,
                    ) -> list[tuple[ManifestJob, JobLease]]:
        """Claim up to ``limit`` pending jobs (work-stealing scan).

        ``settled`` is an optional caller-owned memo of keys known to be
        done or *terminally* failed: those states are sticky, so jobs in
        it are skipped without touching the filesystem, and jobs newly
        observed settled during this scan are added to it.  Without the
        memo, every scan re-reads every completed result envelope —
        quadratic I/O over a long campaign.

        ``max_attempts`` (see :meth:`try_lease`) turns failed jobs with
        remaining attempts back into leasable work; only a failure at
        the attempt cap settles.
        """
        batch: list[tuple[ManifestJob, JobLease]] = []
        for job in self.unique:
            if len(batch) >= limit:
                break
            if settled is not None and job.key in settled:
                continue
            if self.is_done(job.key):
                if settled is not None:
                    settled.add(job.key)
                continue
            failure: object = self._UNREAD
            if self.is_failed(job.key):
                failure = self.read_failure(job.key)
                if not self._has_attempts_left(failure, max_attempts):
                    if settled is not None:
                        settled.add(job.key)
                    continue
            lease = self.try_lease(job.key, worker, ttl, max_attempts,
                                   _failure=failure)
            if lease is not None:
                batch.append((job, lease))
        return batch

    @staticmethod
    def _has_attempts_left(failure: JobFailure | None,
                           max_attempts: int) -> bool:
        """The one retry-policy predicate: a failed job is re-leasable
        exactly when its envelope is readable and records fewer than
        ``max_attempts`` attempts (an unreadable envelope is terminal —
        its attempt count is unknowable, so it is never auto-retried)."""
        return failure is not None and failure.attempt < max_attempts

    def release(self, key: str, lease: JobLease | None = None) -> None:
        """Drop the lease on ``key`` (after its result or failure
        envelope has been written).

        Pass the lease you hold to make the release ownership-checked:
        if the job's lease on disk is no longer yours — you overran your
        TTL and a rescuer reaped and re-leased the job — the rescuer's
        live lease is left untouched rather than being unlinked out from
        under it.  ``lease=None`` releases unconditionally (administrative
        use).
        """
        if lease is not None and self.read_lease(key) != lease:
            return
        self._lease_path(key).unlink(missing_ok=True)

    # -- failures ------------------------------------------------------------

    def record_failure(self, key: str, worker: str, error: str,
                       attempt: int = 1) -> None:
        path = self._failure_path(key)
        tmp = path.with_name(f"{path.name}.tmp.{_unique_suffix()}")
        tmp.write_text(record_to_json(
            JobFailure(key=key, worker=worker, error=error,
                       attempt=attempt)))
        os.replace(tmp, path)

    def read_failure(self, key: str) -> JobFailure | None:
        """The failure envelope on ``key``, or None."""
        try:
            payload = json.loads(self._failure_path(key).read_text())
            failure = record_from_dict(payload)
        except (OSError, ValueError, KeyError):
            return None
        return failure if isinstance(failure, JobFailure) else None

    def failures(self, keys: Iterable[str] | None = None) -> list[JobFailure]:
        """Failure envelopes, for all unique jobs or just ``keys`` (a
        caller that already ran :meth:`job_states` passes the failed
        keys so this does not rescan every job)."""
        out = []
        for key in ([job.key for job in self.unique]
                    if keys is None else keys):
            failure = self.read_failure(key)
            if failure is not None:
                out.append(failure)
        return out

    def clear_failures(self) -> int:
        """Re-queue every failed job; returns how many were cleared."""
        cleared = 0
        for job in self.unique:
            path = self._failure_path(job.key)
            if path.exists():
                path.unlink(missing_ok=True)
                cleared += 1
        return cleared
