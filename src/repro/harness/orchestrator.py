"""Work-stealing campaign orchestration over on-disk manifests.

This is the scale-out layer above the campaign engine.  The engine
(:mod:`repro.harness.campaign`) executes a grid inside one process pool;
the orchestrator lets *independent worker processes* — started at
different times, on different hosts sharing the manifest directory —
drive one campaign to completion together:

* :class:`CampaignWorker` loops ``lease batch → execute → store →
  release`` until no leasable work remains.  Work distribution is
  demand-driven (work-stealing): a fast worker simply leases more, so
  stragglers never gate a campaign the way static ``i % N`` round-robin
  shards do.
* :func:`run_campaign` is the single-command form: it fans N local
  worker processes out over one manifest and then merges.
* :func:`collect` replays the manifest's slot list through a
  :class:`~repro.harness.campaign.CampaignEngine` against the shared
  cache, yielding the one merged result set — byte-identical to a
  serial run of the same grid, because every job is a pure function of
  its spec and every record is stored in canonical form.
* :func:`manifest_status` is the single source of truth for progress
  numbers, and :func:`~repro.harness.campaign.summarize_result` for
  summary numbers: the CLI's human output, its ``--json`` output, and
  ``campaign-status`` all read the same one-pass aggregation, so they
  can never disagree on job counts.

Crash tolerance comes from lease expiry (see
:mod:`repro.harness.manifest`): a dead worker's jobs return to the
pending pool after the TTL, and a resumed campaign replays finished
jobs from the cache — zero duplicated work, identical merged bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from dataclasses import dataclass

from repro.harness.campaign import (
    TRACE_STORE_DIRNAME,
    CampaignEngine,
    CampaignResult,
    execute_job,
)
from repro.harness.manifest import (
    DEFAULT_LEASE_TTL,
    CampaignManifest,
    ManifestJob,
)
from repro.workloads.suite import configure_trace_store

#: Default jobs claimed per lease scan: big enough to amortise the scan,
#: small enough that a crashed worker strands little work.
DEFAULT_BATCH = 8


def default_worker_id() -> str:
    """host-pid, unique across the processes sharing a manifest."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker actually did (its contribution to the campaign)."""

    worker: str
    #: jobs this worker executed to completion
    executed: int = 0
    #: jobs leased but found already done (finished elsewhere between
    #: the state scan and execution — possible only around lease reaping)
    skipped: int = 0
    #: jobs whose execution raised; each has a failure envelope
    failed: int = 0
    #: lease scans that returned at least one job
    batches: int = 0

    def as_dict(self) -> dict:
        return {"worker": self.worker, "executed": self.executed,
                "skipped": self.skipped, "failed": self.failed,
                "batches": self.batches}


class CampaignWorker:
    """One lease-driven executor over a shared manifest.

    Run any number of these concurrently (threads, processes, hosts);
    the lease protocol guarantees each pending job is executed by
    exactly one of them, crash-recovery races aside.
    """

    def __init__(self, manifest: CampaignManifest,
                 worker_id: str | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 batch_size: int = DEFAULT_BATCH,
                 max_attempts: int = 1) -> None:
        self.manifest = manifest
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = float(lease_ttl)
        self.batch_size = max(1, int(batch_size))
        #: bounded automatic re-lease of failed jobs: a job may be
        #: executed up to this many times before its failure is terminal
        #: (1 = today's manual-retry-only behaviour)
        self.max_attempts = max(1, int(max_attempts))
        #: keys this worker knows are done or terminally failed (sticky
        #: states), so lease scans stop re-reading their envelopes
        self._settled: set[str] = set()
        # clean traces come from the manifest's shared golden-trace
        # store: the first worker to need a benchmark executes and
        # publishes it, everyone else forks the stored columns
        configure_trace_store(manifest.root / TRACE_STORE_DIRNAME)

    def _run_one(self, job: ManifestJob, lease, stats: WorkerStats) -> None:
        settled = True
        try:
            if self.manifest.is_done(job.key):
                stats.skipped += 1
                return
            try:
                record = execute_job(job.spec)
            except Exception as err:  # noqa: BLE001 — a failed job must
                # not take the worker (and the rest of the campaign) down
                self.manifest.record_failure(
                    job.key, self.worker_id, f"{type(err).__name__}: {err}",
                    attempt=lease.attempt)
                stats.failed += 1
                # below the attempt cap the failure is not sticky: leave
                # the job scannable so some worker (maybe this one)
                # re-leases it with the next attempt number
                settled = lease.attempt >= self.max_attempts
            else:
                self.manifest.cache.put(job.key, record)
                stats.executed += 1
        finally:
            if settled:
                self._settled.add(job.key)
            # ownership-checked: if we overran our TTL and were reaped,
            # this leaves the rescuer's live lease alone
            self.manifest.release(job.key, lease)

    def run(self, max_jobs: int | None = None,
            stop: threading.Event | None = None) -> WorkerStats:
        """Work until no job can be leased (campaign finished, or every
        remainder is done/failed/validly leased to another worker).

        ``max_jobs`` bounds this worker's contribution — used by tests
        and by operators draining a host; unexecuted leases are released
        so other workers pick them up immediately.  ``stop`` is checked
        before each lease batch: once it is set, the worker finishes the
        batch in hand, leases nothing more and returns.
        """
        stats = WorkerStats(worker=self.worker_id)
        claimed = 0
        while max_jobs is None or claimed < max_jobs:
            if stop is not None and stop.is_set():
                break
            limit = self.batch_size
            if max_jobs is not None:
                limit = min(limit, max_jobs - claimed)
            batch = self.manifest.lease_batch(
                self.worker_id, self.lease_ttl, limit,
                settled=self._settled, max_attempts=self.max_attempts)
            if not batch:
                break
            stats.batches += 1
            for job, lease in batch:
                claimed += 1
                self._run_one(job, lease, stats)
        return stats


def collect(manifest: CampaignManifest, workers: int = 1) -> CampaignResult:
    """Merge a manifest into one :class:`CampaignResult`, in slot order.

    On a completed manifest this is a pure cache replay (``executed ==
    0``) producing bytes identical to a serial run of the grid; on an
    incomplete one the engine finishes the leftovers in-process
    (ignoring leases — call it only once cooperating workers have
    exited, or accept re-executing their in-flight jobs).

    Slots whose job carries a failure envelope are *excluded* — their
    deterministic exception would simply re-raise inside the engine,
    which has no failure handling.  Callers see them through
    :func:`manifest_status`'s ``failures`` list instead.
    """
    failed = {job.key for job in manifest.unique
              if manifest.is_failed(job.key)}
    slots = (manifest.slots if not failed else
             [spec for key, spec in zip(manifest.keys, manifest.slots)
              if key not in failed])
    with CampaignEngine(
            workers=workers, cache_dir=manifest.cache.root,
            trace_store_dir=manifest.root / TRACE_STORE_DIRNAME) as engine:
        return engine.run(slots)


def _worker_entry(root: str, lease_ttl: float, batch_size: int,
                  max_attempts: int, queue) -> None:
    """Child-process entry point of :func:`run_campaign`."""
    with CampaignManifest.load(root) as manifest:
        stats = CampaignWorker(manifest, lease_ttl=lease_ttl,
                               batch_size=batch_size,
                               max_attempts=max_attempts).run()
    queue.put(stats.as_dict())


def run_campaign(manifest: CampaignManifest, processes: int = 1,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 batch_size: int = DEFAULT_BATCH,
                 max_attempts: int = 1,
                 ) -> tuple[CampaignResult, WorkerStats]:
    """Drive ``manifest`` to completion with ``processes`` local workers
    and return the merged result plus the run's *aggregated* stats
    (parent + children summed; ``worker`` names the parent).

    One process works in-place; more fork ``processes - 1`` children
    that join the same manifest exactly the way a ``campaign-worker``
    on another host would.  After all workers exit, :func:`collect`
    merges (and mops up anything a crashed child stranded).
    """
    queue: multiprocessing.SimpleQueue = multiprocessing.SimpleQueue()
    children = [
        multiprocessing.Process(
            target=_worker_entry,
            args=(str(manifest.root), lease_ttl, batch_size, max_attempts,
                  queue))
        for _ in range(max(1, int(processes)) - 1)
    ]
    for child in children:
        child.start()
    stats = CampaignWorker(manifest, lease_ttl=lease_ttl,
                           batch_size=batch_size,
                           max_attempts=max_attempts).run()
    for child in children:
        child.join()
    while not queue.empty():  # a crashed child simply contributes nothing
        child_stats = queue.get()
        stats.executed += child_stats["executed"]
        stats.skipped += child_stats["skipped"]
        stats.failed += child_stats["failed"]
        stats.batches += child_stats["batches"]
    queue.close()
    # merge at the caller's parallelism: anything a crashed child
    # stranded re-executes across the same number of processes
    return collect(manifest, workers=max(1, int(processes))), stats


# -- status (one pass, one source of truth) ---------------------------------

def manifest_status(manifest: CampaignManifest) -> dict:
    """The ``campaign-status`` payload: per-state counts, per-scheme and
    per-kind progress, and failure summaries — computed from one bulk
    :meth:`~repro.harness.manifest.CampaignManifest.job_states` scan
    (the cache's key index and two directory listings, not per-job stat
    calls), so polling it —
    the CLI, ``--watch``, and the service's status/events endpoints all
    do — stays cheap on large manifests."""
    state_map = manifest.job_states()
    states = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
    by_scheme: dict[str, dict[str, int]] = {}
    by_kind: dict[str, dict[str, int]] = {}
    for job in manifest.unique:
        state = state_map[job.key]
        states[state] += 1
        for axis, label in ((by_scheme, job.spec.scheme),
                            (by_kind, job.spec.kind)):
            group = axis.setdefault(
                label, {"jobs": 0, "done": 0, "failed": 0})
            group["jobs"] += 1
            if state in ("done", "failed"):
                group[state] += 1
    unique = len(manifest.unique)
    return {
        "campaign_id": manifest.header["campaign_id"],
        "kind": manifest.header.get("kind", ""),
        "scheme": manifest.header.get("scheme", ""),
        "scale": manifest.header.get("scale", ""),
        "benchmarks": list(manifest.header.get("benchmarks", [])),
        "slots": len(manifest.slots),
        "jobs": unique,
        "states": states,
        "by_scheme": by_scheme,
        "by_kind": by_kind,
        "failures": [
            {"key": f.key, "worker": f.worker, "error": f.error,
             "attempt": f.attempt}
            for f in manifest.failures(
                keys=[k for k, s in state_map.items() if s == "failed"])
        ],
        "complete": states["done"] == unique,
    }
