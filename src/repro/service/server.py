"""The resident campaign service: an asyncio HTTP control plane.

``python -m repro serve --manifest-root DIR`` runs one
:class:`CampaignService`.  It is deliberately a *thin* layer: every unit
of state it manages is an ordinary on-disk campaign manifest under the
manifest root, created through
:meth:`~repro.harness.manifest.CampaignManifest.create` and drained
through the unchanged lease protocol — the service adds admission,
progress streaming, and record serving, never new execution semantics.
Kill it at any point and nothing is lost: manifests, leases, caches, and
failure envelopes are the ground truth, and a restarted service rescans
the root and re-admits whatever is unfinished (the same crash-resume
contract ``campaign-worker`` already obeys).

Layout on disk, one subdirectory per campaign::

    <root>/<campaign_id[:16]>/manifest.json     the ordinary manifest
    <root>/<campaign_id[:16]>/service.json      service sidecar (tenant,
                                                submission order, the
                                                normalised description)
    <root>/<campaign_id[:16]>/{cache,leases,failed,traces}/
    <root>/traces/                              shared store for grid
                                                construction

Execution: admitted campaigns drain **one at a time** in per-tenant
round-robin order (see :mod:`repro.service.admission`); the in-service
pool is ``drain_workers`` :class:`~repro.harness.orchestrator.
CampaignWorker` threads cooperating on the current campaign via leases.
One-campaign-at-a-time keeps the process-wide golden-trace store
consistent (every drain thread shares the current manifest's store) and
makes fairness observable; scale *within* a campaign comes from the
thread pool, scale *across* campaigns from external ``campaign-worker``
processes attaching to the advertised manifest paths, exactly as on any
other host.

The HTTP layer is stdlib-only (``asyncio.start_server`` + hand-rolled
HTTP/1.1, one request per connection): no framework dependency, nothing
the container does not already have.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import socket
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import AsyncIterator
from urllib.parse import parse_qs

from repro.common.records import canonical_json
from repro.harness.campaign import CACHE_SCHEMA_VERSION, RunCache
from repro.harness.manifest import CampaignManifest, ManifestError
from repro.harness.orchestrator import CampaignWorker, manifest_status
from repro.service import routes, wire
from repro.service.admission import AdmissionQueue, QueueFullError
from repro.service.wire import ApiError, WireError

#: How much of the campaign id names its directory: 16 hex chars = 64
#: bits, collision-free for any realistic number of campaigns under one
#: root while keeping paths readable in ``ls`` and worker commands.
DIR_PREFIX = 16

#: The service sidecar written next to each manifest.
SIDECAR_FILE = "service.json"

MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK", 201: "Created", 304: "Not Modified", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: Campaign lifecycle states as the service tracks them.  ``idle`` means
#: the in-service drain ran out of leasable work while the manifest is
#: still incomplete — jobs are leased to (or stranded by) external
#: workers; the manifest remains the ground truth.
ENTRY_STATES = ("queued", "running", "complete", "failed", "idle")


@dataclass
class Request:
    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default


@dataclass
class CampaignEntry:
    """Service bookkeeping for one on-disk campaign manifest."""

    id: str
    tenant: str
    root: Path
    manifest: CampaignManifest
    meta: dict
    submitted_seq: int
    state: str = "queued"
    started_seq: int | None = None
    #: aggregated in-service drain stats (WorkerStats sums)
    drain: dict | None = None
    #: external workers that asked for attach instructions
    workers_advertised: int = 0
    error: str | None = None

    def summary(self) -> dict:
        return {
            "campaign": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "manifest": str(self.root),
            "kind": self.meta.get("kind", ""),
            "scheme": self.meta.get("scheme", ""),
            "scale": self.meta.get("scale", ""),
            "benchmarks": list(self.meta.get("benchmarks", [])),
            "jobs": len(self.manifest.unique),
            "slots": len(self.manifest.slots),
            "submitted_seq": self.submitted_seq,
            "started_seq": self.started_seq,
            "workers_advertised": self.workers_advertised,
            "drain": self.drain,
            "error": self.error,
        }


class CampaignService:
    """The control plane: admission, drain, status, records, events."""

    def __init__(self, manifest_root: str | os.PathLike,
                 cache_dir: str | os.PathLike | None = None,
                 queue_limit: int = 64,
                 drain_workers: int = 1,
                 lease_ttl: float = 300.0,
                 poll_interval: float = 0.25) -> None:
        self.manifest_root = Path(manifest_root)
        #: optional extra read-only record source for ``GET /records``
        #: (e.g. the cache of campaigns run before the service existed)
        self.extra_cache = (RunCache(cache_dir)
                            if cache_dir is not None else None)
        self.queue = AdmissionQueue(queue_limit)
        self.drain_workers = max(0, int(drain_workers))
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = max(0.02, float(poll_interval))
        self.campaigns: dict[str, CampaignEntry] = {}
        self._submit_seq = itertools.count(1)
        self._start_seq = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._drain_task: asyncio.Task | None = None
        #: set by :meth:`stop`: the drain's workers lease nothing more
        self._drain_stop = threading.Event()
        self._wake: asyncio.Event | None = None
        self._paused = False
        self._closing = False
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, recover persisted campaigns, start draining; returns the
        bound port (useful with ``port=0`` in tests)."""
        self.manifest_root.mkdir(parents=True, exist_ok=True)
        # a service-level trace store so grid construction (clean trace
        # lengths for fault grids) is shared across submissions; drain
        # workers switch to each campaign's own store as they run
        from repro.harness.campaign import TRACE_STORE_DIRNAME
        from repro.workloads.suite import configure_trace_store
        configure_trace_store(self.manifest_root / TRACE_STORE_DIRNAME)
        self._wake = asyncio.Event()
        await asyncio.to_thread(self._recover)
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        if self.drain_workers > 0:
            self._drain_task = asyncio.create_task(self._drain_loop())
        bound = self._server.sockets[0].getsockname()[1]
        return bound

    async def run(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """CLI entry: start, announce, serve until cancelled."""
        bound = await self.start(host, port)
        print(f"repro serve: http://{host}:{bound}  "
              f"(manifest root {self.manifest_root}, "
              f"{self.drain_workers} drain worker(s), "
              f"queue limit {self.queue.limit})", flush=True)
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        self._closing = True
        self._drain_stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._wake is not None:
            self._wake.set()
        if self._drain_task is not None:
            # not cancelled: the task awaits the in-flight drain thread,
            # whose workers return at their next lease-batch boundary.
            # A thread left running would reopen, with its next put, a
            # pack closed below
            try:
                await self._drain_task
            except (asyncio.CancelledError, Exception):
                pass
        for task in list(self._conn_tasks):
            task.cancel()
        # release every run cache's pack readers and writer slot
        for entry in self.campaigns.values():
            entry.manifest.close()
        if self.extra_cache is not None:
            self.extra_cache.close()

    def pause_drain(self) -> None:
        """Stop popping new campaigns (the current one finishes)."""
        self._paused = True

    def resume_drain(self) -> None:
        self._paused = False
        if self._wake is not None:
            self._wake.set()

    # -- persistence / recovery ----------------------------------------------

    def _campaign_dir(self, cid: str) -> Path:
        return self.manifest_root / cid[:DIR_PREFIX]

    def _write_sidecar(self, entry: CampaignEntry,
                       description: dict) -> None:
        payload = {
            "campaign_id": entry.id,
            "tenant": entry.tenant,
            "submitted_seq": entry.submitted_seq,
            "meta": entry.meta,
            "description": description,
        }
        path = entry.root / SIDECAR_FILE
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(payload))
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Rescan the root: re-register every sidecarred campaign, in
        original submission order, re-queueing the unfinished ones."""
        sidecars = []
        try:
            children = sorted(self.manifest_root.iterdir())
        except OSError:
            return
        for child in children:
            path = child / SIDECAR_FILE
            if not path.is_file():
                continue
            try:
                payload = json.loads(path.read_text())
                sidecars.append((int(payload["submitted_seq"]), payload,
                                 child))
            except (OSError, ValueError, KeyError, TypeError):
                print(f"repro serve: skipping unreadable sidecar {path}",
                      file=sys.stderr)
        recovered = 0
        for _seq, payload, child in sorted(sidecars, key=lambda t: t[0]):
            try:
                manifest = CampaignManifest.load(child)
            except ManifestError as err:
                print(f"repro serve: skipping {child}: {err}",
                      file=sys.stderr)
                continue
            cid = manifest.header["campaign_id"]
            if cid != payload.get("campaign_id") or cid in self.campaigns:
                manifest.close()
                continue
            entry = CampaignEntry(
                id=cid,
                tenant=str(payload.get("tenant", "default")),
                root=child, manifest=manifest,
                meta=dict(payload.get("meta", {})),
                submitted_seq=next(self._submit_seq))
            self.campaigns[cid] = entry
            self._refresh_state(entry, manifest_status(manifest))
            if entry.state not in ("complete", "failed"):
                try:
                    self.queue.submit(entry.tenant, cid)
                except QueueFullError:
                    entry.state = "idle"  # over-full root: drain later
                else:
                    recovered += 1
        if recovered:
            print(f"repro serve: re-admitted {recovered} unfinished "
                  f"campaign(s) from {self.manifest_root}", flush=True)

    # -- drain ---------------------------------------------------------------

    async def _drain_loop(self) -> None:
        assert self._wake is not None
        while not self._closing:
            cid = None if self._paused else self.queue.pop_next()
            if cid is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            entry = self.campaigns.get(cid)
            if entry is None:
                continue
            await self._run_campaign(entry)

    async def _run_campaign(self, entry: CampaignEntry) -> None:
        entry.state = "running"
        entry.started_seq = next(self._start_seq)
        entry.drain = None
        try:
            entry.drain = await asyncio.to_thread(self._drain_entry, entry)
        except Exception as err:  # noqa: BLE001 — one bad campaign must
            # not take the drain loop (and every other tenant) down
            entry.state = "failed"
            entry.error = f"{type(err).__name__}: {err}"
            traceback.print_exc()
            return
        status = await asyncio.to_thread(manifest_status, entry.manifest)
        self._refresh_state(entry, status)

    def _drain_entry(self, entry: CampaignEntry) -> dict:
        """Blocking: drive one campaign with the in-service worker pool
        (runs in a thread; all workers share the campaign's manifest and
        trace store through the ordinary lease protocol)."""
        threads = max(1, self.drain_workers)
        host = socket.gethostname()
        workers = [
            CampaignWorker(entry.manifest,
                           worker_id=f"serve-{host}-{os.getpid()}-{i}",
                           lease_ttl=self.lease_ttl)
            for i in range(threads)
        ]
        if threads == 1:
            return workers[0].run(stop=self._drain_stop).as_dict()
        stats = [None] * threads
        runners = [threading.Thread(target=lambda i=i: stats.__setitem__(
            i, workers[i].run(stop=self._drain_stop)), daemon=True)
            for i in range(threads)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join()
        total = {"worker": f"serve-{host}-{os.getpid()}",
                 "executed": 0, "skipped": 0, "failed": 0, "batches": 0}
        for stat in stats:
            if stat is None:
                continue
            for field_name in ("executed", "skipped", "failed", "batches"):
                total[field_name] += getattr(stat, field_name)
        return total

    @staticmethod
    def _refresh_state(entry: CampaignEntry, status: dict) -> None:
        """Fold live manifest truth back into the service state.

        A campaign stays ``running`` while its drain is in flight, even
        once the manifest reads complete: the drain loop settles it when
        the drain returns, so no status shows it complete without the
        drain's stats."""
        if entry.state == "running" and entry.drain is None:
            return
        states = status["states"]
        if status["complete"]:
            entry.state = "complete"
        elif states["failed"] and not states["pending"] \
                and not states["leased"]:
            entry.state = "failed"
        elif entry.state not in ("queued", "running"):
            entry.state = "idle"

    # -- campaign resolution -------------------------------------------------

    def _resolve(self, cid: str) -> CampaignEntry:
        """Full campaign id, or any unique prefix of ≥ 8 chars."""
        entry = self.campaigns.get(cid)
        if entry is not None:
            return entry
        if len(cid) >= 8:
            hits = [e for key, e in self.campaigns.items()
                    if key.startswith(cid)]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise ApiError(409, f"campaign id prefix {cid!r} is "
                                    f"ambiguous ({len(hits)} matches)")
        raise ApiError(404, f"no campaign {cid!r}")

    def _record_sources(self) -> list[RunCache]:
        sources = [] if self.extra_cache is None else [self.extra_cache]
        sources.extend(
            entry.manifest.cache
            for entry in sorted(self.campaigns.values(),
                                key=lambda e: e.submitted_seq))
        return sources

    # -- handlers (return (status, payload-or-bytes, headers)) ---------------

    async def health(self, request: Request, params: dict) -> tuple:
        return 200, {
            "ok": True,
            "schema": CACHE_SCHEMA_VERSION,
            "campaigns": len(self.campaigns),
            "queue": {"depth": len(self.queue),
                      "limit": self.queue.limit,
                      "admitted": self.queue.admitted,
                      "refused": self.queue.refused},
            "drain_workers": self.drain_workers,
            "paused": self._paused,
        }, {}

    async def list_campaigns(self, request: Request, params: dict) -> tuple:
        def build() -> list[dict]:
            out = []
            for entry in sorted(self.campaigns.values(),
                                key=lambda e: e.submitted_seq):
                summary = entry.summary()
                counts = {"pending": 0, "leased": 0, "done": 0,
                          "failed": 0}
                for state in entry.manifest.job_states().values():
                    counts[state] += 1
                summary["states"] = counts
                out.append(summary)
            return out

        return 200, {"campaigns": await asyncio.to_thread(build)}, {}

    async def submit_campaign(self, request: Request, params: dict) -> tuple:
        try:
            desc = json.loads(request.body or b"null")
        except ValueError as err:
            raise WireError(f"request body is not valid JSON: {err}") \
                from None
        if not isinstance(desc, dict):
            raise WireError("campaign description must be a JSON object")
        tenant = wire.tenant_of(desc)

        grid, meta = await asyncio.to_thread(wire.build_grid, desc)
        from repro.harness.manifest import campaign_id
        keys = [spec.key() for spec in grid]
        cid = campaign_id(keys)

        existing = self.campaigns.get(cid)
        if existing is not None:
            # idempotent resubmission: same grid → same campaign
            return 200, {"campaign": cid, "created": False,
                         "service": existing.summary()}, {}
        if len(self.queue) >= self.queue.limit:
            self.queue.refused += 1
            raise ApiError(
                429, f"admission queue is full "
                     f"({self.queue.limit} pending campaigns)",
                headers={"Retry-After": "5"})

        root = self._campaign_dir(cid)
        try:
            manifest = await asyncio.to_thread(
                CampaignManifest.create, root, grid,
                meta.get("kind", ""), meta.get("scheme", ""),
                meta.get("scale", ""), meta.get("benchmarks", ()))
        except ManifestError as err:
            raise ApiError(409, str(err)) from None
        entry = CampaignEntry(
            id=cid, tenant=tenant, root=root, manifest=manifest,
            meta=meta, submitted_seq=next(self._submit_seq))
        names = meta.get("benchmarks")
        await asyncio.to_thread(
            self._write_sidecar, entry,
            wire.normalise_description(desc, names))
        self.campaigns[cid] = entry
        status = await asyncio.to_thread(manifest_status, manifest)
        self._refresh_state(entry, status)
        if entry.state not in ("complete", "failed"):
            try:
                self.queue.submit(tenant, cid)
            except QueueFullError as err:
                # materialised but over the bound (raced another submit):
                # leave it on disk unqueued; resubmission re-admits it
                del self.campaigns[cid]
                raise ApiError(429, str(err),
                               headers={"Retry-After": "5"}) from None
            if self._wake is not None:
                self._wake.set()
        return 201, {"campaign": cid, "created": True,
                     "jobs": len(manifest.unique),
                     "slots": len(manifest.slots),
                     "status_url": f"/campaigns/{cid}/status",
                     "service": entry.summary()}, {}

    async def campaign_status(self, request: Request, params: dict) -> tuple:
        entry = self._resolve(params["id"])
        status = await asyncio.to_thread(manifest_status, entry.manifest)
        self._refresh_state(entry, status)
        return 200, wire.campaign_payload(entry.summary(), status), {}

    async def campaign_records(self, request: Request,
                               params: dict) -> tuple:
        entry = self._resolve(params["id"])
        states = await asyncio.to_thread(entry.manifest.job_states)
        records = [
            {"slot": i, "key": key, "state": states[key],
             "url": f"/records/{key}"}
            for i, key in enumerate(entry.manifest.keys)
        ]
        return 200, {"campaign": entry.id, "records": records}, {}

    async def advertise_worker(self, request: Request,
                               params: dict) -> tuple:
        entry = self._resolve(params["id"])
        entry.workers_advertised += 1
        path = str(entry.root.resolve())
        return 201, {
            "campaign": entry.id,
            "manifest": path,
            # the exact attach command; the lease protocol is unchanged,
            # so any campaign-worker (any host sharing the root) works
            "argv": [sys.executable or "python", "-m", "repro",
                     "campaign-worker", "--manifest", path],
            "lease_ttl": self.lease_ttl,
            "workers_advertised": entry.workers_advertised,
        }, {}

    async def get_record(self, request: Request, params: dict) -> tuple:
        key = params["key"]
        if not wire.is_record_key(key):
            raise ApiError(404, f"{key!r} is not a record key "
                                f"(64 hex chars expected)")
        etag = RunCache.etag(key)

        def lookup() -> bytes | None:
            for cache in self._record_sources():
                data = cache.read_envelope(key)
                if data is not None:
                    return data
            return None

        envelope = await asyncio.to_thread(lookup)
        if envelope is None:
            raise ApiError(404, f"no record {key[:12]}… in any campaign "
                                f"cache")
        headers = {
            "ETag": etag,
            # content-addressed: the bytes behind a key can never change
            "Cache-Control": "max-age=31536000, immutable",
        }
        if wire.match_etag(request.header("if-none-match"), etag):
            return 304, b"", headers
        return 200, envelope, headers

    # -- events (SSE) --------------------------------------------------------

    async def campaign_events(self, request: Request,
                              params: dict) -> AsyncIterator[bytes]:
        """Server-sent progress: one ``data:`` frame per status change,
        a terminal ``event: complete``/``event: failed`` frame when the
        campaign settles, ``event: timeout`` when the window closes."""
        entry = self._resolve(params["id"])
        try:
            interval = float(request.param("interval", "") or
                             self.poll_interval)
            timeout = float(request.param("timeout", "60"))
        except ValueError:
            raise WireError("'interval' and 'timeout' must be numbers") \
                from None
        interval = min(max(interval, 0.02), 10.0)
        timeout = min(max(timeout, interval), 3600.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        last: str | None = None
        while True:
            status = await asyncio.to_thread(manifest_status,
                                             entry.manifest)
            self._refresh_state(entry, status)
            frame = canonical_json({
                "campaign": entry.id,
                "state": entry.state,
                "states": status["states"],
                "complete": status["complete"],
                "failures": len(status["failures"]),
            })
            if frame != last:
                yield f"data: {frame}\n\n".encode()
                last = frame
            if entry.state in ("complete", "failed"):
                yield (f"event: {entry.state}\ndata: {frame}\n\n"
                       .encode())
                return
            if loop.time() + interval > deadline:
                yield f"event: timeout\ndata: {frame}\n\n".encode()
                return
            await asyncio.sleep(interval)

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 — a handler bug must not kill
            # the accept loop; the 500 path below reports per-request
            traceback.print_exc()
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        request = await self._read_request(reader, writer)
        if request is None:
            return
        try:
            matched = routes.match(request.method, request.path)
        except routes.MethodNotAllowed as err:
            self._write_response(
                writer, 405, wire.error_body(str(err)),
                headers={"Allow": ", ".join(err.allowed)})
            return
        if matched is None:
            self._write_response(
                writer, 404,
                wire.error_body(f"no route {request.method} "
                                f"{request.path}"))
            return
        name, params = matched
        handler = getattr(self, name)
        try:
            if name in routes.STREAMING_HANDLERS:
                await self._stream(writer, handler(request, params))
                return
            status, payload, headers = await handler(request, params)
        except WireError as err:
            status, payload, headers = err.status, wire.error_body(
                str(err)), {}
        except ApiError as err:
            status, payload, headers = err.status, wire.error_body(
                err.message), err.headers
        except Exception as err:  # noqa: BLE001 — surface, don't crash
            traceback.print_exc()
            status, payload, headers = 500, wire.error_body(
                f"internal error: {type(err).__name__}"), {}
        self._write_response(writer, status, payload, headers=headers)
        await writer.drain()

    async def _stream(self, writer: asyncio.StreamWriter,
                      frames: AsyncIterator[bytes]) -> None:
        try:
            first = await frames.__anext__()
        except StopAsyncIteration:
            first = b""
        except WireError as err:
            self._write_response(writer, err.status,
                                 wire.error_body(str(err)))
            return
        except ApiError as err:
            self._write_response(writer, err.status,
                                 wire.error_body(err.message),
                                 headers=err.headers)
            return
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode())
        writer.write(first)
        await writer.drain()
        async for frame in frames:
            writer.write(frame)
            await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Request | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            self._write_response(writer, 400,
                                 wire.error_body("malformed request line"))
            return None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            self._write_response(writer, 400,
                                 wire.error_body("too many headers"))
            return None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            self._write_response(writer, 400,
                                 wire.error_body("request body too large"))
            return None
        body = await reader.readexactly(length) if length else b""
        path, _sep, query = target.partition("?")
        return Request(method=method.upper(), path=path,
                       query=parse_qs(query), headers=headers, body=body)

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        payload: dict | bytes,
                        headers: dict[str, str] | None = None,
                        content_type: str = "application/json") -> None:
        body = (payload if isinstance(payload, (bytes, bytearray))
                else canonical_json(payload).encode())
        if status == 304:
            body = b""
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        if body:
            writer.write(bytes(body))
