"""Integration tests for the resident campaign service: real sockets,
real manifests, real (tiny) campaigns.

Satellite contract: submit → status → records round-trip, ETag/304,
two-tenant fairness, bounded-queue 429 backpressure, and byte-identity
of HTTP-served records with on-disk envelopes from a serial run.
"""

import asyncio
import json
import threading
import time
from pathlib import Path

from repro.common.records import canonical_json
from repro.harness.campaign import CACHE_SCHEMA_VERSION, RunCache
from repro.harness.orchestrator import CampaignWorker
from repro.service.server import DIR_PREFIX, SIDECAR_FILE


def tiny_desc(benchmark: str = "bitcount", tenant: str = "default",
              **overrides) -> dict:
    """The cheapest real campaign: one fault-free baseline run."""
    desc = {"kind": "baseline", "benchmarks": [benchmark],
            "scheme": "detection", "scale": "small", "tenant": tenant}
    desc.update(overrides)
    return desc


class TestRoundTrip:
    def test_submit_status_records(self, live_service):
        status, payload = live_service.submit(tiny_desc("bitcount"))
        assert status == 201 and payload["created"]
        cid = payload["campaign"]
        assert payload["jobs"] == 1
        assert payload["status_url"] == f"/campaigns/{cid}/status"

        final = live_service.wait_complete(cid)
        assert final["complete"]
        assert final["states"]["done"] == 1
        assert final["service"]["state"] == "complete"
        assert final["service"]["tenant"] == "default"
        assert final["service"]["drain"]["executed"] == 1

        _st, listing, _h = live_service.get_json(
            f"/campaigns/{cid}/records")
        records = listing["records"]
        assert len(records) == 1 and records[0]["state"] == "done"

        st, body, headers = live_service.request("GET", records[0]["url"])
        assert st == 200
        envelope = json.loads(body)
        assert envelope["key"] == records[0]["key"]
        assert envelope["schema"] == CACHE_SCHEMA_VERSION
        assert isinstance(envelope["record"], dict)
        assert headers["ETag"] == RunCache.etag(records[0]["key"])

    def test_stays_running_until_drain_returns(self, live_service,
                                              monkeypatch):
        """The manifest reads complete as soon as the last record is
        written, while the drain is still returning: the campaign must
        not read complete before its drain stats are in."""
        release = threading.Event()
        original = CampaignWorker.run

        def held_run(self, *args, **kwargs):
            stats = original(self, *args, **kwargs)
            release.wait(60)
            return stats

        monkeypatch.setattr(CampaignWorker, "run", held_run)
        _st, payload = live_service.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _st, status, _h = live_service.get_json(
                    f"/campaigns/{cid}/status")
                if status["complete"]:
                    break
                time.sleep(0.02)
            assert status["complete"]
            assert status["service"]["state"] == "running"
            assert status["service"]["drain"] is None
        finally:
            release.set()
        final = live_service.wait_complete(cid)
        assert final["service"]["state"] == "complete"
        assert final["service"]["drain"]["executed"] == 1

    def test_campaign_listing_and_prefix_resolution(self, live_service):
        _st, payload = live_service.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        live_service.wait_complete(cid)

        _st, listing, _h = live_service.get_json("/campaigns")
        assert [c["campaign"] for c in listing["campaigns"]] == [cid]
        assert listing["campaigns"][0]["states"]["done"] == 1

        # any unique prefix >= 8 chars resolves (the directory name is
        # the 16-char prefix, so that one always works)
        st, by_prefix, _h = live_service.get_json(
            f"/campaigns/{cid[:DIR_PREFIX]}/status")
        assert st == 200 and by_prefix["service"]["campaign"] == cid

    def test_resubmission_is_idempotent(self, live_service):
        desc = tiny_desc("bitcount")
        _st, first = live_service.submit(desc)
        live_service.wait_complete(first["campaign"])
        st, again = live_service.submit(desc)
        assert st == 200 and not again["created"]
        assert again["campaign"] == first["campaign"]

    def test_sidecar_persists_normalised_description(self, live_service):
        _st, payload = live_service.submit(tiny_desc("bitcount"))
        root = Path(payload["service"]["manifest"])
        sidecar = json.loads((root / SIDECAR_FILE).read_text())
        assert sidecar["campaign_id"] == payload["campaign"]
        assert sidecar["description"]["benchmarks"] == ["bitcount"]
        assert sidecar["description"]["trials"] == 30  # defaulted


class TestRecordsAndEtags:
    def test_etag_304_and_mismatch(self, live_service):
        _st, payload = live_service.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        live_service.wait_complete(cid)
        _st, listing, _h = live_service.get_json(
            f"/campaigns/{cid}/records")
        url = listing["records"][0]["url"]

        st, body, headers = live_service.request("GET", url)
        etag = headers["ETag"]
        assert st == 200 and "immutable" in headers["Cache-Control"]

        st, body, headers = live_service.request(
            "GET", url, headers={"If-None-Match": etag})
        assert st == 304 and body == b""
        assert headers["ETag"] == etag  # validator survives the 304

        st, body, _h = live_service.request(
            "GET", url, headers={"If-None-Match": '"stale"'})
        assert st == 200 and body

    def test_http_bytes_identical_to_disk_and_serial_run(
            self, live_service, tmp_path):
        from repro.harness.campaign import CampaignEngine
        from repro.service.wire import build_grid

        desc = tiny_desc("bitcount")
        _st, payload = live_service.submit(desc)
        cid = payload["campaign"]
        live_service.wait_complete(cid)
        _st, listing, _h = live_service.get_json(
            f"/campaigns/{cid}/records")
        key = listing["records"][0]["key"]
        _st2, http_bytes, _h2 = live_service.request(
            "GET", f"/records/{key}")

        # identical to the envelope inside the campaign directory
        campaign_root = Path(payload["service"]["manifest"])
        with RunCache(campaign_root / "cache") as disk:
            assert disk.read_envelope(key) == http_bytes

        # identical to a completely independent serial engine run of
        # the same declarative description (the cross-transport
        # determinism contract)
        grid, _meta = build_grid(desc)
        with CampaignEngine(workers=1,
                            cache_dir=tmp_path / "serial") as engine:
            engine.run(grid)
        with RunCache(tmp_path / "serial") as serial:
            assert serial.read_envelope(key) == http_bytes
            # and to the canonical envelope of the record itself
            assert canonical_json(
                {"key": key, "record": serial.get(key),
                 "schema": CACHE_SCHEMA_VERSION}).encode() == http_bytes

    def test_unknown_record_is_404(self, live_service):
        st, body, _h = live_service.request("GET", f"/records/{'0' * 64}")
        assert st == 404
        st, body, _h = live_service.request("GET", "/records/short")
        assert st == 404 and b"64 hex" in body


class TestAdmission:
    def test_two_tenants_interleave_fairly(self, service_factory):
        live = service_factory(drain_workers=1)
        live.pause()
        # alice floods two campaigns before bob submits one
        _st, a1 = live.submit(tiny_desc("bitcount", tenant="alice"))
        _st, a2 = live.submit(tiny_desc("stream", tenant="alice"))
        _st, b1 = live.submit(tiny_desc("randacc", tenant="bob"))
        live.resume()
        for payload in (a1, a2, b1):
            live.wait_complete(payload["campaign"])
        _st, listing, _h = live.get_json("/campaigns")
        started = {c["campaign"]: c["started_seq"]
                   for c in listing["campaigns"]}
        # round-robin: bob's single submission starts before alice's
        # second, despite arriving after it
        assert started[a1["campaign"]] < started[b1["campaign"]]
        assert started[b1["campaign"]] < started[a2["campaign"]]

    def test_bounded_queue_refuses_with_429(self, service_factory):
        live = service_factory(drain_workers=0, queue_limit=2)
        st1, _p1 = live.submit(tiny_desc("bitcount"))
        st2, _p2 = live.submit(tiny_desc("stream"))
        assert (st1, st2) == (201, 201)
        st3, body, headers = live.post_json(
            "/campaigns", tiny_desc("randacc"))
        assert st3 == 429
        assert "error" in body and headers["Retry-After"]
        _st, health, _h = live.get_json("/healthz")
        assert health["queue"]["refused"] >= 1
        assert health["queue"]["depth"] == 2

    def test_flood_drains_after_backpressure(self, service_factory):
        live = service_factory(drain_workers=1, queue_limit=1)
        live.pause()
        _st, first = live.submit(tiny_desc("bitcount"))
        st, _body, _h = live.post_json("/campaigns", tiny_desc("stream"))
        assert st == 429
        live.resume()
        live.wait_complete(first["campaign"])
        # the 429 was backpressure, not rejection-forever: a retry of
        # the same description is admitted once the queue drains
        st, retry = live.submit(tiny_desc("stream"))
        assert st == 201
        live.wait_complete(retry["campaign"])


class TestWorkersAndEvents:
    def test_external_worker_attaches_via_advert(self, service_factory,
                                                 capsys):
        from repro.__main__ import main

        live = service_factory(drain_workers=0)  # control plane only
        _st, payload = live.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]

        st, advert, _h = live.post_json(f"/campaigns/{cid}/workers", {})
        assert st == 201
        assert advert["argv"][-2:] == ["--manifest", advert["manifest"]]

        # the advertised attach command, run in-process: the unchanged
        # lease protocol drains the service's manifest to completion
        assert main(["campaign-worker",
                     "--manifest", advert["manifest"]]) == 0
        final = live.wait_complete(cid)
        assert final["complete"]
        assert final["service"]["workers_advertised"] == 1

    def test_events_stream_terminates_with_complete(self, live_service):
        _st, payload = live_service.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        live_service.wait_complete(cid)
        st, body, headers = live_service.request(
            "GET", f"/campaigns/{cid}/events?timeout=10")
        assert st == 200
        assert headers["Content-Type"] == "text/event-stream"
        frames = body.decode()
        assert "event: complete" in frames
        last = [line for line in frames.splitlines()
                if line.startswith("data: ")][-1]
        assert json.loads(last[len("data: "):])["complete"]

    def test_events_timeout_on_undrained_campaign(self, service_factory):
        live = service_factory(drain_workers=0)
        _st, payload = live.submit(tiny_desc("bitcount"))
        st, body, _h = live.request(
            "GET",
            f"/campaigns/{payload['campaign']}/events"
            f"?timeout=0.1&interval=0.05")
        assert st == 200 and b"event: timeout" in body


class TestRecovery:
    def test_restart_readmits_unfinished_campaigns(self, service_factory,
                                                   tmp_path):
        root = tmp_path / "shared-root"
        first = service_factory(drain_workers=0, root=root)
        _st, payload = first.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        first.call(first.service.pause_drain)  # no-op; explicit intent
        # simulate a crash: stop the service with the campaign pending
        import asyncio
        asyncio.run_coroutine_threadsafe(
            first.service.stop(), first.loop).result(20)

        second = service_factory(drain_workers=1, root=root)
        final = second.wait_complete(cid)
        assert final["complete"]
        _st, listing, _h = second.get_json("/campaigns")
        assert [c["campaign"] for c in listing["campaigns"]] == [cid]


class TestShutdown:
    def test_stop_closes_every_run_cache(self, service_factory, tmp_path):
        extra = tmp_path / "extra"
        with RunCache(extra) as seed:
            seed.put("e" * 64, {"x": 1})
        live = service_factory(cache_dir=extra)
        _st, payload = live.submit(tiny_desc("bitcount"))
        cid = payload["campaign"]
        live.wait_complete(cid)
        _st, listing, _h = live.get_json(f"/campaigns/{cid}/records")
        # reading records opens the packs of the campaign's cache and
        # of the extra cache
        assert live.request("GET", listing["records"][0]["url"])[0] == 200
        assert live.request("GET", f"/records/{'e' * 64}")[0] == 200
        caches = [entry.manifest.cache
                  for entry in live.service.campaigns.values()]
        caches.append(live.service.extra_cache)
        asyncio.run_coroutine_threadsafe(
            live.service.stop(), live.loop).result(20)
        for cache in caches:
            assert cache._writer is None and not cache._packs


class TestHttpErrors:
    def test_unknown_route_404(self, live_service):
        st, body, _h = live_service.request("GET", "/nope")
        assert st == 404 and b"error" in body

    def test_unknown_campaign_404(self, live_service):
        st, _body, _h = live_service.request(
            "GET", f"/campaigns/{'f' * 64}/status")
        assert st == 404

    def test_wrong_method_405_with_allow(self, live_service):
        st, _body, headers = live_service.request("DELETE", "/campaigns")
        assert st == 405
        assert set(headers["Allow"].split(", ")) == {"GET", "POST"}

    def test_bad_json_body_400(self, live_service):
        st, body, _h = live_service.request("POST", "/campaigns",
                                            body="{not json")
        assert st == 400 and b"JSON" in body

    def test_bad_description_400(self, live_service):
        st, payload, _h = live_service.post_json(
            "/campaigns", {"kind": "mystery"})
        assert st == 400 and "kind" in payload["error"]

    def test_health(self, live_service):
        st, health, _h = live_service.get_json("/healthz")
        assert st == 200 and health["ok"]
        assert health["schema"] == CACHE_SCHEMA_VERSION
