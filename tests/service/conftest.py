"""Fixtures for service integration tests: a live CampaignService on an
ephemeral port, driven over real sockets from the test thread.

The service's event loop runs in a background thread (exactly the shape
of the real ``repro serve`` process seen from a client); tests talk
plain ``http.client`` so the hand-rolled HTTP layer is exercised by an
independent implementation.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.service.server import CampaignService


class LiveService:
    """A running CampaignService plus a tiny synchronous HTTP client."""

    def __init__(self, service: CampaignService, port: int,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.service = service
        self.port = port
        self.loop = loop

    # -- client --------------------------------------------------------------

    def request(self, method: str, path: str, body: object = None,
                headers: dict | None = None,
                timeout: float = 120.0) -> tuple[int, bytes, dict]:
        data = None
        if body is not None:
            data = (body if isinstance(body, (bytes, str))
                    else json.dumps(body))
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path, body=data, headers=headers or {})
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, payload, dict(resp.getheaders())
        finally:
            conn.close()

    def get_json(self, path: str, **kwargs) -> tuple[int, dict, dict]:
        status, payload, headers = self.request("GET", path, **kwargs)
        return status, json.loads(payload), headers

    def post_json(self, path: str, body: object,
                  **kwargs) -> tuple[int, dict, dict]:
        status, payload, headers = self.request("POST", path, body=body,
                                                **kwargs)
        return status, json.loads(payload), headers

    def submit(self, desc: dict) -> tuple[int, dict]:
        status, payload, _headers = self.post_json("/campaigns", desc)
        return status, payload

    def wait_complete(self, cid: str, timeout: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _status, payload, _headers = self.get_json(
                f"/campaigns/{cid}/status")
            if payload["service"]["state"] in ("complete", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"campaign {cid[:12]} did not settle "
                             f"within {timeout}s")

    # -- drain control (event-loop-safe) --------------------------------------

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the service's event loop and wait."""
        done = threading.Event()
        box: list = []

        def invoke() -> None:
            box.append(fn(*args))
            done.set()

        self.loop.call_soon_threadsafe(invoke)
        assert done.wait(10)
        return box[0]

    def pause(self) -> None:
        self.call(self.service.pause_drain)

    def resume(self) -> None:
        self.call(self.service.resume_drain)


@pytest.fixture
def service_factory(tmp_path):
    """Start live services on demand; everything is torn down at exit."""
    started: list[tuple[LiveService, threading.Thread]] = []
    counter = [0]

    def start(drain_workers: int = 1, queue_limit: int = 64,
              root=None, **kwargs) -> LiveService:
        counter[0] += 1
        root = root or tmp_path / f"svc{counter[0]}"
        service = CampaignService(root, drain_workers=drain_workers,
                                  queue_limit=queue_limit,
                                  poll_interval=0.05, **kwargs)
        holder: dict = {}
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            holder["loop"] = loop
            holder["port"] = loop.run_until_complete(service.start(port=0))
            ready.set()
            loop.run_forever()
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(60), "service failed to start"
        live = LiveService(service, holder["port"], holder["loop"])
        started.append((live, thread))
        return live

    yield start

    for live, thread in started:
        try:
            asyncio.run_coroutine_threadsafe(
                live.service.stop(), live.loop).result(20)
        except Exception:
            pass
        live.loop.call_soon_threadsafe(live.loop.stop)
        thread.join(timeout=20)


@pytest.fixture
def live_service(service_factory) -> LiveService:
    """The common case: one service with a single drain worker."""
    return service_factory(drain_workers=1)
