"""repro.service — the resident campaign-service control plane.

A stdlib-only asyncio HTTP layer over the existing manifest /
orchestrator / cache stack: declarative campaign submission, shared
one-pass status, SSE progress events, content-addressed record serving
with ETags, and worker advertisement — no new execution semantics.
Start it with ``python -m repro serve --manifest-root DIR``.

The package exports nothing itself; import the submodule you use, so
the ``campaign`` verb's grid constructor does not load the server:

* :mod:`~repro.service.wire` — ``build_grid``, the one grid constructor
  that the HTTP API and the ``campaign`` CLI verb share;
* :mod:`~repro.service.server` — :class:`CampaignService`, the asyncio
  HTTP server;
* :mod:`~repro.service.routes` — the route table and its matcher;
* :mod:`~repro.service.admission` — tenant-fair admission with 429
  backpressure.
"""
