"""JSON wire schemas of the campaign service.

Everything that crosses the HTTP boundary is validated here, away from
socket handling: the declarative campaign description accepted by
``POST /campaigns``, the error envelope, and the grid construction that
turns a description into :class:`~repro.harness.campaign.JobSpec`s.

The one rule that matters: :func:`build_grid` is the *same* constructor
the CLI's ``campaign`` verb uses (``repro.__main__`` delegates to it),
so a grid submitted over HTTP and the grid named by the equivalent CLI
invocation contain identical jobs with identical cache keys — the
byte-identity contract extends across the wire by construction.

A description is a JSON object with either

* a **declarative grid**: ``kind`` (one of the engine's job kinds),
  ``benchmarks`` (list of suite names, or ``"all"``), ``scheme``,
  ``trials``, ``scale``, ``seed``, ``timing`` (``cycle``/``interval``,
  fault grids only), and ``batch_size`` (fault-batch only) — mirroring
  the ``campaign`` CLI flags one for one; or
* **explicit jobs**: ``jobs``, a list of canonical
  :meth:`~repro.harness.campaign.JobSpec.describe` dicts, reconstructed
  through the same :func:`~repro.harness.manifest.spec_from_description`
  path manifest workers use.

Both forms may carry ``tenant`` (admission fairness group; defaults to
``"default"``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.timing import TIMING_MODES
from repro.harness.campaign import JOB_KINDS, CampaignGrid

#: Validation bounds: generous next to any real sweep, small enough
#: that a fat-fingered submission cannot wedge the service building a
#: billion-job grid.
MAX_TRIALS = 100_000
MAX_BATCH_SIZE = 10_000
MAX_EXPLICIT_JOBS = 1_000_000

SCALES = ("small", "default")

#: Tenant names are path-safe tokens (they appear in logs and queues).
MAX_TENANT_LEN = 64


class WireError(ValueError):
    """A malformed or unacceptable wire payload (HTTP 400)."""

    status = 400


class ApiError(Exception):
    """A request failure with an explicit HTTP status (404, 409, 429…)."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


def error_body(message: str) -> dict:
    """The uniform error envelope every non-2xx response carries."""
    return {"error": message}


def _require_int(desc: dict, field: str, default: int,
                 lo: int, hi: int) -> int:
    value = desc.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{field!r} must be an integer, "
                        f"got {type(value).__name__}")
    if not lo <= value <= hi:
        raise WireError(f"{field!r} must be in [{lo}, {hi}], got {value}")
    return value


def tenant_of(desc: dict) -> str:
    """The validated admission tenant named by a description."""
    tenant = desc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise WireError("'tenant' must be a non-empty string")
    if len(tenant) > MAX_TENANT_LEN:
        raise WireError(f"'tenant' longer than {MAX_TENANT_LEN} chars")
    if not all(c.isalnum() or c in "-_." for c in tenant):
        raise WireError("'tenant' may only contain alphanumerics, "
                        "'-', '_', and '.'")
    return tenant


def _benchmark_names(desc: dict) -> list[str]:
    from repro.workloads.suite import BENCHMARK_ORDER, BENCHMARKS

    names = desc.get("benchmarks", "all")
    if isinstance(names, str):
        if names == "all":
            return list(BENCHMARK_ORDER)
        names = [part for part in names.split(",") if part]
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise WireError("'benchmarks' must be a non-empty list of suite "
                        "names, a comma-separated string, or 'all'")
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise WireError(f"unknown benchmark(s): {', '.join(unknown)}")
    return names


def _explicit_grid(jobs: object) -> tuple[CampaignGrid, dict]:
    from repro.harness.manifest import spec_from_description

    if not isinstance(jobs, list) or not jobs:
        raise WireError("'jobs' must be a non-empty list of canonical "
                        "job descriptions")
    if len(jobs) > MAX_EXPLICIT_JOBS:
        raise WireError(f"'jobs' lists {len(jobs)} jobs; the service "
                        f"accepts at most {MAX_EXPLICIT_JOBS}")
    config_memo: dict = {}
    specs = []
    for i, entry in enumerate(jobs):
        try:
            specs.append(spec_from_description(entry, config_memo))
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise WireError(
                f"jobs[{i}] is not a canonical job description: "
                f"{type(err).__name__}: {err}") from None
    kinds = {spec.kind for spec in specs}
    schemes = {spec.scheme for spec in specs}
    scales = {spec.scale for spec in specs}
    meta = {
        "kind": kinds.pop() if len(kinds) == 1 else "",
        "scheme": schemes.pop() if len(schemes) == 1 else "",
        "scale": scales.pop() if len(scales) == 1 else "",
        "benchmarks": sorted({spec.benchmark for spec in specs}),
    }
    return CampaignGrid(tuple(specs)), meta


def build_grid(desc: dict) -> tuple[CampaignGrid, dict]:
    """A validated description → ``(grid, meta)``.

    ``meta`` carries the normalised kind/scheme/scale/benchmarks used
    for the manifest header and summaries.  Raises :class:`WireError`
    (a ``ValueError``) on anything malformed, so CLI callers can catch
    ``ValueError`` exactly as they do for grid-builder errors.
    """
    from repro.common.config import default_config
    from repro.harness.campaign import (
        detection_grid, fault_batch_grid, fault_grid, recovery_grid,
        scheme_grid)
    from repro.schemes import scheme_names

    if not isinstance(desc, dict):
        raise WireError("campaign description must be a JSON object")
    if "jobs" in desc:
        return _explicit_grid(desc["jobs"])

    kind = desc.get("kind", "fault")
    if kind not in JOB_KINDS:
        raise WireError(f"unknown job kind {kind!r}; "
                        f"one of {list(JOB_KINDS)} expected")
    scheme = desc.get("scheme", "detection")
    if scheme not in scheme_names():
        raise WireError(f"unknown scheme {scheme!r}; "
                        f"one of {list(scheme_names())} expected")
    scale = desc.get("scale", "small")
    if scale not in SCALES:
        raise WireError(f"'scale' must be one of {list(SCALES)}, "
                        f"got {scale!r}")
    names = _benchmark_names(desc)
    trials = _require_int(desc, "trials", 30, 1, MAX_TRIALS)
    seed = _require_int(desc, "seed", 0, -(2 ** 63), 2 ** 63 - 1)
    batch_size = _require_int(desc, "batch_size", 50, 1, MAX_BATCH_SIZE)
    timing = desc.get("timing", "cycle")
    if timing not in TIMING_MODES:
        raise WireError(f"'timing' must be one of {list(TIMING_MODES)}, "
                        f"got {timing!r}")
    if timing != "cycle" and kind not in ("fault", "fault-batch"):
        raise WireError(f"'timing': {timing!r} applies to fault grids "
                        f"only; kind {kind!r} always uses the cycle model")

    if kind == "fault":
        grid = fault_grid(names, trials=trials, scale=scale, seed=seed,
                          scheme=scheme, timing=timing)
    elif kind == "fault-batch":
        grid = fault_batch_grid(names, trials=trials,
                                batch_size=batch_size, scale=scale,
                                seed=seed, scheme=scheme, timing=timing)
    elif kind == "recovery":
        grid = recovery_grid(names, trials=trials, scale=scale, seed=seed,
                             scheme=scheme)
    elif kind == "baseline":
        grid = scheme_grid(names, [scheme], scale=scale)
    else:  # detection: the paper scheme's rich fault-free runs
        grid = detection_grid(names, [default_config()], scale=scale,
                              include_baselines=False, scheme=scheme)
    meta = {"kind": kind, "scheme": scheme, "scale": scale,
            "benchmarks": names}
    return grid, meta


def campaign_payload(entry_summary: dict, status: dict | None = None) -> dict:
    """The campaign resource representation shared by list/submit/status
    responses: service bookkeeping under ``service``, live manifest
    truth at the top level when requested."""
    payload = dict(status) if status is not None else {}
    payload["service"] = entry_summary
    return payload


def is_record_key(text: str) -> bool:
    """Whether ``text`` is shaped like a content key (64 hex chars)."""
    if len(text) != 64:
        return False
    try:
        int(text, 16)
        return True
    except ValueError:
        return False


def match_etag(if_none_match: str | None, etag: str) -> bool:
    """RFC-7232 ``If-None-Match`` evaluation against one strong ETag."""
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = [part.strip() for part in if_none_match.split(",")]
    # weak validators compare equal under the weak comparison the
    # 304-on-GET path uses
    return any(c == etag or c == f"W/{etag}" for c in candidates)


def normalise_description(desc: dict,
                          names: Sequence[str] | None = None) -> dict:
    """The canonical, defaulted form of a declarative description — what
    the service persists in its sidecar so a restart re-materialises the
    identical grid."""
    if "jobs" in desc:
        return {"jobs": desc["jobs"]}
    return {
        "kind": desc.get("kind", "fault"),
        "scheme": desc.get("scheme", "detection"),
        "scale": desc.get("scale", "small"),
        "benchmarks": list(names) if names is not None
        else desc.get("benchmarks", "all"),
        "trials": desc.get("trials", 30),
        "seed": desc.get("seed", 0),
        "batch_size": desc.get("batch_size", 50),
        "timing": desc.get("timing", "cycle"),
    }
