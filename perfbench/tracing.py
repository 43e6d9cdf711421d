"""Layer spans for a traced benchmark pass, installed from outside `src/`.

:class:`Tracer` replaces public entry points of the ``repro`` layers with
thin wrappers at the modules that call them, records one span per call
(name, start, end, parent span, enclosing job id) plus a few counts, and
restores every original on exit.  Nothing here runs per simulated row:
each wrapper fires once per layer call (a ``run_rows`` chunk, a checked
segment, a job, a cache read...).

Span names are ``<layer>.<what>``, where the layer is the ``src/repro``
package whose code runs under the span.  Self time of a span is its
duration minus the time its direct children cover, so the self times of
all spans partition the traced window exactly.  Two spans only frame the
others: the root span of the pass and ``harness.job`` (``execute_job``,
which dispatches a job to its layers).  Their self time is work that no
layer span covers, reported as ``trace.unattributed_s``; a layer that
runs unwrapped inside a job shows up there, not in a layer's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from repro.core.inorder_core import InOrderCoreModel
from repro.core.ooo_core import OoOCore
from repro.detection.checker import SegmentChecker
from repro.harness import campaign
from repro.harness.campaign import JobSpec, RunCache
from repro.isa.blocks import STATS as BLOCK_STATS
from repro.schemes import base as schemes_base
from repro.schemes import detection as schemes_detection
from repro.schemes.base import ProtectionScheme
from repro.schemes.registry import iter_schemes
from repro.workloads import suite
from repro.workloads.trace_store import TraceStore

_clock = time.perf_counter

#: The root span around a whole pass; its self time is work no layer
#: span covers.
ROOT = "pass"

#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "core.ooo_hooked": "core.ooo_hooked_s",
    "core.ooo_bare": "core.ooo_bare_s",
    "core.inorder": "core.inorder_s",
    "detection.system": "detection.system_s",
    "detection.check": "detection.check_s",
    "isa.forked": "isa.forked_s",
    "isa.full": "isa.full_s",
    "schemes.fault": "schemes.self_s",
    "schemes.time": "schemes.self_s",
    "harness.figure": "harness.figure_self_s",
    "harness.grid_build": "harness.grid_build_s",
    "harness.engine": "harness.engine_self_s",
    "harness.job_key": "harness.job_key_s",
    "harness.config_key": "harness.config_key_s",
    "harness.record": "harness.record_s",
    "harness.cache_get": "harness.cache_get_s",
    "harness.cache_put": "harness.cache_put_s",
    "workloads.trace": "workloads.trace_self_s",
    "workloads.golden_exec": "workloads.golden_exec_s",
    "workloads.store_get": "workloads.store_get_s",
    "workloads.store_put": "workloads.store_put_s",
    ROOT: "trace.unattributed_s",
    "harness.job": "trace.unattributed_s",
}

#: counts every traced pass reports, zero when the layer never ran
COUNTS = (
    "core.ooo_hooked_rows", "core.ooo_bare_rows", "core.inorder_rows",
    "detection.checks", "detection.check_rows",
    "isa.forked_rows", "isa.full_calls",
    "harness.jobs", "harness.cache_puts", "harness.cache_hits",
    "harness.cache_misses",
    "workloads.golden_execs", "workloads.store_hits",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, job id]`` per span
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = -1
        self._jobs = 0
        self._patches: list[tuple[object, str, object]] = []
        # rows the OoO model timed inside fault classification, and the
        # golden rows of the faults classified (the ratio's base)
        self._fault_depth = 0
        self._fault_rows = 0
        self._fault_golden_rows = 0
        # block-engine counters accumulated over injected suffixes only
        self._suffix_block_instrs = 0
        self._suffix_total_instrs = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self._job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, before=None, after=None):
        """``fn`` under a span.  ``name`` may be a function of the call's
        arguments.  A call nested directly in a span of the same name
        (an override calling ``super()``) is not traced again."""
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, before, after))

    # -- the layer entry points ----------------------------------------------

    def install(self) -> None:
        count = self.counts

        def run_rows_name(args, kwargs):
            hook = args[2] if len(args) > 2 else kwargs["hook"]
            return "core.ooo_bare" if hook is None else "core.ooo_hooked"

        def run_rows_before(args, kwargs):
            state = args[3] if len(args) > 3 else kwargs["state"]
            stop = args[4] if len(args) > 4 else kwargs["stop"]
            return stop - state.next_row

        def run_rows_after(rows, args, kwargs, _result):
            hook = args[2] if len(args) > 2 else kwargs["hook"]
            count["core.ooo_bare_rows" if hook is None
                  else "core.ooo_hooked_rows"] += rows
            if self._fault_depth:
                self._fault_rows += rows

        self._patch(OoOCore, "run_rows", run_rows_name,
                    run_rows_before, run_rows_after)

        def segment_after(_token, args, kwargs, _result):
            steps = args[1] if len(args) > 1 else kwargs["steps"]
            count["core.inorder_rows"] += len(steps)

        self._patch(InOrderCoreModel, "run_segment", "core.inorder",
                    after=segment_after)

        def check_after(_token, args, _kwargs, _result):
            segment = args[1]
            count["detection.checks"] += 1
            count["detection.check_rows"] += \
                (segment.end_seq or 0) - segment.start_seq

        self._patch(SegmentChecker, "check", "detection.check",
                    after=check_after)

        self._patch(campaign, "run_with_detection", "detection.system")
        self._patch(schemes_detection, "run_with_detection",
                    "detection.system")

        def forked_before(_args, _kwargs):
            return BLOCK_STATS.block_instrs, BLOCK_STATS.total_instrs

        def forked_after(token, _args, _kwargs, trace):
            count["isa.forked_rows"] += len(trace) - (trace.fork_seq or 0)
            self._suffix_block_instrs += BLOCK_STATS.block_instrs - token[0]
            self._suffix_total_instrs += BLOCK_STATS.total_instrs - token[1]

        self._patch(schemes_base, "execute_forked", "isa.forked",
                    forked_before, forked_after)
        self._patch(schemes_base, "execute_program", "isa.full",
                    after=lambda *_: count.update(("isa.full_calls",)))

        def fault_before(args, kwargs):
            self._fault_depth += 1
            trace = args[1]
            faults = args[3] if len(args) > 3 else (
                kwargs.get("faults") or kwargs.get("fault"))
            n = len(faults) if isinstance(faults, (tuple, list)) else 1
            self._fault_golden_rows += n * len(trace)

        def fault_after(*_):
            self._fault_depth -= 1

        scheme_classes = {type(s) for s in iter_schemes()} | {ProtectionScheme}
        for cls in sorted(scheme_classes, key=lambda c: c.__qualname__):
            for attr in ("inject", "inject_batch"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, "schemes.fault",
                                fault_before, fault_after)
            if "time" in cls.__dict__ and \
                    not getattr(cls.__dict__["time"], "__isabstractmethod__",
                                False):
                self._patch(cls, "time", "schemes.time")

        def job_before(_args, _kwargs):
            self._job = self._jobs
            self._jobs += 1

        def job_after(*_):
            self._job = -1
            count["harness.jobs"] += 1

        self._patch(campaign, "execute_job", "harness.job",
                    job_before, job_after)
        self._patch(JobSpec, "key", "harness.job_key")
        self._patch(campaign, "config_fingerprint", "harness.config_key")
        self._patch(campaign, "record_to_dict", "harness.record")

        def cache_get_after(_token, _args, _kwargs, record):
            count["harness.cache_hits" if record is not None
                  else "harness.cache_misses"] += 1

        self._patch(RunCache, "get", "harness.cache_get",
                    after=cache_get_after)
        self._patch(RunCache, "put", "harness.cache_put",
                    after=lambda *_: count.update(("harness.cache_puts",)))

        self._patch(campaign, "benchmark_trace", "workloads.trace")
        self._patch(suite, "execute_program", "workloads.golden_exec",
                    after=lambda *_: count.update(("workloads.golden_execs",)))

        def store_get_after(_token, _args, _kwargs, trace):
            if trace is not None:
                count["workloads.store_hits"] += 1

        self._patch(TraceStore, "get", "workloads.store_get",
                    after=store_get_after)
        self._patch(TraceStore, "put", "workloads.store_put")
        self._patch(TraceStore, "put_timing", "workloads.store_put")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return totals

    def job_latencies_ms(self) -> list[float]:
        return sorted(1e3 * (end - start)
                      for name, start, end, _p, _j in self.spans
                      if name == "harness.job")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced window."""
        out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for span, seconds in self.self_times().items():
            out[SELF_TIME_METRICS[span]] += seconds
        for name in COUNTS:
            out[name] = self.counts[name]
        out["isa.block_coverage"] = (
            self._suffix_block_instrs / self._suffix_total_instrs
            if self._suffix_total_instrs else 0.0)
        out["core.rows_timed_per_fault"] = (
            self._fault_rows / self._fault_golden_rows
            if self._fault_golden_rows else 0.0)
        latencies = self.job_latencies_ms()
        p50, tail, tail_pct = job_percentiles(latencies)
        out["harness.job_p50_ms"] = p50
        out["harness.job_ptail_ms"] = tail
        out["harness.job_ptail_pct"] = tail_pct
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON (one ``[name, start, end, parent,
        job]`` row per span, times in seconds from the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - base, 9), round(end - base, 9),
                 parent, job]
                for name, start, end, parent, job in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "job"], "spans": rows}, handle)


#: Tail percentiles tried, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def job_percentiles(values: list[float]) -> tuple[float, float, float]:
    """``(p50, tail, tail percentile)`` of sorted ``values``.  The tail is
    the highest percentile with at least ten samples beyond it; with
    fewer than twenty samples no percentile qualifies and the tail is
    the median (percentile 50)."""
    if not values:
        return 0.0, 0.0, 0.0

    def at(pct: float) -> float:
        index = min(len(values) - 1, int(pct / 100.0 * len(values)))
        return values[index]

    for pct in _TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return at(50.0), at(pct), pct
    return at(50.0), at(50.0), 50.0
