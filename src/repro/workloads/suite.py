"""The benchmark suite registry (paper Table II).

Each entry maps a paper benchmark to its kernel builder with two parameter
scales:

* ``small`` — a few thousand dynamic instructions, for the test suite;
* ``default`` — tens of thousands of dynamic instructions, used by the
  benchmark harness to regenerate the paper's figures in reasonable time.

Clean traces are cached at two levels.  A per-process memo keeps repeated
jobs on the same benchmark free within one worker, exactly as before.
Above it, an optional **shared golden-trace store**
(:class:`repro.workloads.trace_store.TraceStore`, installed with
:func:`configure_trace_store`) makes the clean execution itself shared
across processes and hosts: a campaign worker whose store already holds
a benchmark's golden trace *forks* it — rebuilds the program (cheap,
deterministic) and loads the stored columns — instead of re-running
``execute_program``.  The campaign engine and manifest workers configure
the store next to their run cache.  Grid builders need only each
benchmark's row count (:func:`benchmark_trace_length`), which a stored
envelope's header supplies without decoding the trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.isa.executor import Trace, execute_program
from repro.isa.program import Program
from repro.workloads.trace_store import TraceStore
from repro.workloads import (
    bitcount,
    blackscholes,
    bodytrack,
    facesim,
    fluidanimate,
    freqmine,
    randacc,
    stream,
    swaptions,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table II row."""

    name: str
    source: str
    paper_input: str
    character: str
    build_default: Callable[[], Program]
    build_small: Callable[[], Program]


BENCHMARKS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        WorkloadSpec(
            "randacc", "HPCC", "100000000", "irregular memory-bound",
            lambda: randacc.build(iterations=3500),
            lambda: randacc.build(iterations=250, table_words_log2=14),
        ),
        WorkloadSpec(
            "stream", "HPCC", "(default)", "regular memory-bound",
            lambda: stream.build(elements=2200),
            lambda: stream.build(elements=150),
        ),
        WorkloadSpec(
            "bitcount", "MiBench", "75000", "pure compute (integer)",
            lambda: bitcount.build(iterations=350),
            lambda: bitcount.build(iterations=40),
        ),
        WorkloadSpec(
            "blackscholes", "Parsec", "simsmall", "FP compute",
            lambda: blackscholes.build(options=800),
            lambda: blackscholes.build(options=60),
        ),
        WorkloadSpec(
            "fluidanimate", "Parsec", "simsmall", "mixed memory/FP",
            lambda: fluidanimate.build(iterations=1600),
            lambda: fluidanimate.build(iterations=120, particles=512),
        ),
        WorkloadSpec(
            "swaptions", "Parsec", "simsmall", "FP compute, serial chains",
            lambda: swaptions.build(paths=220),
            lambda: swaptions.build(paths=18),
        ),
        WorkloadSpec(
            "freqmine", "Parsec", "simsmall", "integer pointer-chasing",
            lambda: freqmine.build(walks=1000),
            lambda: freqmine.build(walks=130, nodes=1024),
        ),
        WorkloadSpec(
            "bodytrack", "Parsec", "simsmall", "mixed, branchy",
            lambda: bodytrack.build(iterations=1800),
            lambda: bodytrack.build(iterations=140, particles=512),
        ),
        WorkloadSpec(
            "facesim", "Parsec", "simsmall", "regular dense FP",
            lambda: facesim.build(sweeps=4),
            lambda: facesim.build(sweeps=1, dim=24),
        ),
    ]
}

#: Paper ordering for figures (Table II order).
BENCHMARK_ORDER = [
    "randacc", "stream", "bitcount", "blackscholes", "fluidanimate",
    "swaptions", "freqmine", "bodytrack", "facesim",
]

_TRACE_CACHE: dict[tuple[str, str], Trace] = {}
_PROGRAM_CACHE: dict[tuple[str, str], Program] = {}

#: The process-wide shared golden-trace store (None = per-process only).
_TRACE_STORE: TraceStore | None = None


def configure_trace_store(root: str | os.PathLike | None) -> TraceStore | None:
    """Install the process-wide golden-trace store rooted at ``root``
    (``None`` removes it).  Returns the installed store.

    Also drops the per-process trace memo when the store *changes*, so a
    process that switches campaigns (tests, long-lived drivers) cannot
    serve traces cached under another store's root.
    """
    global _TRACE_STORE
    new = TraceStore(root) if root is not None else None
    old_root = _TRACE_STORE.root if _TRACE_STORE is not None else None
    new_root = new.root if new is not None else None
    if old_root != new_root:
        _TRACE_CACHE.clear()
    _TRACE_STORE = new
    return new


def trace_store() -> TraceStore | None:
    """The currently installed golden-trace store, if any."""
    return _TRACE_STORE


def build_benchmark(name: str, scale: str = "default") -> Program:
    """Build the named benchmark's program at the given scale (a fresh
    program object every call; see :func:`benchmark_program` for the
    shared one)."""
    spec = BENCHMARKS[name]
    if scale == "default":
        return spec.build_default()
    if scale == "small":
        return spec.build_small()
    raise KeyError(f"unknown scale {scale!r}; use 'default' or 'small'")


def benchmark_program(name: str, scale: str = "default") -> Program:
    """The shared built program of a benchmark (memoised per process, so
    every job on the same benchmark shares one pre-decoded, pre-bound
    program object)."""
    key = (name, scale)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = _PROGRAM_CACHE[key] = build_benchmark(name, scale)
    return program


def benchmark_trace(name: str, scale: str = "default") -> Trace:
    """The committed fault-free trace of a benchmark.

    Resolution order: per-process memo, then the shared golden-trace
    store (bit-exact columnar envelopes), then a real execution whose
    result is published to the store for every other worker.
    """
    key = (name, scale)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace
    program = benchmark_program(name, scale)
    store_key = None
    if _TRACE_STORE is not None:
        store_key = _TRACE_STORE.key(name, scale, program)
        trace = _TRACE_STORE.get(store_key, program)
        if trace is not None:
            _TRACE_CACHE[key] = trace
            return trace
    return _execute_golden(key, program, store_key)


def benchmark_trace_length(name: str, scale: str = "default") -> int:
    """The row count of :func:`benchmark_trace`'s trace, for callers
    that need nothing else of it (grid builders sizing fault positions).

    Same resolution order, except that a stored trace answers from its
    envelope's checked header (:meth:`TraceStore.length`) and is neither
    decoded nor memoised; a miss executes, publishes and memoises the
    trace exactly as :func:`benchmark_trace` does.
    """
    key = (name, scale)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return len(trace)
    program = benchmark_program(name, scale)
    store_key = None
    if _TRACE_STORE is not None:
        store_key = _TRACE_STORE.key(name, scale, program)
        length = _TRACE_STORE.length(store_key)
        if length is not None:
            return length
    return len(_execute_golden(key, program, store_key))


def _execute_golden(key: tuple[str, str], program: Program,
                    store_key: str | None) -> Trace:
    """Run ``program`` clean, publish the trace under ``store_key`` (when
    a store is installed) and memoise it under ``key``."""
    trace = execute_program(program)
    if store_key is not None:
        _TRACE_STORE.put(store_key, trace)
    _TRACE_CACHE[key] = trace
    return trace


def table2_rows() -> list[tuple[str, str, str]]:
    """Render Table II as (benchmark, source, input) rows."""
    return [
        (spec.name, spec.source, spec.paper_input)
        for name in BENCHMARK_ORDER
        for spec in [BENCHMARKS[name]]
    ]
