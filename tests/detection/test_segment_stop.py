"""A fault can fail only the log segment that holds it.

A checker replays its log segment from the segment's start checkpoint,
so a segment whose rows are a fault-free execution of the state it
starts from passes its check: the paper's strong induction over
segments (§IV).  Two fast paths rest on it.  The spliced verdict's
look-ahead checks no segment that starts after a trace's
``last_fault_seq``, and the detection scheme's fault path stops a
one-transient run once the segment holding its row has closed,
completing the run only when nothing was detected.  Pinned here:

* over random programs, the default config, random detection configs
  and the stress config, and random faults (one transient at any execution site, a
  transient pair or a hard fault), every event of a complete report
  (timing splice off, every segment checked) comes from a segment
  that holds an activated row;
* ``inject_batch`` with every fast path on equals the reference path
  for one transient at any execution site of the nine suite workloads,
  at seqs up to past the golden end, under the default and stress
  configs;
* on suite workloads, escaped faults whose runs the fault path stops
  early are completed and classified from the whole run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import default_config
from repro.detection.faults import FaultInjector, FaultSite, TransientFault
from repro.detection.lslog import segment_starts
from repro.isa import executor
from repro.isa.executor import execute_forked, execute_program
from repro.schemes import base as schemes_base
from repro.schemes import get_scheme
from repro.workloads.suite import BENCHMARK_ORDER, benchmark_trace

from tests.conftest import REFERENCE_PATH_ENV
from tests.core.timing_pins import CONFIGS
from tests.detection.test_certified_verdict import (
    config_draw,
    draw_faults,
    draw_transient,
    verdict,
)
from tests.isa.test_block_property import (
    FAULTY_CAP,
    build_program,
    long_program_draw,
)

#: Every fast-path switch on: the fault path the campaigns run.
FAST_PATH_ENV = {key: "1" for key in REFERENCE_PATH_ENV}

#: the default config, and the certified-verdict configs: random small
#: segments and timeouts, and the stress config
segment_config_draw = st.one_of(st.builds(default_config), config_draw)


@contextmanager
def capped_fault_path(cap: int):
    """Cap every run of the schemes' fault path at ``cap`` instructions:
    a corrupted loop counter runs away, and the default cap of twenty
    million rows would take minutes on the reference path."""
    with mock.patch.object(schemes_base, "execute_forked",
                           partial(executor.execute_forked,
                                   max_instructions=cap)), \
            mock.patch.object(schemes_base, "execute_program",
                              partial(executor.execute_program,
                                      max_instructions=cap)):
        yield


@settings(max_examples=120, deadline=None)
@given(long_program_draw, segment_config_draw, st.data())
def test_events_come_from_segments_holding_activated_rows(draw, config,
                                                          data):
    golden = execute_program(build_program(draw), max_instructions=20000)
    injector = FaultInjector(draw_faults(data, golden))
    faulty = execute_forked(golden, injector, max_instructions=FAULTY_CAP)
    report = verdict(faulty, config, "0", verdict_only=False).report
    starts = segment_starts(faulty, config) + [len(faulty)]
    rows = {seq for seq, _ in injector.activations}
    for event in report.events:
        index = event.error.segment_index
        assert any(starts[index] <= row < starts[index + 1] for row in rows)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(BENCHMARK_ORDER), st.sampled_from(sorted(CONFIGS)),
       st.data())
def test_inject_batch_equals_the_reference_path(workload, config_name,
                                                data):
    """One transient at any execution site of a suite workload, at any
    seq up to past the golden end: the fast path may stop its run where
    its segment closes and complete it when nothing was detected; the
    reference path executes and times every run in full.  Faults that
    send a loop away end crashed at twice the golden length on both."""
    golden = benchmark_trace(workload, "small")
    fault = draw_transient(
        data, data.draw(st.integers(min_value=0, max_value=len(golden) + 5)))
    config = CONFIGS[config_name]()
    scheme = get_scheme("detection")
    with capped_fault_path(2 * len(golden)):
        with mock.patch.dict(os.environ, FAST_PATH_ENV):
            fast = scheme.inject_batch(golden, config, (fault,))
        with mock.patch.dict(os.environ, REFERENCE_PATH_ENV):
            reference = scheme.inject_batch(golden, config, (fault,))
    assert fast == reference


#: Faults whose stress-config runs the fault path stops where their
#: segment closes: that segment passes, and the whole run escapes.
ESCAPED_FAULTS = (
    ("stream", TransientFault(FaultSite.RESULT, seq=2165, bit=21)),
    ("blackscholes", TransientFault(FaultSite.LOAD_VALUE, seq=542, bit=11)),
)


@pytest.mark.parametrize("workload, fault", ESCAPED_FAULTS)
def test_escaped_fault_is_completed_from_the_whole_run(workload, fault):
    golden = benchmark_trace(workload, "small")
    config = CONFIGS["stress"]()
    scheme = get_scheme("detection")
    runs = []
    forked = schemes_base.execute_forked

    def spy(*args, **kwargs):
        runs.append((kwargs.get("stop_entries"), forked(*args, **kwargs)))
        return runs[-1][1]

    with mock.patch.object(schemes_base, "execute_forked", spy), \
            mock.patch.dict(os.environ, FAST_PATH_ENV):
        fast, = scheme.inject_batch(golden, config, (fault,))
    (stop_entries, stopped), (none, whole) = runs
    assert stop_entries is not None and none is None
    assert not (stopped.halted or stopped.crashed) and whole.halted
    assert list(stopped.pcs) == list(whole.pcs[:len(stopped)])
    assert fast.activated and fast.outcome == "escaped"
    with mock.patch.dict(os.environ, REFERENCE_PATH_ENV):
        reference, = scheme.inject_batch(golden, config, (fault,))
    assert fast == reference
