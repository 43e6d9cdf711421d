"""Pins for timed runs: every suite workload, bare and under detection.

Each run must reproduce the digests of ``timing_pins.PINS``, recorded
before the timing loops were predecoded: the bare :class:`CoreResult`,
the hooked :class:`CoreResult` plus the whole :class:`DetectionReport`,
and the in-order model's :class:`SegmentTiming` for every checked
segment, under the default configuration and under one that takes every
segment-close path.
"""

import pytest

from repro.core.ooo_core import OoOCore

from tests.core.timing_pins import (
    CONFIGS,
    PINS,
    PROGRAMS,
    bare_digest,
    hooked_digest,
    hooked_run,
    pinned_trace,
    segments_digest,
)


@pytest.mark.parametrize("name", PROGRAMS)
def test_bare_run_matches_pin(name):
    result = OoOCore(CONFIGS["default"]()).run(pinned_trace(name))
    assert bare_digest(result) == PINS[(name, "default")]["bare"]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", PROGRAMS)
def test_hooked_run_matches_pin(name, config_name):
    result, report, calls = hooked_run(name, config_name)
    pins = PINS[(name, config_name)]
    assert hooked_digest(result, report) == pins["hooked"]
    assert segments_digest(calls) == pins["segments"]
    if config_name == "stress":
        # the stress pins reach the commit gate and the event path
        assert report.log_full_stall_cycles > 0 and report.events

