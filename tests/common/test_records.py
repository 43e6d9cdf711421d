"""Tests for the serialisable campaign/figure result records."""

import dataclasses
import json

import pytest

from repro.common.records import (
    CoverageRecord,
    FaultBatchRecord,
    RecoveryRecord,
    RunRecord,
    RunSummary,
    SchemeRunResult,
    canonical_json,
    frozen_record,
    record_from_dict,
    record_from_json,
    record_to_dict,
    record_to_json,
)


def make_run_record(**overrides) -> RunRecord:
    base = dict(
        benchmark="stream", scale="small", config_key="ab" * 32,
        main_cycles=1000, system_cycles=1100, instructions=900,
        delays_ns=(10.0, 20.5, 30.25), segments_checked=3,
        entries_checked=120,
        closes_by_reason=(("full", 2), ("termination", 1)),
        checkpoints_taken=3, checkpoint_stall_cycles=48,
        log_full_stall_cycles=0, checker_busy_ticks=(5, 7, 0),
        all_checks_done_tick=123456, detected=False)
    base.update(overrides)
    return RunRecord(**base)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})


class TestRoundTrips:
    def test_run_record(self):
        record = make_run_record()
        assert record_from_dict(record_to_dict(record)) == record
        assert record_from_json(record_to_json(record)) == record

    def test_coverage_record_with_nones(self):
        record = CoverageRecord(
            benchmark="bodytrack", scale="small", config_key="ef" * 32,
            site="store_value", seq=123, bit=5, activated=False,
            outcome="not_activated", detect_latency_us=None,
            first_error_segment=None, first_error_entry=None)
        assert record_from_json(record_to_json(record)) == record

    def test_recovery_record(self):
        record = RecoveryRecord(
            benchmark="freqmine", scale="small", config_key="01" * 32,
            site="store_value", seq=500, bit=5, activated=True,
            detected=True, rollback_seq=480, replayed_instructions=100,
            recovered=True, state_correct=True, trace_len=2000)
        assert record_from_json(record_to_json(record)) == record

    def test_run_summary(self):
        summary = RunSummary("stream", 1.02, 400.0, 9000.0, 1000, 1020)
        assert record_from_dict(record_to_dict(summary)) == summary

    def test_scheme_run_result(self):
        record = SchemeRunResult(
            scheme="lockstep", benchmark="stream", scale="small",
            config_key="ab" * 32, cycles=1003, base_cycles=1000,
            instructions=900, system_cycles=1003, slowdown=1.003,
            detection_latency_ns=0.94, area_overhead=1.0,
            energy_overhead=1.0, detects_faults=True,
            covers_hard_faults=True, supports_recovery=False)
        assert record_from_json(record_to_json(record)) == record

    def test_scheme_run_result_none_latency(self):
        record = SchemeRunResult(
            scheme="unprotected", benchmark="stream", scale="small",
            config_key="cd" * 32, cycles=1000, base_cycles=1000,
            instructions=900, system_cycles=1000, slowdown=1.0,
            detection_latency_ns=None, area_overhead=0.0,
            energy_overhead=0.0, detects_faults=False,
            covers_hard_faults=False, supports_recovery=False)
        assert record_from_json(record_to_json(record)) == record

    def test_coverage_record_carries_scheme(self):
        record = CoverageRecord(
            benchmark="stream", scale="small", config_key="ef" * 32,
            site="branch", seq=44, bit=0, activated=True,
            outcome="detected", detect_latency_us=0.01,
            first_error_segment=None, first_error_entry=None,
            scheme="lockstep")
        assert record_from_json(record_to_json(record)).scheme == "lockstep"

    def test_unknown_field_rejected(self):
        payload = record_to_dict(make_run_record())
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            record_from_dict(payload)

    def test_canonical_bytes_stable(self):
        a = record_to_json(make_run_record())
        b = record_to_json(make_run_record())
        assert a == b
        assert json.loads(a)["record_type"] == "RunRecord"


def asdict_to_dict(record) -> dict:
    """The deep-copying ``asdict`` conversion ``record_to_dict`` must
    match in canonical JSON: the reference for its direct build."""
    payload = dataclasses.asdict(record)
    for name in {"delays_ns", "checker_busy_ticks",
                 "records"} & payload.keys():
        payload[name] = list(payload[name])
    closes = payload.get("closes_by_reason")
    if closes is not None:
        payload["closes_by_reason"] = [list(pair) for pair in closes]
    payload["record_type"] = type(record).__name__
    return payload


def coverage_record(**overrides) -> CoverageRecord:
    base = dict(benchmark="stream", scale="small", config_key="ef" * 32,
                site="load_addr", seq=321, bit=7, activated=True,
                outcome="detected", detect_latency_us=0.125,
                first_error_segment=2, first_error_entry=None,
                scheme="detection")
    base.update(overrides)
    return CoverageRecord(**base)


ONE_OF_EACH = [
    make_run_record(),
    FaultBatchRecord(
        benchmark="stream", scale="small", config_key="ab" * 32,
        records=(record_to_dict(coverage_record()),
                 record_to_dict(coverage_record(
                     seq=400, activated=False, outcome="not_activated",
                     detect_latency_us=None, first_error_segment=None))),
        scheme="detection"),
    SchemeRunResult(
        scheme="unprotected", benchmark="stream", scale="small",
        config_key="cd" * 32, cycles=1000, base_cycles=1000,
        instructions=900, system_cycles=1000, slowdown=1.0,
        detection_latency_ns=None, area_overhead=0.0,
        energy_overhead=0.0, detects_faults=False,
        covers_hard_faults=False, supports_recovery=False),
    RecoveryRecord(
        benchmark="freqmine", scale="small", config_key="01" * 32,
        site="store_value", seq=500, bit=5, activated=True,
        detected=True, rollback_seq=480, replayed_instructions=100,
        recovered=True, state_correct=True, trace_len=2000),
    coverage_record(),
]


class TestDirectConversion:
    @pytest.mark.parametrize("record", ONE_OF_EACH,
                             ids=lambda r: type(r).__name__)
    def test_matches_asdict_and_round_trips(self, record):
        payload = record_to_dict(record)
        assert canonical_json(payload) == canonical_json(
            asdict_to_dict(record))
        assert payload == asdict_to_dict(record)
        assert record_from_dict(payload) == record
        assert record_from_json(record_to_json(record)) == record


class TestFrozenRecord:
    def test_equals_the_constructed_record(self):
        built = coverage_record()
        fast = frozen_record(CoverageRecord, dataclasses.asdict(built))
        assert type(fast) is CoverageRecord
        assert fast == built and hash(fast) == hash(built)
        assert repr(fast) == repr(built)
        assert canonical_json(record_to_dict(fast)) == canonical_json(
            asdict_to_dict(built))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.seq = 1


class TestDelayStats:
    def test_mean_max(self):
        record = make_run_record()
        assert record.mean_delay_ns() == pytest.approx(60.75 / 3)
        assert record.max_delay_ns() == 30.25

    def test_empty_delays_are_zero(self):
        record = make_run_record(delays_ns=())
        assert record.mean_delay_ns() == 0.0
        assert record.max_delay_ns() == 0.0
