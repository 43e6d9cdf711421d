"""Tests for the parallel campaign engine and its on-disk run cache."""

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import random
import socket
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import SystemConfig, config_from_dict, default_config
from repro.common.records import canonical_json
from repro.detection.faults import FaultSite, TransientFault
from repro.harness import campaign
from repro.harness.campaign import (
    CACHE_SCHEMA_VERSION,
    CampaignEngine,
    JobSpec,
    RunCache,
    config_fingerprint,
    JOB_KINDS,
    detection_grid,
    execute_job,
    fault_batch_grid,
    fault_grid,
    recovery_grid,
)
from repro.schemes import scheme_names
from repro.workloads import suite, trace_store
from repro.workloads.suite import BENCHMARK_ORDER, configure_trace_store

from tests.conftest import edit_header_digit, tripwire


@pytest.fixture(scope="module")
def cfg():
    return default_config()


class TestKeys:
    def test_fingerprint_stable(self, cfg):
        assert config_fingerprint(cfg) == config_fingerprint(default_config())

    def test_fingerprint_tracks_knobs(self, cfg):
        assert (config_fingerprint(cfg)
                != config_fingerprint(cfg.with_checker_freq(500.0)))
        assert (config_fingerprint(cfg)
                != config_fingerprint(cfg.with_log(36 * 1024, None)))

    def test_equal_specs_share_key(self, cfg):
        a = JobSpec("detection", "stream", "small", cfg)
        b = JobSpec("detection", "stream", "small", default_config())
        assert a == b and a.key() == b.key()

    def test_key_separates_dimensions(self, cfg):
        base = JobSpec("detection", "stream", "small", cfg)
        assert base.key() != JobSpec("baseline", "stream", "small", cfg).key()
        assert base.key() != JobSpec("detection", "randacc", "small", cfg).key()
        assert base.key() != JobSpec("detection", "stream", "default", cfg).key()
        assert base.key() != JobSpec(
            "detection", "stream", "small",
            cfg.with_checker_cores(6)).key()

    def test_fault_in_key(self, cfg):
        fault = TransientFault(FaultSite.STORE_VALUE, seq=100, bit=3)
        other = TransientFault(FaultSite.STORE_VALUE, seq=101, bit=3)
        assert (JobSpec("fault", "stream", "small", cfg, fault=fault).key()
                != JobSpec("fault", "stream", "small", cfg, fault=other).key())

    def test_describe_is_json_safe(self, cfg):
        fault = TransientFault(FaultSite.BRANCH, seq=7)
        spec = JobSpec("fault", "stream", "small", cfg, fault=fault,
                       interrupt_seqs=(10, 20))
        json.dumps(spec.describe())  # must not raise

    def test_timing_is_cycle_only(self, cfg):
        """The cycle model is the one timing model; the field stays in
        every key as ``"cycle"`` and any other value is refused."""
        assert JobSpec("fault", "stream").describe()["timing"] == "cycle"
        with pytest.raises(ValueError, match="unknown timing mode"):
            JobSpec("fault", "stream", "small", cfg, timing="interval")

    def test_unknown_timing_rejected(self):
        with pytest.raises(ValueError, match="unknown timing mode"):
            JobSpec("fault", "stream", timing="approximate")


#: Configs as the grids, the CLI and manifest workers build them: fresh
#: objects (each memoises its own description) and a shared one.
SHARED_CONFIG = default_config()
config_draw = st.sampled_from([
    lambda: SHARED_CONFIG,
    default_config,
    lambda: default_config().with_checker_freq(1000),
    lambda: config_from_dict(dataclasses.asdict(default_config())),
    lambda: config_from_dict(dataclasses.asdict(
        default_config().with_log(36 * 1024, None).with_checker_cores(6))),
]).map(lambda make: make())

fault_draw = st.builds(
    TransientFault,
    site=st.sampled_from(FaultSite),
    seq=st.integers(0, 1 << 40),
    bit=st.integers(0, 63),
    memop_index=st.integers(0, 3),
    reg=st.sampled_from(["x1", "x7", "f3"]))

spec_draw = st.builds(
    JobSpec,
    kind=st.sampled_from(JOB_KINDS),
    benchmark=st.one_of(st.sampled_from(["stream", "bitcount"]),
                        st.text(max_size=6)),
    scale=st.sampled_from(["small", "default"]),
    config=config_draw,
    fault=st.none() | fault_draw,
    faults=st.lists(fault_draw, max_size=3).map(tuple),
    interrupt_seqs=st.lists(st.integers(0, 1 << 20), max_size=3).map(tuple),
    scheme=st.sampled_from(["", *scheme_names()]))


def asdict_fault(fault: TransientFault) -> dict:
    """A fault's description as the deep-copying ``asdict`` builds it."""
    payload = dataclasses.asdict(fault)
    payload["site"] = fault.site.value
    return payload


class TestKeySplice:
    @settings(max_examples=150, deadline=None)
    @given(spec_draw)
    def test_key_hashes_the_canonical_description(self, spec):
        """The spliced key equals the hash of the description's canonical
        JSON, byte for byte, and the description's faults equal
        ``asdict``'s (a field added to TransientFault must reach it)."""
        assert spec.key() == hashlib.sha256(
            canonical_json(spec.describe()).encode()).hexdigest()
        description = spec.describe()
        assert description["fault"] == (
            None if spec.fault is None else asdict_fault(spec.fault))
        assert description["faults"] == [asdict_fault(f) for f in spec.faults]
        assert spec.key() == spec.key()


@pytest.fixture
def config_walks(monkeypatch):
    """Every ``dataclasses.asdict`` walk of a :class:`SystemConfig`, seen
    through every module that bound the function at import."""
    walks = []
    real = dataclasses.asdict

    def spy(obj, *args, **kwargs):
        if isinstance(obj, SystemConfig):
            walks.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(dataclasses, "asdict", spy)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "asdict", None) is real:
            monkeypatch.setattr(module, "asdict", spy)
    return walks


class TestKeyMemo:
    def test_config_tree_walked_once_per_object(self, config_walks):
        cfg = default_config().with_checker_freq(500.0)
        fault = TransientFault(FaultSite.RESULT, seq=9)
        spec = JobSpec("fault", "stream", "small", cfg, fault=fault)
        first = (config_fingerprint(cfg), spec.key())
        assert config_walks == [cfg]
        # a second fingerprint or key, or another spec over the same
        # config object, reuses the walk
        assert (config_fingerprint(cfg), spec.key()) == first
        JobSpec("fault-batch", "stream", "small", cfg, faults=(fault,)).key()
        assert config_walks == [cfg]


@pytest.fixture()
def caches():
    """``caches(root)`` opens a :class:`RunCache` that is closed when the
    test ends."""
    opened = []

    def open_cache(root) -> RunCache:
        cache = RunCache(root)
        opened.append(cache)
        return cache

    yield open_cache
    for cache in opened:
        cache.close()


class TestRunCache:
    def test_roundtrip(self, tmp_path, caches):
        cache = caches(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.hits == 1 and cache.writes == 1

    def test_miss_on_absent(self, tmp_path, caches):
        cache = caches(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path, caches):
        cache = caches(tmp_path)
        key = "ef" * 32
        cache.put(key, {"x": 1})
        pack = only_pack(tmp_path)
        data = pack.read_bytes()
        # corrupt the line in place: same length, still framed as an entry
        pack.write_bytes(data.replace(b'{"x":1}', b'{ bad }'))
        assert cache.get(key) is None
        assert caches(tmp_path).get(key) is None

    @pytest.mark.parametrize("body", [
        "null", "[]", "7", '"x"', '{"key": null}',
        # framed as an entry for the key, but not a record envelope
        '{"key":"<key>","record":7,"schema":<schema>}',
        '{"key":"<key>","key":"other","record":{},"schema":<schema>}',
    ])
    def test_valid_json_wrong_shape_reads_as_miss(self, tmp_path, body,
                                                  caches):
        key = "23" * 32
        write_pack(tmp_path, "h-0", body.replace("<key>", key).replace(
            "<schema>", str(CACHE_SCHEMA_VERSION)))
        assert caches(tmp_path).get(key) is None

    def test_envelope_missing_record_reads_as_miss(self, tmp_path, caches):
        cache = caches(tmp_path)
        key = "45" * 32
        cache.put(key, {"x": 1})
        envelope, = pack_envelopes(only_pack(tmp_path))
        del envelope["record"]
        only_pack(tmp_path).write_text(canonical_json(envelope) + "\n")
        assert cache.get(key) is None
        assert caches(tmp_path).get(key) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path, caches):
        cache = caches(tmp_path)
        key = "01" * 32
        cache.put(key, {"x": 1})
        envelope, = pack_envelopes(only_pack(tmp_path))
        envelope["schema"] = CACHE_SCHEMA_VERSION + 1
        only_pack(tmp_path).write_text(canonical_json(envelope) + "\n")
        assert cache.get(key) is None
        assert caches(tmp_path).get(key) is None


def only_pack(root) -> Path:
    packs = list((Path(root) / "packs").glob("*.pack"))
    assert len(packs) == 1, packs
    return packs[0]


def pack_envelopes(pack: Path) -> list[dict]:
    return [json.loads(line) for line in pack.read_bytes().splitlines()]


def write_pack(root, name: str, *lines: str) -> Path:
    pack = Path(root) / "packs" / f"{name}.pack"
    pack.parent.mkdir(parents=True, exist_ok=True)
    with open(pack, "ab") as out:
        out.write("".join(line + "\n" for line in lines).encode())
    return pack


def envelope_line(key: str, record: dict) -> str:
    return canonical_json(
        {"key": key, "record": record, "schema": CACHE_SCHEMA_VERSION})


def put_records(root, keys) -> None:
    """A writer process: one cache, one record per key."""
    with RunCache(root) as cache:
        for key in keys:
            cache.put(key, {"key": key})


def run_process(target, *args) -> None:
    child = multiprocessing.get_context("fork").Process(
        target=target, args=args)
    child.start()
    child.join()
    assert child.exitcode == 0


KEYS = [f"{i:064x}" for i in range(64)]


class TestPacks:
    def test_one_line_per_record_in_one_pack(self, tmp_path, caches):
        cache = caches(tmp_path)
        for key in KEYS[:3]:
            cache.put(key, {"key": key})
        pack = only_pack(tmp_path)
        assert pack.name == f"{socket.gethostname()}-0.pack"
        assert pack.read_bytes() == b"".join(
            envelope_line(key, {"key": key}).encode() + b"\n"
            for key in KEYS[:3])
        assert cache.read_envelope(KEYS[1]) == envelope_line(
            KEYS[1], {"key": KEYS[1]}).encode()

    def test_torn_last_line_misses_and_next_writer_seals_it(self, tmp_path,
                                                            caches):
        put_records(tmp_path, KEYS[:2])
        pack = only_pack(tmp_path)
        with open(pack, "r+b") as torn:
            torn.truncate(pack.stat().st_size - 5)
        reader = caches(tmp_path)
        assert reader.get(KEYS[0]) == {"key": KEYS[0]}
        assert reader.get(KEYS[1]) is None
        assert reader.keys() == {KEYS[0]}
        put_records(tmp_path, KEYS[2:4])
        assert only_pack(tmp_path) == pack
        for cache in (reader, caches(tmp_path)):
            assert cache.get(KEYS[1]) is None
            assert [cache.get(key) for key in (KEYS[0], *KEYS[2:4])] == [
                {"key": key} for key in (KEYS[0], *KEYS[2:4])]
        # the fragment was sealed into a line of its own
        assert pack.read_bytes().count(b"\n") == 4

    def test_threads_share_one_cache(self, tmp_path, caches):
        cache = caches(tmp_path)
        threads = [threading.Thread(target=lambda part=part: [
            cache.put(key, {"key": key}) for key in KEYS[part::4]])
            for part in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.writes == len(KEYS)
        assert sorted(e["key"] for e in pack_envelopes(only_pack(tmp_path))) \
            == KEYS
        fresh = caches(tmp_path)
        assert all(fresh.get(key) == {"key": key} for key in KEYS)

    def test_reader_sees_other_processes_records_on_miss(self, tmp_path,
                                                         caches):
        reader = caches(tmp_path)
        reader.put(KEYS[0], {"key": KEYS[0]})
        assert reader.get(KEYS[1]) is None
        children = [multiprocessing.get_context("fork").Process(
            target=put_records, args=(tmp_path, KEYS[1 + part:9:2]))
            for part in range(2)]
        for child in children:
            child.start()
        for child in children:
            child.join()
            assert child.exitcode == 0
        assert [reader.get(key) for key in KEYS[:9]] == [
            {"key": key} for key in KEYS[:9]]
        assert reader.keys() == set(KEYS[:9])

    def test_forked_child_writes_into_its_own_slot(self, tmp_path, caches):
        cache = caches(tmp_path)
        cache.put(KEYS[0], {"key": KEYS[0]})
        run_process(lambda: cache.put(KEYS[1], {"key": KEYS[1]}))
        assert cache.get(KEYS[1]) == {"key": KEYS[1]}
        # the parent still holds its slot after the child closed its copy
        cache.put(KEYS[2], {"key": KEYS[2]})
        caches(tmp_path).put(KEYS[3], {"key": KEYS[3]})
        host = socket.gethostname()
        packs = tmp_path / "packs"
        assert sorted(p.name for p in packs.iterdir()) == [
            f"{host}-0.pack", f"{host}-1.pack"]
        assert [e["key"] for e in pack_envelopes(packs / f"{host}-0.pack")] \
            == [KEYS[0], KEYS[2]]
        assert [e["key"] for e in pack_envelopes(packs / f"{host}-1.pack")] \
            == [KEYS[1], KEYS[3]]

    def test_sequential_writer_processes_leave_one_pack(self, tmp_path):
        for key in KEYS[:4]:
            run_process(put_records, tmp_path, [key])
        assert [e["key"] for e in pack_envelopes(only_pack(tmp_path))] \
            == KEYS[:4]

    def test_corrupt_line_then_valid_line_reads_the_valid_one(self, tmp_path,
                                                              caches):
        key = KEYS[0]
        good = envelope_line(key, {"x": 1})
        write_pack(tmp_path, "h-0", good.replace('{"x":1}', '{ bad }'))
        cache = caches(tmp_path)
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        for reader in (cache, caches(tmp_path)):
            assert reader.get(key) == {"x": 1}
            assert reader.read_envelope(key) == good.encode()

    # the caches here are dropped unclosed on purpose: garbage collection
    # must release their descriptors
    @pytest.mark.filterwarnings("ignore:unclosed file:ResourceWarning")
    def test_dropped_caches_release_their_descriptors(self, tmp_path):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("needs /proc/self/fd")
        writers = [RunCache(tmp_path) for _ in range(2)]
        for i, key in enumerate(KEYS):
            writers[i % 2].put(key, {"key": key})
        del writers
        before = len(list(fds.iterdir()))
        for i in range(2000):
            cache = RunCache(tmp_path)
            assert cache.get(KEYS[i % len(KEYS)]) is not None
            if i % 100 == 0:
                cache.put(KEYS[0], {"key": KEYS[0]})
            del cache
        assert len(list(fds.iterdir())) == before
        assert len(list((tmp_path / "packs").iterdir())) == 2


class TestClose:
    def test_closed_cache_leaves_no_file_to_collect(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(KEYS[0], {"key": KEYS[0]})
        assert cache.get(KEYS[1]) is None      # a miss opens every pack
        cache.close()
        cache.close()                          # idempotent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del cache
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_closed_cache_reopens_on_next_use(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(KEYS[0], {"key": KEYS[0]})
        cache.close()
        assert cache.get(KEYS[0]) == {"key": KEYS[0]}
        cache.close()
        cache.put(KEYS[1], {"key": KEYS[1]})
        assert cache.get(KEYS[1]) == {"key": KEYS[1]}
        cache.close()
        assert [e["key"] for e in pack_envelopes(only_pack(tmp_path))] == \
            KEYS[:2]

    def test_close_releases_the_writer_slot(self, tmp_path):
        with RunCache(tmp_path) as first:
            first.put(KEYS[0], {"key": KEYS[0]})
        with RunCache(tmp_path) as second:
            second.put(KEYS[1], {"key": KEYS[1]})
        assert only_pack(tmp_path).name == f"{socket.gethostname()}-0.pack"
        # the first cache, still alive, takes the slot again on reuse
        first.put(KEYS[2], {"key": KEYS[2]})
        first.close()
        assert len(pack_envelopes(only_pack(tmp_path))) == 3

    def test_engine_closes_its_cache(self, cfg, tmp_path):
        spec = JobSpec("baseline", "stream", "small", cfg)
        with CampaignEngine(workers=1, cache_dir=tmp_path) as engine:
            engine.run([spec])
        with RunCache(tmp_path) as cache:
            cache.put(KEYS[0], {"key": KEYS[0]})
        assert only_pack(tmp_path).name == f"{socket.gethostname()}-0.pack"


class TestGrids:
    def test_fault_grid_deterministic(self):
        a = fault_grid(["stream"], trials=8, scale="small", seed=3)
        b = fault_grid(["stream"], trials=8, scale="small", seed=3)
        assert tuple(a) == tuple(b)
        c = fault_grid(["stream"], trials=8, scale="small", seed=4)
        assert tuple(a) != tuple(c)

    def test_fault_grid_cycles_sites(self):
        grid = fault_grid(["stream"], trials=12, scale="small")
        sites = {job.fault.site for job in grid}
        assert len(sites) == 6

    def test_shards_partition(self):
        grid = fault_grid(["stream"], trials=9, scale="small")
        pieces = [grid.shard(i, 4).jobs for i in range(4)]
        assert sum(len(p) for p in pieces) == len(grid)
        assert set().union(*[set(p) for p in pieces]) == set(grid.jobs)

    def test_shard_bounds(self):
        grid = fault_grid(["stream"], trials=2, scale="small")
        with pytest.raises(ValueError):
            grid.shard(2, 2)

    def test_detection_grid_shape(self, cfg):
        grid = detection_grid(["stream", "bitcount"],
                              [cfg, cfg.with_checker_freq(500.0)])
        kinds = [job.kind for job in grid]
        assert kinds.count("baseline") == 2
        assert kinds.count("detection") == 4

    def test_recovery_grid_fault_window(self):
        grid = recovery_grid(["stream"], trials=4, scale="small")
        for job in grid:
            assert job.kind == "recovery"
            assert job.fault.site is FaultSite.STORE_VALUE

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_fault_batch_grid_draws_same_fault_stream(self, scheme):
        """Batching must not change which faults a campaign injects, and
        no scheme flag gates it: under every registered scheme the
        batched grid's cells concatenate to exactly the unbatched grid's
        faults, same seed, fault for fault."""
        grid = fault_grid(["stream", "bitcount"], trials=7, seed=3,
                          scheme=scheme)
        batched = fault_batch_grid(["stream", "bitcount"], trials=7,
                                   batch_size=3, seed=3, scheme=scheme)
        assert [f for job in batched for f in job.faults] == \
            [job.fault for job in grid]
        assert all(job.kind == "fault-batch" and job.scheme == scheme
                   for job in batched)
        assert [len(job.faults) for job in batched] == [3, 3, 1, 3, 3, 1]

    def test_fault_batch_grid_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch size"):
            fault_batch_grid(["stream"], trials=4, batch_size=0)


@pytest.fixture
def trace_root(tmp_path):
    """A golden-trace store root; the test starts and ends with no store
    installed and an empty process memo."""
    configure_trace_store(None)
    suite._TRACE_CACHE.clear()
    yield tmp_path / "traces"
    configure_trace_store(None)
    suite._TRACE_CACHE.clear()


#: the grid builders that size faults by golden trace length
LENGTH_GRIDS = {
    "fault": lambda: fault_grid(BENCHMARK_ORDER, trials=5, seed=1),
    "fault-batch": lambda: fault_batch_grid(BENCHMARK_ORDER, trials=5,
                                            batch_size=2, seed=1),
    "recovery": lambda: recovery_grid(BENCHMARK_ORDER, trials=3, seed=1),
}


def job_keys(grid) -> list[str]:
    return [job.key() for job in grid]


class TestGridTraceLengths:
    """Grids read golden row counts from the trace store's envelope
    headers: a warm build executes and decodes nothing."""

    def test_warm_grids_decode_nothing_and_match_cold(self, trace_root,
                                                      monkeypatch):
        count = len(BENCHMARK_ORDER)
        store = configure_trace_store(trace_root)
        cold = {}
        for kind, build in LENGTH_GRIDS.items():
            cold[kind] = job_keys(build())
            # the first grid executes and publishes every golden trace
            # (one lookup, one write each); the others reuse the memo
            assert (store.hits, store.misses, store.writes,
                    store.corrupt) == (0, count, count, 0)

        configure_trace_store(None)  # a fresh process: no memo
        store = configure_trace_store(trace_root)
        monkeypatch.setattr(trace_store, "_decode_envelope",
                            tripwire("an envelope decode"))
        monkeypatch.setattr(suite, "execute_program",
                            tripwire("a clean execution"))
        for kind, build in LENGTH_GRIDS.items():
            hits = store.hits
            assert job_keys(build()) == cold[kind]
            assert store.hits - hits == count
        assert (store.misses, store.writes, store.corrupt) == (0, 0, 0)

    def test_edited_row_count_reads_corrupt_and_is_rewritten(
            self, trace_root, caplog):
        """A same-length edit of the header's row count is refused by the
        checksum: counted and logged once, the grid keeps the true
        length, and the envelope is rewritten valid."""
        store = configure_trace_store(trace_root)
        cold = job_keys(LENGTH_GRIDS["fault"]())
        program = suite.benchmark_program("stream", "small")
        key = store.key("stream", "small", program)
        path = store._path(key)
        length = store.length(key)
        edit_header_digit(path, "n", length)

        configure_trace_store(None)
        store = configure_trace_store(trace_root)
        with caplog.at_level("WARNING", logger="repro.workloads.trace_store"):
            assert job_keys(LENGTH_GRIDS["fault"]()) == cold
        count = len(BENCHMARK_ORDER)
        assert (store.hits, store.misses, store.writes,
                store.corrupt) == (count - 1, 0, 1, 1)
        assert len([record for record in caplog.records
                    if "corrupt golden-trace envelope" in record.message]) == 1
        fresh = trace_store.TraceStore(trace_root)
        assert fresh.length(key) == length
        assert len(fresh.get(key, program)) == length
        assert fresh.corrupt == 0


class TestExecuteJob:
    def test_unknown_kind(self, cfg):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(JobSpec("mystery", "stream", "small", cfg))

    def test_detection_record_fields(self, cfg):
        record = execute_job(JobSpec("detection", "stream", "small", cfg))
        assert record["record_type"] == "RunRecord"
        assert record["main_cycles"] > 0
        assert record["segments_checked"] > 0
        assert not record["detected"]

    def test_baseline_vs_detection_slowdown(self, cfg):
        base = execute_job(JobSpec("baseline", "stream", "small", cfg))
        det = execute_job(JobSpec("detection", "stream", "small", cfg))
        assert det["main_cycles"] >= base["cycles"]


class TestEngine:
    def test_memoises_within_process(self, cfg):
        engine = CampaignEngine(workers=1)
        spec = JobSpec("detection", "stream", "small", cfg)
        first = engine.run([spec])
        second = engine.run([spec])
        assert first.executed == 1 and second.executed == 0
        assert second.cached == 1
        assert first.records == second.records

    def test_deduplicates_submission(self, cfg):
        engine = CampaignEngine(workers=1)
        spec = JobSpec("baseline", "stream", "small", cfg)
        result = engine.run([spec, spec, spec])
        assert result.executed == 1
        # duplicate slots count as cached: the summary always sums up
        assert result.cached == 2
        assert result.executed + result.cached == len(result)
        assert len(result.records) == 3
        assert result.records[0] == result.records[2]

    def test_campaign_determinism_across_workers_and_cache(self, cfg, tmp_path):
        """The ISSUE's determinism contract: 1 worker, N workers, and a
        warm on-disk cache must produce byte-identical result records."""
        grid = fault_grid(["stream"], trials=8, scale="small", seed=1)

        serial = CampaignEngine(workers=1).run(grid)
        parallel = CampaignEngine(workers=3).run(grid)
        assert serial.records_json() == parallel.records_json()
        assert serial.executed == parallel.executed == len(grid)

        with CampaignEngine(workers=2, cache_dir=tmp_path) as engine:
            cold = engine.run(grid)
        assert cold.records_json() == serial.records_json()
        with CampaignEngine(workers=2, cache_dir=tmp_path) as warm_engine:
            warm = warm_engine.run(grid)
        assert warm.executed == 0
        assert warm.cached == len(grid)
        assert warm.records_json() == serial.records_json()

    def test_interrupted_serial_run_keeps_finished_jobs(self, tmp_path,
                                                         monkeypatch):
        grid = fault_grid(["stream"], trials=6, scale="small", seed=2,
                          scheme="lockstep")
        real = campaign.execute_job
        calls = []

        def interrupted(spec):
            calls.append(spec)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return real(spec)

        monkeypatch.setattr(campaign, "execute_job", interrupted)
        with pytest.raises(KeyboardInterrupt), \
                CampaignEngine(workers=1, cache_dir=tmp_path) as engine:
            engine.run(grid)
        monkeypatch.setattr(campaign, "execute_job", real)
        with CampaignEngine(workers=1, cache_dir=tmp_path) as engine:
            rerun = engine.run(grid)
        assert (rerun.executed, rerun.cached) == (2, 4)
        assert (rerun.records_json()
                == CampaignEngine(workers=1).run(grid).records_json())

    @staticmethod
    def _two_benchmark_grid():
        """Lockstep fault jobs of two benchmarks, interleaved."""
        grid = fault_grid(["stream", "bitcount"], trials=8, scale="small",
                          seed=5, scheme="lockstep")
        stream, bitcount = grid.jobs[:8], grid.jobs[8:]
        return [job for pair in zip(stream, bitcount) for job in pair]

    def test_runs_pending_jobs_in_fork_order(self, monkeypatch):
        """Jobs run grouped by golden trace, in order of first appearance,
        each group in ascending fault seq; records keep submission order."""
        jobs = self._two_benchmark_grid()
        real = campaign.execute_job
        seen = []

        def spy(spec):
            seen.append(spec)
            return real(spec)

        monkeypatch.setattr(campaign, "execute_job", spy)
        result = CampaignEngine(workers=1).run(jobs)
        assert [spec.benchmark for spec in seen] == \
            ["stream"] * 8 + ["bitcount"] * 8
        for group in (seen[:8], seen[8:]):
            seqs = [spec.fault.seq for spec in group]
            assert seqs == sorted(seqs)
        assert [record["seq"] for record in result.records] == \
            [spec.fault.seq for spec in jobs]

    def test_records_independent_of_submission_order(self):
        jobs = self._two_benchmark_grid()
        shuffled = list(jobs)
        random.Random(3).shuffle(shuffled)
        forward = CampaignEngine(workers=1).run(jobs)
        by_spec = dict(zip(forward.jobs, forward.records))
        for order in (jobs[::-1], shuffled):
            result = CampaignEngine(workers=1).run(order)
            assert result.jobs == tuple(order)
            for spec, record in zip(result.jobs, result.records):
                assert canonical_json(record) == canonical_json(by_spec[spec])

    def test_cache_persists_across_engines(self, cfg, tmp_path):
        spec = JobSpec("detection", "bitcount", "small", cfg)
        with CampaignEngine(workers=1, cache_dir=tmp_path) as engine:
            a = engine.run([spec])
        with CampaignEngine(workers=1, cache_dir=tmp_path) as engine:
            b = engine.run([spec])
        assert a.executed == 1 and b.executed == 0
        assert a.records == b.records

    def test_fault_jobs_classify(self, cfg):
        grid = fault_grid(["stream"], trials=6, scale="small", seed=0)
        records = CampaignEngine(workers=1).run(grid).typed_records()
        assert len(records) == 6
        for record in records:
            assert record.outcome in (
                "not_activated", "masked", "detected", "escaped")
            # the paper's coverage argument: nothing escapes
            assert record.outcome != "escaped"
            if record.outcome == "detected":
                assert record.detect_latency_us is not None
                assert record.first_error_segment is not None
