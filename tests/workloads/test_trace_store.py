"""Tests for the shared content-addressed golden-trace store."""

import json
import os
import struct
import sys
import time
import zlib
from dataclasses import replace as dc_replace

import pytest

import repro.workloads.suite as suite
import repro.workloads.trace_store as trace_store
from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.core.timing import config_key, time_bare
from repro.isa.executor import execute_program
from repro.isa.instructions import MASK64, Opcode
from repro.isa.memory_image import float_to_bits
from repro.isa.program import ProgramBuilder
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    benchmark_program,
    benchmark_trace,
    benchmark_trace_length,
    build_benchmark,
    configure_trace_store,
)
from repro.workloads.trace_store import (
    ENVELOPE_MAGIC,
    STALE_TEMP_TTL,
    TRACE_STORE_SCHEMA,
    TraceStore,
    _encode_envelope,
    program_fingerprint,
    sweep_stale_temps,
)

from tests.conftest import build_rmw_loop, edit_header_digit, tripwire


@pytest.fixture(autouse=True)
def isolated_store():
    """Every test starts and ends without a process-wide store, and with
    an empty per-process trace memo (other modules may have warmed it)."""
    configure_trace_store(None)
    suite._TRACE_CACHE.clear()
    yield
    configure_trace_store(None)
    suite._TRACE_CACHE.clear()


#: Envelope preamble: magic, u32 header length, u32 CRC-32 of every
#: byte after the preamble.  The header follows; the data region starts
#: at the next multiple of 8.
PREAMBLE = struct.Struct("<4sII")


def align8(n):
    return (n + 7) & ~7


def split_envelope(path):
    """(header dict, stored CRC, data region) of a binary envelope."""
    buf = path.read_bytes()
    _magic, header_len, crc = PREAMBLE.unpack_from(buf)
    header_end = PREAMBLE.size + header_len
    return (json.loads(buf[PREAMBLE.size:header_end]), crc,
            buf[align8(header_end):])


def read_header(path):
    """The decoded JSON header of a binary envelope."""
    return split_envelope(path)[0]


def patch_header(path, **changes):
    """Rewrite a binary envelope with a modified header (block offsets
    are relative to the data region, so resizing the header is safe).

    The CRC is resealed over the new header, so the reader's structural
    checks, not its checksum, meet the edit."""
    header, _crc, data = split_envelope(path)
    header.update(changes)
    header_bytes = json.dumps(header).encode()
    body = header_bytes.ljust(
        align8(PREAMBLE.size + len(header_bytes)) - PREAMBLE.size, b"\0")
    crc = zlib.crc32(data, zlib.crc32(body))
    path.write_bytes(PREAMBLE.pack(ENVELOPE_MAGIC, len(header_bytes), crc)
                     + body + data)


def write_legacy_envelope(path, schema):
    """Rewrite an envelope in the schema-3/4 layout: ``RTS3`` magic and
    a u32 header length, then a header carrying the schema and a CRC of
    the data region alone."""
    header, _crc, data = split_envelope(path)
    header.pop("timings", None)
    header.update(schema=schema, crc32=zlib.crc32(data))
    header_bytes = json.dumps(header).encode()
    preamble = b"RTS3" + struct.pack("<I", len(header_bytes))
    body = header_bytes.ljust(align8(8 + len(header_bytes)) - 8, b"\0")
    path.write_bytes(preamble + body + data)


def flip_mid_file_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


#: Ways to damage or age a stored envelope, each with how a reader
#: counts the envelope afterwards.
DAMAGES = {
    "absent": (lambda path: path.unlink(), "miss"),
    "empty": (lambda path: path.write_bytes(b""), "corrupt"),
    "garbage": (lambda path: path.write_text("{not json"), "corrupt"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:100]),
                  "corrupt"),
    "bit-flip": (flip_mid_file_bit, "corrupt"),
    "n-digit": (lambda path: edit_header_digit(
        path, "n", read_header(path)["n"]), "corrupt"),
    "row-count": (lambda path: patch_header(
        path, n=read_header(path)["n"] - 1), "corrupt"),
    "key": (lambda path: patch_header(path, key="0" * 64), "corrupt"),
    "schema": (lambda path: patch_header(path, schema=TRACE_STORE_SCHEMA + 1),
               "miss"),
    "byte-order": (lambda path: patch_header(
        path, byteorder="big" if sys.byteorder == "little" else "little"),
        "miss"),
    "legacy": (lambda path: write_legacy_envelope(path, 4), "miss"),
}


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        a = build_benchmark("stream", "small")
        b = build_benchmark("stream", "small")
        assert a is not b
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_differs_with_program_content(self):
        assert program_fingerprint(build_rmw_loop(iterations=10)) != \
            program_fingerprint(build_rmw_loop(iterations=11))

    def test_differs_with_data_image(self):
        a = build_rmw_loop(array_words=8)
        b = build_rmw_loop(array_words=16)
        assert program_fingerprint(a) != program_fingerprint(b)


class TestTraceStore:
    def test_put_get_round_trip_bit_exact(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_benchmark("blackscholes", "small")
        trace = execute_program(program)
        key = store.key("blackscholes", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program)
        assert loaded is not None
        assert list(loaded.pcs) == list(trace.pcs)
        assert loaded.dsts == trace.dsts
        assert loaded.final_xregs == trace.final_xregs
        assert [float_to_bits(v) for v in loaded.final_fregs] == \
            [float_to_bits(v) for v in trace.final_fregs]
        assert dict(loaded.memory.items()) == dict(trace.memory.items())
        assert (loaded.uop_count, loaded.load_count, loaded.store_count,
                loaded.halted, loaded.crashed, loaded.final_next_pc) == \
            (trace.uop_count, trace.load_count, trace.store_count,
             trace.halted, trace.crashed, trace.final_next_pc)

    def test_envelope_is_binary_columnar(self, tmp_path):
        """Envelopes are single binary files, magic-led, with zero-copy
        memoryview columns on load."""
        store = TraceStore(tmp_path)
        program = build_benchmark("stream", "small")
        trace = execute_program(program)
        key = store.key("stream", "small", program)
        store.put(key, trace)
        path = store._path(key)
        assert path.suffix == ".bin"
        assert path.read_bytes()[:4] == ENVELOPE_MAGIC
        loaded = store.get(key, program)
        assert isinstance(loaded.pcs, memoryview)
        assert isinstance(loaded.mem_addr, memoryview)
        # column views index as plain Python ints
        assert loaded.pcs[0] == trace.pcs[0]

    def test_envelope_carries_keyframes(self, tmp_path):
        """A loaded golden trace arrives with its state keyframes, so a
        fork-point job never rebuilds them with a full column walk."""
        store = TraceStore(tmp_path)
        program = build_benchmark("stream", "small")
        trace = execute_program(program)
        key = store.key("stream", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program)
        assert loaded._keyframes is not None
        assert loaded.keyframes() is loaded._keyframes
        original = trace.keyframes()
        assert [f.seq for f in loaded._keyframes.frames] == \
            [f.seq for f in original.frames]
        assert loaded._keyframes.to_payload() == original.to_payload()

    def test_miss_on_empty_store(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_benchmark("stream", "small")
        assert store.get(store.key("stream", "small", program),
                         program) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_corrupt_envelope_counted_logged_and_overwritten(
            self, tmp_path, caplog):
        """A present-but-garbage envelope is *not* a miss: it counts as
        corrupt, warns once per path, and a fresh put overwrites it."""
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        trace = execute_program(program)
        key = store.key("rmw", "small", program)
        store.put(key, trace)
        path = store._path(key)
        path.write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.workloads.trace_store"):
            assert store.get(key, program) is None
            assert store.get(key, program) is None
        assert store.corrupt == 2
        assert store.misses == 0
        warnings = [r for r in caplog.records
                    if "corrupt golden-trace envelope" in r.message]
        assert len(warnings) == 1, "corrupt envelopes are logged once"
        # the worker's re-derived trace overwrites the corrupt file
        store.put(key, trace)
        assert store.get(key, program) is not None

    def test_truncated_envelope_reads_as_corrupt(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(key, program) is None
        assert store.corrupt == 1

    def test_bit_flip_in_column_data_reads_as_corrupt(self, tmp_path):
        """A flipped bit *inside* a column block leaves the envelope
        structurally valid — only the data-region checksum can refuse
        to serve the silently wrong golden trace."""
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        path = store._path(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(key, program) is None
        assert store.corrupt == 1
        assert store.misses == 0

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        """Another schema generation is a *cold miss*, not corruption:
        the envelope is fine, it just belongs to an older store."""
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        patch_header(store._path(key), schema=TRACE_STORE_SCHEMA + 1)
        assert store.get(key, program) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_key_mismatch_reads_as_corrupt(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        patch_header(store._path(key), key="0" * 64)
        assert store.get(key, program) is None
        assert store.corrupt == 1

    def test_foreign_byte_order_reads_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        foreign = "big" if sys.byteorder == "little" else "little"
        patch_header(store._path(key), byteorder=foreign)
        assert store.get(key, program) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_row_count_mismatch_reads_as_corrupt(self, tmp_path):
        """A resealed header whose row count disagrees with its columns
        passes the checksum and fails the structural check behind it."""
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=5)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        header = read_header(store._path(key))
        patch_header(store._path(key), n=header["n"] - 1)
        assert store.get(key, program) is None
        assert store.corrupt == 1

    def test_key_binds_program_content(self, tmp_path):
        store = TraceStore(tmp_path)
        a = build_rmw_loop(iterations=5)
        b = build_rmw_loop(iterations=6)
        assert store.key("x", "small", a) != store.key("x", "small", b)


class TestLength:
    """``length`` answers a trace's row count from the envelope header,
    after the checks ``get`` makes and without decoding a column."""

    def test_length_reads_the_row_count_without_decoding(self, tmp_path,
                                                         monkeypatch):
        store = TraceStore(tmp_path)
        program = build_benchmark("stream", "small")
        trace = execute_program(program)
        key = store.key("stream", "small", program)
        store.put(key, trace)
        monkeypatch.setattr(trace_store, "_decode_envelope",
                            tripwire("an envelope decode"))
        reader = TraceStore(tmp_path)
        assert reader.length(key) == len(trace)
        assert (reader.hits, reader.misses, reader.corrupt) == (1, 0, 0)

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_length_refuses_what_get_refuses(self, tmp_path, damage):
        """Every damaged or aged envelope ``get`` refuses, ``length``
        refuses too, and counts the same way."""
        program = build_rmw_loop(iterations=5)
        store = TraceStore(tmp_path)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        harm, counted_as = DAMAGES[damage]
        harm(store._path(key))
        by_get, by_length = TraceStore(tmp_path), TraceStore(tmp_path)
        assert by_get.get(key, program) is None
        assert by_length.length(key) is None
        counts = (by_length.hits, by_length.misses, by_length.corrupt)
        assert counts == (by_get.hits, by_get.misses, by_get.corrupt)
        assert counts == ((0, 1, 0) if counted_as == "miss" else (0, 0, 1))


class TestIntegerWidths:
    """Pin the integer-width properties the fixed-width columns freeze."""

    def test_negative_immediates_round_trip(self, tmp_path):
        """Negative MOVI/ADDI immediates commit as masked 64-bit
        patterns, which the u64 columns carry bit-exactly."""
        b = ProgramBuilder("negimm")
        b.emit(Opcode.MOVI, rd=1, imm=-5)
        b.emit(Opcode.ADDI, rd=2, rs1=1, imm=-123)
        b.emit(Opcode.HALT)
        program = b.build()
        trace = execute_program(program)
        assert trace.final_xregs[1] == (-5) & MASK64
        store = TraceStore(tmp_path)
        key = store.key("negimm", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program)
        assert loaded.dsts == trace.dsts
        assert loaded.final_xregs == trace.final_xregs

    def test_high_addresses_round_trip(self, tmp_path):
        """Addresses at and above 2^31 (and up to 2^63) survive the
        binary memory CSR and the final-image columns."""
        hi_addr = (1 << 33) + 8
        b = ProgramBuilder("hiaddr")
        b.emit(Opcode.MOVI, rd=1, imm=hi_addr)
        b.emit(Opcode.MOVI, rd=2, imm=0xDEAD)
        b.emit(Opcode.ST, rs2=2, rs1=1, imm=0)
        b.emit(Opcode.LD, rd=3, rs1=1, imm=0)
        b.emit(Opcode.ST, rs2=2, rs1=1, imm=(1 << 30))
        b.emit(Opcode.HALT)
        program = b.build()
        trace = execute_program(program)
        assert max(trace.mem_addr) >= (1 << 33)
        store = TraceStore(tmp_path)
        key = store.key("hiaddr", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program)
        assert list(loaded.mem_addr) == list(trace.mem_addr)
        assert dict(loaded.memory.items()) == dict(trace.memory.items())
        assert loaded.final_xregs[3] == 0xDEAD

    def test_mem_off_monotone_over_memoryless_rows(self, tmp_path):
        """Rows with no memory operations repeat the previous offset:
        the CSR stays monotone (non-decreasing) and round-trips."""
        b = ProgramBuilder("gaps")
        b.emit(Opcode.MOVI, rd=1, imm=64)
        b.emit(Opcode.MOVI, rd=2, imm=1)
        b.emit(Opcode.ST, rs2=2, rs1=1, imm=0)
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)   # no memory traffic
        b.emit(Opcode.ADDI, rd=2, rs1=2, imm=1)   # no memory traffic
        b.emit(Opcode.ST, rs2=2, rs1=1, imm=8)
        b.emit(Opcode.HALT)
        program = b.build()
        trace = execute_program(program)
        offs = list(trace.mem_off)
        assert len(offs) == len(trace) + 1
        assert all(a <= b for a, b in zip(offs, offs[1:]))
        assert offs != sorted(set(offs)), "memoryless rows repeat offsets"
        store = TraceStore(tmp_path)
        key = store.key("gaps", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program)
        assert list(loaded.mem_off) == offs
        lo, hi = loaded.mem_off[3], loaded.mem_off[4]
        assert lo == hi, "HALT-adjacent ALU row stays empty"

    def test_out_of_range_value_fails_loudly(self, tmp_path):
        """A value that cannot fit its fixed-width column must raise at
        write time, never truncate silently into a wrong-but-valid
        envelope."""
        program = build_rmw_loop(iterations=3)
        store = TraceStore(tmp_path)
        key = store.key("rmw", "small", program)
        bad = execute_program(program)
        bad.dsts[0] = ((False, 1, -1),)  # bypasses commit masking
        with pytest.raises(OverflowError):
            store.put(key, bad)


class TestTimingSections:
    """Golden timing rides the envelope header: one ``CoreResult`` per
    configuration key, under the same CRC as the trace columns."""

    @staticmethod
    def stored(tmp_path, benchmark="stream"):
        store = TraceStore(tmp_path)
        program = build_benchmark(benchmark, "small")
        trace = execute_program(program)
        key = store.key(benchmark, "small", program)
        store.put(key, trace)
        config = default_config()
        result = time_bare(trace, config)
        return store, program, trace, key, config_key(config), result

    def test_envelope_layout(self, tmp_path):
        """A schema-5 envelope: the ``RTS5`` preamble's CRC covers the
        header and the data region, the block table names trace columns
        only, and a timing section is the nine ``CoreResult`` scalars."""
        store, program, trace, key, ck, result = self.stored(tmp_path)
        buf = store._path(key).read_bytes()
        magic, _header_len, crc = PREAMBLE.unpack_from(buf)
        assert magic == ENVELOPE_MAGIC == b"RTS5"
        assert crc == zlib.crc32(buf[PREAMBLE.size:])
        header = read_header(store._path(key))
        assert header["schema"] == TRACE_STORE_SCHEMA == 5
        assert "crc32" not in header
        assert not [name for name in header["blocks"]
                    if name.startswith("tm_")]
        assert header["timings"] == {ck: vars(result)}

    def test_timing_round_trip_two_configs(self, tmp_path):
        """A second configuration's result joins, not replaces, the
        first's, and both come back from a fresh store equal."""
        store, program, trace, key, ck, result = self.stored(tmp_path)
        cfg = default_config()
        other = dc_replace(cfg, main_core=dc_replace(cfg.main_core,
                                                     fetch_width=1))
        other_result = time_bare(trace, other)
        assert other_result != result
        assert store.timing_writes == 2
        loaded = TraceStore(tmp_path).get(key, program)
        assert loaded.timings == {ck: result,
                                  config_key(other): other_result}

    def test_warm_store_serves_timing_without_rerun(self, tmp_path,
                                                    monkeypatch):
        """A fresh worker reading a warm envelope must serve cached
        timing instead of re-running the OoO model."""
        store, program, trace, key, ck, result = self.stored(tmp_path)
        fresh = TraceStore(tmp_path)
        loaded = fresh.get(key, program)

        def tripwire(self, *args, **kwargs):
            raise AssertionError("golden timing was re-derived")

        monkeypatch.setattr(OoOCore, "run", tripwire)
        monkeypatch.setattr(OoOCore, "run_rows", tripwire)
        served = time_bare(loaded, default_config())
        assert served == result

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_time_bare_warm_equals_cold(self, tmp_path, name):
        store, program, trace, key, ck, result = self.stored(tmp_path, name)
        cold = time_bare(execute_program(program), default_config())
        warm = time_bare(TraceStore(tmp_path).get(key, program),
                         default_config())
        assert cold == warm == result

    def test_header_digit_edit_reads_as_corrupt(self, tmp_path):
        """The CRC covers the header: a same-length edit of one digit of
        a timing section's ``cycles`` must refuse the envelope, never
        serve a wrong baseline."""
        store, program, trace, key, ck, result = self.stored(tmp_path)
        path = store._path(key)
        buf = path.read_bytes()
        digits = str(result.cycles)
        edited = str(int(digits[0]) % 9 + 1) + digits[1:]
        field = f'"cycles":{digits}'.encode()
        assert buf.count(field) == 1
        path.write_bytes(buf.replace(field, f'"cycles":{edited}'.encode()))
        reopened = TraceStore(tmp_path)
        assert reopened.get(key, program) is None
        assert reopened.corrupt == 1
        assert reopened.misses == 0

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_put_timing_rewrites_the_header_only(self, tmp_path, name,
                                                 monkeypatch):
        """Publishing a timing result keeps the stored data region and
        writes a new header in front of it, and the envelope equals a
        full encoding of the trace with the merged timings, byte for
        byte (with a first and with a second configuration)."""
        store = TraceStore(tmp_path)
        program = build_benchmark(name, "small")
        trace = execute_program(program)
        key = store.key(name, "small", program)
        store.put(key, trace)
        cfg = default_config()
        other = dc_replace(cfg, main_core=dc_replace(cfg.main_core,
                                                     fetch_width=1))
        for config in (cfg, other):
            with monkeypatch.context() as patched:
                patched.setattr(trace_store, "_encode_envelope",
                                tripwire("a full envelope encode"))
                time_bare(trace, config)
            assert store._path(key).read_bytes() == \
                _encode_envelope(key, trace, trace.timings)
        assert set(trace.timings) == {config_key(cfg), config_key(other)}
        assert store.timing_writes == 2

    @pytest.mark.parametrize("damage", ["absent", "bit-flip", "legacy"])
    def test_put_timing_encodes_afresh_over_an_unusable_envelope(
            self, tmp_path, damage):
        """A missing, damaged or legacy envelope lends no data region:
        the trace is encoded in full, so damage is never resealed."""
        store = TraceStore(tmp_path)
        program = build_benchmark("stream", "small")
        trace = execute_program(program)
        key = store.key("stream", "small", program)
        store.put(key, trace)
        DAMAGES[damage][0](store._path(key))
        result = time_bare(trace, default_config())
        assert store._path(key).read_bytes() == \
            _encode_envelope(key, trace, trace.timings)
        loaded = TraceStore(tmp_path).get(key, program)
        assert loaded.timings == {config_key(default_config()): result}

    @pytest.mark.parametrize("schema", [3, 4])
    def test_legacy_envelope_reads_as_miss_and_is_overwritten(
            self, tmp_path, schema):
        """Schema-3/4 envelopes share their paths with schema 5: one
        reads as a miss, never as corrupt, and the next put replaces it
        at the same path."""
        store, program, trace, key, ck, result = self.stored(tmp_path)
        path = store._path(key)
        write_legacy_envelope(path, schema)
        reopened = TraceStore(tmp_path)
        assert reopened.get(key, program) is None
        assert (reopened.misses, reopened.corrupt) == (1, 0)
        reopened.put(key, trace)
        assert list(path.parent.iterdir()) == [path]
        assert path.read_bytes()[:4] == ENVELOPE_MAGIC
        loaded = reopened.get(key, program)
        assert loaded is not None
        assert loaded.timings == {ck: result}


class TestStaleTempSweep:
    def test_init_sweeps_only_stale_temps(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_rmw_loop(iterations=3)
        key = store.key("rmw", "small", program)
        store.put(key, execute_program(program))
        bucket = store._path(key).parent
        stale = bucket / f"{key}.tmp.999-deadbeef"
        stale.write_bytes(b"partial write from a killed worker")
        old = time.time() - STALE_TEMP_TTL - 60
        os.utime(stale, (old, old))
        fresh = bucket / f"{key}.tmp.999-cafecafe"
        fresh.write_bytes(b"in-flight write")
        reopened = TraceStore(tmp_path)
        assert reopened.stale_temps_swept == 1
        assert not stale.exists()
        assert fresh.exists(), "fresh temps belong to live writers"
        assert store._path(key).exists(), "real envelopes are untouched"
        assert reopened.get(key, program) is not None

    def test_sweep_helper_handles_missing_root(self, tmp_path):
        assert sweep_stale_temps(tmp_path / "never-created") == 0


class TestSuiteWiring:
    def test_benchmark_trace_publishes_to_store(self, tmp_path):
        store = configure_trace_store(tmp_path / "traces")
        trace = benchmark_trace("stream", "small")
        assert store.writes == 1
        assert len(trace) > 0
        # the in-process memo serves repeats without touching the store
        assert benchmark_trace("stream", "small") is trace
        assert store.hits == 0

    def test_fresh_process_forks_stored_trace(self, tmp_path, monkeypatch):
        """With a warm store, a worker that lost its memo (a fresh
        process) must load the golden trace instead of re-executing."""
        root = tmp_path / "traces"
        configure_trace_store(root)
        original = benchmark_trace("stream", "small")
        # simulate a fresh worker: same store, empty memo, and a tripwire
        # that fails the test if the clean execution re-runs
        configure_trace_store(None)
        store = configure_trace_store(root)

        def tripwire(program, *args, **kwargs):
            raise AssertionError("clean trace was re-executed")

        monkeypatch.setattr(suite, "execute_program", tripwire)
        forked = benchmark_trace("stream", "small")
        assert store.hits == 1
        assert forked is not original
        assert list(forked.pcs) == list(original.pcs)
        assert forked.final_xregs == original.final_xregs
        # the forked trace rides the in-process shared program object
        assert forked.program is benchmark_program("stream", "small")

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_trace_length_from_miss_memo_and_store(self, tmp_path, name,
                                                   monkeypatch):
        """``benchmark_trace_length`` equals ``len(benchmark_trace(...))``
        on a miss (which executes, publishes and memoises the trace,
        looking the envelope up once), from the memo, and from a warm
        store (which decodes nothing)."""
        root = tmp_path / "traces"
        store = configure_trace_store(root)
        length = benchmark_trace_length(name, "small")
        assert (store.hits, store.misses, store.writes) == (0, 1, 1)
        trace = benchmark_trace(name, "small")
        assert length == len(trace)
        assert benchmark_trace_length(name, "small") == len(trace)
        assert (store.hits, store.misses, store.writes) == (0, 1, 1)

        configure_trace_store(None)
        store = configure_trace_store(root)
        monkeypatch.setattr(trace_store, "_decode_envelope",
                            tripwire("an envelope decode"))
        monkeypatch.setattr(suite, "execute_program",
                            tripwire("a clean execution"))
        assert benchmark_trace_length(name, "small") == len(trace)
        assert (store.hits, store.misses, store.writes) == (1, 0, 0)
        assert len(execute_program(build_benchmark(name, "small"))) == \
            len(trace)

    def test_trace_length_without_a_store(self):
        assert benchmark_trace_length("stream", "small") == \
            len(benchmark_trace("stream", "small"))

    def test_store_swap_drops_process_memo(self, tmp_path):
        configure_trace_store(tmp_path / "a")
        first = benchmark_trace("stream", "small")
        configure_trace_store(tmp_path / "b")
        second = benchmark_trace("stream", "small")
        assert first is not second
        assert list(first.pcs) == list(second.pcs)
