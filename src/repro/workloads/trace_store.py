"""The shared golden-trace store: content-addressed clean executions.

Every campaign job over a benchmark needs its *clean* committed trace —
timing jobs re-time it, fault jobs compare the faulty run against it and
re-execute its program, recovery jobs judge their re-executions by
it.  The functional execution that produces it is a pure function of the
built program, so it is worth computing exactly once per (benchmark,
scale, program-content) **across all worker processes and hosts**, not
once per process.

This module stores golden traces on disk next to the campaign run cache,
content-addressed like it::

    <root>/<key[:2]>/<key>.bin       binary columnar envelopes (schema 5)

where the key hashes the benchmark name, scale, the store schema, and a
**fingerprint of the built program** (opcodes, operands, data image,
entry point) — so a changed workload generator can never serve a stale
trace.

Envelopes are **binary columnar**: one memory-mappable file per trace.
A fixed preamble (magic, header length, and a CRC-32 of everything
after the preamble) leads a small JSON header (scalars, register
files, a block offset table, golden timing) followed by 8-byte-aligned
fixed-width column blocks —
``pcs``/``takens``, the CSR memory block (``mem_off`` +
``mem_kind/addr/value/used``), the writeback CSR (``dst_*``), the final
memory image, and the keyframe delta tables.  All FP values are stored
as IEEE-754 bit patterns, so a round trip is bit-exact and a campaign
fed from the store is byte-identical to one that re-executed every
clean trace.  Loading maps the file read-only and exposes the numeric
columns as zero-copy memoryviews over the mapping: workers on one host
share the page cache instead of each re-parsing JSON, and whole-column
operations (a forked run's golden prefix, fork-state replay) slice the
mapped columns directly.

The header also carries the **golden timing** of the trace: one
:class:`~repro.core.ooo_core.CoreResult` per system configuration that
has timed it (see ``repro.core.timing``), nine scalars each, under the
same CRC as the columns.  :meth:`TraceStore.put_timing` publishes one
more by writing a new header in front of the stored data region.

A caller that needs only a trace's row count (a fault grid sizing its
fault positions) asks :meth:`TraceStore.length`, which checks the
envelope as :meth:`TraceStore.get` does and reads the count from its
header without decoding a column.

Envelopes from earlier schemas are never converted.  The JSON-era ones
(schema 2 and before) live under other keys and are simply ignored;
binary schema-3/4 envelopes share their paths with schema 5 and read
as misses, so the next :meth:`TraceStore.put` overwrites them in place.

Workers *fork* the stored trace rather than re-running it: the trace's
program (rebuilt deterministically in-process) supplies a fresh
:meth:`~repro.isa.program.Program.initial_memory` image for faulty
re-executions, and the columns themselves are immutable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import struct
import sys
import time
import uuid
import zlib
from array import array
from pathlib import Path

from repro.common.records import canonical_json
from repro.core.ooo_core import CoreResult
from repro.isa.executor import Keyframe, Keyframes, Trace
from repro.isa.memory_image import MemoryImage, bits_to_float, float_to_bits
from repro.isa.program import Program

logger = logging.getLogger(__name__)

#: Bump whenever the trace payload layout or execution semantics change:
#: mismatched envelopes read as misses and are re-executed, never as
#: silently stale traces.  v2: envelopes carry periodic state keyframes
#: (:class:`repro.isa.executor.Keyframes`).  v3: binary columnar
#: envelopes (one memory-mappable ``.bin`` file per trace; zero-copy
#: column views; FP values as IEEE-754 bit patterns).  v4: per-config
#: golden timing sections (per-row timing columns plus the run's
#: :class:`~repro.core.ooo_core.CoreResult`).  v5: a timing section is
#: the ``CoreResult`` scalars alone, in the header, and the CRC-32 moves
#: into the preamble and covers the header as well as the data.  This
#: reader accepts v5 only.
TRACE_STORE_SCHEMA = 5

#: Schema generation folded into store *keys* — deliberately still 3:
#: v4 and v5 keep the trace columns and execution semantics of v3, so
#: a store's envelopes keep their paths, and a v3/v4 file found there
#: reads as a miss and is overwritten by the next put.
KEY_SCHEMA = 3

#: Leading magic of a schema-5 envelope file.
ENVELOPE_MAGIC = b"RTS5"

#: Leading magic of the schema-3/4 layout (header CRC-free): a miss.
_LEGACY_MAGIC = b"RTS3"

#: Preamble of a schema-5 envelope: magic, u32 header length, u32 CRC-32
#: of every byte after the preamble (header, padding and data region).
_PREAMBLE = struct.Struct("<4sII")

#: Age (seconds) past which a stranded ``*.tmp.*`` file — a writer
#: killed between writing its temp file and the atomic rename — is
#: swept at store/cache init.  Matches the orchestrator's default lease
#: TTL: anything older cannot belong to a live, leased writer.
STALE_TEMP_TTL = 300.0


def sweep_stale_temps(root: str | os.PathLike,
                      ttl: float = STALE_TEMP_TTL) -> int:
    """Delete crash-stranded ``<root>/*/xx.tmp.suffix`` files older than
    ``ttl`` seconds, returning how many were removed.

    Atomic-write discipline (temp file + ``os.replace``) means a temp
    file's only legitimate lifetime is the instant between write and
    rename; anything old enough to outlive a lease is a leak from a
    killed writer.  Races are harmless: a concurrent sweeper or the
    original writer finishing first just makes the unlink a no-op.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    cutoff = time.time() - ttl
    swept = 0
    for tmp in root.glob("*/*.tmp.*"):
        try:
            if tmp.stat().st_mtime <= cutoff:
                tmp.unlink()
                swept += 1
        except OSError:  # vanished mid-sweep (another sweeper/writer won)
            continue
    return swept


def program_fingerprint(program: Program) -> str:
    """Content hash of a built program (code + data image + entry).

    FP immediates hash by bit pattern so two programs differing only in
    a NaN payload or signed zero fingerprint differently.
    """
    instructions = []
    for instr in program.instructions:
        imm = instr.imm
        if isinstance(imm, float):
            imm = ["f", float_to_bits(imm)]
        instructions.append([
            instr.op.value, instr.rd, instr.rs1, instr.rs2, instr.rs3,
            instr.rd2, imm, instr.target,
        ])
    payload = {
        "entry": program.entry,
        "instructions": instructions,
        "data": sorted(program.data.items()),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class _CorruptEnvelope(ValueError):
    """A present-but-unusable envelope (truncated, bad magic, garbage)."""


class _SchemaMismatch(ValueError):
    """A well-formed envelope of another schema generation (cold miss)."""


#: What reading an envelope raises when the file is absent or
#: unreadable, of another schema generation, or damaged (the two
#: classes above derive from ``ValueError``).
_UNUSABLE = (OSError, KeyError, IndexError, TypeError, ValueError,
             OverflowError, struct.error)


#: Column blocks of an envelope, in file order, with their
#: ``array`` typecodes.  Every block is fixed-width and 8-byte-aligned;
#: integer widths are pinned here once (u64 data, i8 kinds/takens, u8
#: register indices) — values that do not fit fail the write loudly
#: (``OverflowError``) instead of truncating.
_BLOCKS = (
    ("pcs", "Q"), ("takens", "b"),
    ("mem_off", "Q"), ("mem_kind", "b"), ("mem_addr", "Q"),
    ("mem_value", "Q"), ("mem_used", "Q"),
    ("dst_off", "Q"), ("dst_isfp", "B"), ("dst_idx", "B"), ("dst_bits", "Q"),
    ("img_addr", "Q"), ("img_value", "Q"),
    ("kf_seq", "Q"), ("kf_uops", "Q"), ("kf_loads", "Q"), ("kf_stores", "Q"),
    ("kf_x_off", "Q"), ("kf_x_idx", "B"), ("kf_x_val", "Q"),
    ("kf_f_off", "Q"), ("kf_f_idx", "B"), ("kf_f_bits", "Q"),
    ("kf_m_off", "Q"), ("kf_m_addr", "Q"), ("kf_m_val", "Q"),
)

#: CoreResult scalars of one golden timing section, carried verbatim in
#: the header under the configuration's key.
_TIMING_RESULT_FIELDS = (
    "cycles", "instructions", "uops", "system_cycles", "branch_lookups",
    "branch_mispredicts", "l1d_misses", "l2_misses", "commit_stall_cycles",
)

_TYPECODES = dict(_BLOCKS)

_ITEMSIZE = {"Q": 8, "b": 1, "B": 1}


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _encode_envelope(key: str, trace: Trace,
                     timings: dict | None = None) -> bytes:
    """Serialise one golden trace (plus keyframes, plus any golden
    timing results keyed by configuration) as a schema-5 blob."""
    kf = trace.keyframes()
    n = len(trace)

    # writeback CSR: FP values frozen to bit patterns, int values are
    # already masked 64-bit patterns — array('Q') rejects anything else
    dst_off = array("Q", [0])
    dst_isfp = array("B")
    dst_idx = array("B")
    dst_bits = array("Q")
    total = 0
    for row in trace.dsts:
        for is_fp, idx, value in row:
            dst_isfp.append(1 if is_fp else 0)
            dst_idx.append(idx)
            dst_bits.append(float_to_bits(value) if is_fp else value)
        total += len(row)
        dst_off.append(total)

    img = sorted(trace.memory.items())

    # keyframe delta tables as CSR columns (sorted within each frame for
    # byte-stable files; delta dicts are order-insensitive on read)
    kf_seq = array("Q", (f.seq for f in kf.frames))
    kf_uops = array("Q", (f.uops for f in kf.frames))
    kf_loads = array("Q", (f.loads for f in kf.frames))
    kf_stores = array("Q", (f.stores for f in kf.frames))
    kf_x_off = array("Q", [0])
    kf_x_idx = array("B")
    kf_x_val = array("Q")
    kf_f_off = array("Q", [0])
    kf_f_idx = array("B")
    kf_f_bits = array("Q")
    kf_m_off = array("Q", [0])
    kf_m_addr = array("Q")
    kf_m_val = array("Q")
    for frame in kf.frames:
        for idx, value in sorted(frame.xregs.items()):
            kf_x_idx.append(idx)
            kf_x_val.append(value)
        kf_x_off.append(len(kf_x_idx))
        for idx, value in sorted(frame.fregs.items()):
            kf_f_idx.append(idx)
            kf_f_bits.append(float_to_bits(value))
        kf_f_off.append(len(kf_f_idx))
        for addr, value in sorted(frame.mem.items()):
            kf_m_addr.append(addr)
            kf_m_val.append(value)
        kf_m_off.append(len(kf_m_addr))

    columns = {
        "pcs": trace.pcs if isinstance(trace.pcs, array)
        else array("Q", trace.pcs),
        "takens": trace.takens if isinstance(trace.takens, array)
        else array("b", trace.takens),
        "mem_off": trace.mem_off if isinstance(trace.mem_off, array)
        else array("Q", trace.mem_off),
        "mem_kind": trace.mem_kind if isinstance(trace.mem_kind, array)
        else array("b", trace.mem_kind),
        "mem_addr": trace.mem_addr if isinstance(trace.mem_addr, array)
        else array("Q", trace.mem_addr),
        "mem_value": trace.mem_value if isinstance(trace.mem_value, array)
        else array("Q", trace.mem_value),
        "mem_used": trace.mem_used if isinstance(trace.mem_used, array)
        else array("Q", trace.mem_used),
        "dst_off": dst_off, "dst_isfp": dst_isfp, "dst_idx": dst_idx,
        "dst_bits": dst_bits,
        "img_addr": array("Q", (a for a, _ in img)),
        "img_value": array("Q", (v for _, v in img)),
        "kf_seq": kf_seq, "kf_uops": kf_uops, "kf_loads": kf_loads,
        "kf_stores": kf_stores,
        "kf_x_off": kf_x_off, "kf_x_idx": kf_x_idx, "kf_x_val": kf_x_val,
        "kf_f_off": kf_f_off, "kf_f_idx": kf_f_idx, "kf_f_bits": kf_f_bits,
        "kf_m_off": kf_m_off, "kf_m_addr": kf_m_addr, "kf_m_val": kf_m_val,
    }

    blocks: dict[str, list[int]] = {}
    blobs: list[tuple[int, bytes]] = []
    offset = 0
    for name, _code in _BLOCKS:
        col = columns[name]
        data = bytes(col)
        offset = _align8(offset)
        blocks[name] = [offset, len(col)]
        blobs.append((offset, data))
        offset += len(data)

    region = bytearray(_align8(offset))
    for off, data in blobs:
        region[off:off + len(data)] = data

    header = {
        "key": key,
        "schema": TRACE_STORE_SCHEMA,
        "byteorder": sys.byteorder,
        "n": n,
        "final_next_pc": trace.final_next_pc,
        "final_xregs": list(trace.final_xregs),
        "final_fregs": [float_to_bits(v) for v in trace.final_fregs],
        "halted": trace.halted,
        "crashed": trace.crashed,
        "uop_count": trace.uop_count,
        "load_count": trace.load_count,
        "store_count": trace.store_count,
        "kf_interval": kf.interval,
        "blocks": blocks,
    }
    return _seal(header, region, timings)


def _seal(header: dict, region, timings: dict | None) -> bytes:
    """The envelope bytes of ``header``, its timing section set to
    ``timings``, over the data region ``region``."""
    header.pop("timings", None)
    if timings:
        header["timings"] = {
            config_key: {field: getattr(result, field)
                         for field in _TIMING_RESULT_FIELDS}
            for config_key, result in timings.items()}
    header_bytes = canonical_json(header).encode()
    # header plus the zero padding that 8-aligns the data region
    body = header_bytes.ljust(
        _align8(_PREAMBLE.size + len(header_bytes)) - _PREAMBLE.size, b"\0")
    crc = zlib.crc32(region, zlib.crc32(body))
    return b"".join(
        (_PREAMBLE.pack(ENVELOPE_MAGIC, len(header_bytes), crc), body, region))


def _checked_header(view: memoryview, key: str) -> tuple[dict, int]:
    """(header dict, data-region start) of ``key``'s envelope once its
    preamble, schema, key, byte order and CRC-32 pass; raises
    :class:`_SchemaMismatch` on a well-formed envelope this reader must
    not use and :class:`_CorruptEnvelope` on anything else."""
    if bytes(view[:4]) == _LEGACY_MAGIC:
        raise _SchemaMismatch("schema-3/4 envelope layout")
    if len(view) < _PREAMBLE.size or bytes(view[:4]) != ENVELOPE_MAGIC:
        raise _CorruptEnvelope("bad envelope magic")
    _magic, header_len, crc = _PREAMBLE.unpack_from(view)
    header_end = _PREAMBLE.size + header_len
    if header_end > len(view):
        raise _CorruptEnvelope("truncated envelope header")
    try:
        header = json.loads(bytes(view[_PREAMBLE.size:header_end]).decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise _CorruptEnvelope(f"unparseable envelope header: {error}")
    if not isinstance(header, dict):
        raise _CorruptEnvelope("envelope header is not an object")
    if header.get("schema") != TRACE_STORE_SCHEMA:
        raise _SchemaMismatch(f"envelope schema {header.get('schema')!r}")
    if header.get("key") != key:
        raise _CorruptEnvelope("envelope key does not match its path")
    if header.get("byteorder") != sys.byteorder:
        # written on a foreign-endian host: valid but unusable here —
        # treated like a miss so this worker overwrites it natively
        raise _SchemaMismatch("foreign byte order")
    if zlib.crc32(view[_PREAMBLE.size:]) != crc:
        # structural checks cannot see a flipped bit inside a column or
        # a same-length edit of a header value (a timing result, a final
        # register, the row count) — only the checksum catches those
        raise _CorruptEnvelope("envelope checksum mismatch")
    return header, _align8(header_end)


def _block(view: memoryview, header: dict, data_start: int,
           name: str) -> memoryview:
    """Column block ``name`` of a checked envelope, as a typed view."""
    code = _TYPECODES[name]
    off, count = header["blocks"][name]
    start = data_start + off
    end = start + count * _ITEMSIZE[code]
    if not 0 <= start <= end <= len(view):
        raise _CorruptEnvelope(f"block {name!r} exceeds the envelope")
    return view[start:end].cast(code)


def _envelope_length(buf, key: str) -> int:
    """The row count of one mapped envelope, read from its checked
    header; nothing past the header is decoded."""
    view = memoryview(buf)
    header, data_start = _checked_header(view, key)
    n = int(header["n"])
    if len(_block(view, header, data_start, "pcs")) != n:
        raise _CorruptEnvelope("row columns disagree with the header")
    return n


def _retimed_envelope(buf, key: str, timings: dict) -> bytes:
    """One mapped envelope's bytes with its timing section set to
    ``timings``: a new header in front of the stored data region, which
    is copied, not re-encoded."""
    view = memoryview(buf)
    header, data_start = _checked_header(view, key)
    return _seal(header, view[data_start:], timings)


def _decode_envelope(buf, key: str, program: Program) -> Trace:
    """Rebuild a trace (with keyframes and golden timing) over
    ``program`` from one mapped schema-5 envelope.  Numeric columns come
    back as zero-copy memoryviews over ``buf``; ragged structures
    (writeback rows, keyframe deltas) are decoded eagerly into their
    in-process shapes.
    """
    view = memoryview(buf)
    header, data_start = _checked_header(view, key)

    def column(name):
        return _block(view, header, data_start, name)

    n = int(header["n"])
    pcs = column("pcs")
    takens = column("takens")
    mem_off = column("mem_off")
    if len(pcs) != n or len(takens) != n or len(mem_off) != n + 1:
        raise _CorruptEnvelope("row columns disagree with the header")
    entries = mem_off[n] if n >= 0 else 0
    mem_kind = column("mem_kind")
    mem_addr = column("mem_addr")
    mem_value = column("mem_value")
    mem_used = column("mem_used")
    if not (len(mem_kind) == len(mem_addr) == len(mem_value)
            == len(mem_used) == entries):
        raise _CorruptEnvelope("memory CSR columns disagree with mem_off")

    dst_off = column("dst_off").tolist()
    if len(dst_off) != n + 1:
        raise _CorruptEnvelope("writeback CSR disagrees with the header")
    dst_isfp = column("dst_isfp").tolist()
    dst_idx = column("dst_idx").tolist()
    dst_bits = column("dst_bits").tolist()
    dsts: list[tuple] = []
    for i in range(n):
        lo, hi = dst_off[i], dst_off[i + 1]
        if lo == hi:
            dsts.append(())
        else:
            dsts.append(tuple(
                (True, dst_idx[j], bits_to_float(dst_bits[j]))
                if dst_isfp[j] else (False, dst_idx[j], dst_bits[j])
                for j in range(lo, hi)))

    memory = MemoryImage()
    for addr, value in zip(column("img_addr").tolist(),
                           column("img_value").tolist()):
        memory.store(addr, value)

    trace = Trace(
        program,
        pcs=pcs,
        dsts=dsts,
        takens=takens,
        mem_off=mem_off,
        mem_kind=mem_kind,
        mem_addr=mem_addr,
        mem_value=mem_value,
        mem_used=mem_used,
        final_next_pc=int(header["final_next_pc"]),
        final_xregs=[int(v) for v in header["final_xregs"]],
        final_fregs=[bits_to_float(int(v)) for v in header["final_fregs"]],
        memory=memory,
        halted=bool(header["halted"]),
        uop_count=int(header["uop_count"]),
        load_count=int(header["load_count"]),
        store_count=int(header["store_count"]),
        crashed=bool(header["crashed"]),
    )

    kf_seq = column("kf_seq").tolist()
    kf_uops = column("kf_uops").tolist()
    kf_loads = column("kf_loads").tolist()
    kf_stores = column("kf_stores").tolist()
    kf_x_off = column("kf_x_off").tolist()
    kf_x_idx = column("kf_x_idx").tolist()
    kf_x_val = column("kf_x_val").tolist()
    kf_f_off = column("kf_f_off").tolist()
    kf_f_idx = column("kf_f_idx").tolist()
    kf_f_bits = column("kf_f_bits").tolist()
    kf_m_off = column("kf_m_off").tolist()
    kf_m_addr = column("kf_m_addr").tolist()
    kf_m_val = column("kf_m_val").tolist()
    count = len(kf_seq)
    if not (len(kf_x_off) == len(kf_f_off) == len(kf_m_off) == count + 1
            and len(kf_uops) == len(kf_loads) == len(kf_stores) == count):
        raise _CorruptEnvelope("keyframe tables disagree with each other")
    frames = []
    for k in range(count):
        frames.append(Keyframe(
            kf_seq[k],
            dict(zip(kf_x_idx[kf_x_off[k]:kf_x_off[k + 1]],
                     kf_x_val[kf_x_off[k]:kf_x_off[k + 1]])),
            {idx: bits_to_float(bits) for idx, bits in
             zip(kf_f_idx[kf_f_off[k]:kf_f_off[k + 1]],
                 kf_f_bits[kf_f_off[k]:kf_f_off[k + 1]])},
            dict(zip(kf_m_addr[kf_m_off[k]:kf_m_off[k + 1]],
                     kf_m_val[kf_m_off[k]:kf_m_off[k + 1]])),
            kf_uops[k], kf_loads[k], kf_stores[k]))
    trace._keyframes = Keyframes(int(header["kf_interval"]), tuple(frames))

    for config_key, section in (header.get("timings") or {}).items():
        trace.timings[str(config_key)] = CoreResult(
            **{field: int(section[field]) for field in _TIMING_RESULT_FIELDS})
    return trace


class TraceStore:
    """Content-addressed on-disk store of golden (clean) traces.

    Mirrors the run cache's layout and crash discipline: binary
    envelopes written atomically (temp file + rename).  A *missing*
    envelope and an envelope from another schema generation read as
    misses; a *present-but-unusable* one (truncated, bad magic, garbage
    bytes, a failed checksum) is counted separately as
    ``corrupt``, logged once per path,
    and overwritten by the worker's fresh execution exactly like a miss
    — a corrupt envelope can delay a campaign, never wedge it.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: present-but-unusable envelopes encountered (each also returns
        #: None from :meth:`get`, so the caller re-executes + overwrites)
        self.corrupt = 0
        self.writes = 0
        #: golden timing results published into existing envelopes
        self.timing_writes = 0
        #: crash-stranded temp files removed at init
        self.stale_temps_swept = sweep_stale_temps(self.root)
        self._corrupt_logged: set[str] = set()

    def key(self, benchmark: str, scale: str, program: Program) -> str:
        """The store key of one benchmark's golden trace."""
        description = {
            "schema": KEY_SCHEMA,
            "benchmark": benchmark,
            "scale": scale,
            "program": program_fingerprint(program),
        }
        return hashlib.sha256(
            canonical_json(description).encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def _note_corrupt(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        name = str(path)
        if name not in self._corrupt_logged:
            self._corrupt_logged.add(name)
            logger.warning(
                "corrupt golden-trace envelope %s (%s); "
                "it will be re-derived and overwritten", name, reason)

    def _mapped(self, key: str) -> mmap.mmap:
        """A read-only mapping of ``key``'s envelope file (raises
        ``FileNotFoundError`` when there is none)."""
        with open(self._path(key), "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def _read(self, key: str, decode):
        """``decode(mapping)`` of ``key``'s envelope, counted as a hit;
        None, counted as a miss or as corrupt, when the envelope is
        absent, of another schema generation, or unusable."""
        try:
            value = decode(self._mapped(key))
        except (FileNotFoundError, _SchemaMismatch):
            self.misses += 1
            return None
        except _UNUSABLE as error:
            self._note_corrupt(self._path(key), str(error))
            return None
        self.hits += 1
        return value

    def get(self, key: str, program: Program) -> Trace | None:
        """The stored golden trace for ``key``, rebuilt over ``program``
        (the in-process program object the caller already built).

        The envelope file is memory-mapped read-only; the returned
        trace's numeric columns are zero-copy views over that mapping
        (the mapping lives exactly as long as the views referencing it).
        """
        trace = self._read(
            key, lambda mapped: _decode_envelope(mapped, key, program))
        if trace is not None:
            trace.store_ref = (self, key)
        return trace

    def length(self, key: str) -> int | None:
        """The row count of the stored golden trace for ``key``, read
        from its envelope header once the checks :meth:`get` makes
        before decoding pass (preamble, schema, key, byte order, CRC-32)
        and the ``pcs`` block holds that many rows; no column is
        decoded.  None, counted as :meth:`get` counts it, when there is
        no usable envelope."""
        return self._read(key, lambda mapped: _envelope_length(mapped, key))

    def _write(self, key: str, envelope: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # concurrent same-key writers (two workers racing on a cold
        # store) must not trample each other's temp files
        tmp = path.with_suffix(f".tmp.{os.getpid()}-{uuid.uuid4().hex[:8]}")
        tmp.write_bytes(envelope)
        os.replace(tmp, path)

    def put(self, key: str, trace: Trace) -> None:
        self._write(key, _encode_envelope(key, trace, trace.timings))
        self.writes += 1
        trace.store_ref = (self, key)

    def put_timing(self, key: str, trace: Trace, config_key: str,
                   result: CoreResult) -> None:
        """Publish one golden timing result into ``key``'s envelope.

        The new envelope carries every timing result the trace carries
        (including ``result``) and replaces the file atomically.  When
        the stored envelope passes :meth:`get`'s checks, its data region
        is kept and only the header is rewritten; otherwise the trace is
        encoded afresh.  Two workers racing on different configurations
        last-write-win — the loser's result is simply re-derived and
        re-published by the next campaign that needs it, exactly like a
        cold store.
        """
        merged = dict(trace.timings)
        merged[config_key] = result
        try:
            envelope = _retimed_envelope(self._mapped(key), key, merged)
        except _UNUSABLE:
            envelope = _encode_envelope(key, trace, merged)
        self._write(key, envelope)
        self.timing_writes += 1
