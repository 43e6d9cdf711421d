"""Block-compiled execution: basic-block fusion with generated code.

The per-instruction step loop in :mod:`repro.isa.executor` pays dispatch,
commit bookkeeping, and trace-column appends once per dynamic
instruction.  This module fuses straight-line runs of instructions into
single specialised Python functions — a template JIT: for each basic
block the generator renders source text, ``compile()``s it, and
``exec``s it into a closed namespace.  The generated code

* threads register values through locals (each register is read from
  the machine's register file at most once per block and flushed back
  once at the end),
* folds constant operands (immediates become literals, ``x0`` reads
  become ``0``, ``MOVI``/``FMOVI``/link values become constants),
* performs memory/nondet port calls inline, in exactly the handler
  order, and
* appends the block's trace columns in bulk — precomputed ``pcs`` /
  ``takens`` / ``mem_kind`` tuples extended in one call each, runtime
  values gathered into single tuple displays.

Blocks end at branches, jumps, ``halt``, and the nondeterministic
reads (``RDRAND``/``RDCYCLE`` must observe an exact ``instr_count``).
Block shapes are static: one pass over the predecoded program
(:class:`BlockTable`) fixes each pc's block length and the program's
block leaders.  Callers enter blocks only at leaders, so code is
generated only for blocks that control flow actually enters at their
head; a row reached mid-block runs on its handler until the next
leader.  A leader's block compiles on its first run.

Each block carries two generated variants sharing the same compute
lines:

``run(m, seq, pcs, dsts, takens, mem_off, mem_kind, mem_addr,
mem_value, mem_used)``
    the main-core executor body: commits the block's rows to the
    caller's trace columns (byte-identical to the per-instruction
    handlers) and advances ``m.instr_count``.  It is trap-precise: a
    row that traps (a misaligned access) first commits exactly the rows
    before it — columns, registers, ``m.pc`` and ``m.instr_count`` as
    the handlers would have left them — and then raises.

``replay(m, steps)``
    the checker-core body: same computation against the machine's
    (log-backed) ports, appending ``(pc, taken)`` pairs to ``steps``.
    A log-mismatch raised by a port mid-block first appends the pairs
    of the rows that completed, so the caller observes exactly the
    per-instruction replay state.

Byte-identity with the handler path is pinned by the executor test
suite across all suite workloads; ``REPRO_BLOCK_EXEC=0`` disables the
fast path entirely (both loops fall back to per-instruction handlers).
"""

from __future__ import annotations

import math
import os
import struct
from functools import partial

from repro.common.errors import ExecutionError, ReproError
from repro.isa.executor import (
    DEFAULT_NAN,
    LOAD,
    NONDET,
    STORE,
    _div,
    _f2i,
    _fdiv,
    _fsqrt,
    _rem,
    _uops_by_pc,
)
from repro.isa.instructions import BRANCH_OPS, MASK64, NONDET_OPS, Opcode, to_signed
from repro.isa.program import HANDLER_OPS, Program, predecode

#: Kill switch: ``REPRO_BLOCK_EXEC=0`` forces the per-instruction path.
BLOCK_EXEC_ENV = "REPRO_BLOCK_EXEC"


def block_exec_enabled() -> bool:
    """Whether the block-compiled fast path is enabled (checked per
    commit-loop / checker call, so toggling the env var takes effect
    without rebuilding programs)."""
    return os.environ.get(BLOCK_EXEC_ENV, "1") != "0"


#: Cap on fused instructions per block (bounds generated-source size).
MAX_BLOCK_LEN = 256

#: Ops that end a block (control flow, halt, exact-count nondet reads).
_TERMINATORS = (frozenset(BRANCH_OPS)
                | frozenset({Opcode.J, Opcode.JAL, Opcode.JALR, Opcode.HALT})
                | NONDET_OPS)
_M = MASK64  # rendered as a literal in generated source

# value-expression templates ({a}/{b} are integer operand exprs)
_INT_RR = {
    Opcode.ADD: "({a} + {b}) & %d" % _M,
    Opcode.SUB: "({a} - {b}) & %d" % _M,
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SLL: "({a} << ({b} & 63)) & %d" % _M,
    Opcode.SRL: "{a} >> ({b} & 63)",
    Opcode.SRA: "(ts({a}) >> ({b} & 63)) & %d" % _M,
    Opcode.SLT: "1 if ts({a}) < ts({b}) else 0",
    Opcode.SLTU: "1 if {a} < {b} else 0",
    Opcode.MUL: "({a} * {b}) & %d" % _M,
    Opcode.DIV: "_div({a}, {b})",
    Opcode.REM: "_rem({a}, {b})",
}
_FP_RR = {
    Opcode.FADD: "{a} + {b}",
    Opcode.FSUB: "{a} - {b}",
    Opcode.FMUL: "{a} * {b}",
    Opcode.FDIV: "_fdiv({a}, {b})",
    Opcode.FMIN: "{b} if (isnan({a}) or {b} < {a}) else {a}",
    Opcode.FMAX: "{b} if (isnan({a}) or {b} > {a}) else {a}",
}
_FP_UN = {
    Opcode.FSQRT: "_fsqrt({a})",
    Opcode.FNEG: "-{a}",
    Opcode.FABS: "abs({a})",
    Opcode.FMOV: "{a}",
}
_FCMP = {
    Opcode.FCMPLT: "1 if {a} < {b} else 0",
    Opcode.FCMPLE: "1 if {a} <= {b} else 0",
    Opcode.FCMPEQ: "1 if {a} == {b} else 0",
}
_BRANCH_COND = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "ts({a}) < ts({b})",
    Opcode.BGE: "ts({a}) >= ts({b})",
    Opcode.BLTU: "{a} < {b}",
    Opcode.BGEU: "{a} >= {b}",
}


def _trap_commit(loc: dict, rows: tuple, flush: tuple) -> None:
    """Commit what a run variant completed before its trapping row.

    Called from the generated ``except ExecutionError`` clause with the
    function's ``locals()``: ``_k`` is the trapping row's index and
    ``seq`` the seq of the block's first row.  ``rows`` holds each row's
    pc, its writebacks as ``(is_fp, reg, ref)`` and its memory entries
    as ``(kind, addr_ref, value_ref)``, where a ref names a local or is
    the constant itself.  Rows ``[0, _k)`` are appended to the columns
    as the handlers would have committed them; every register local the
    block has assigned is written back (the run variant flushes only at
    block end, and a local that holds a register's entry value writes
    back that same value); then ``m.pc`` and ``m.instr_count`` name the
    trapping row.
    """
    k = loc["_k"]
    pcs, dsts, takens, mem_off = (loc["pcs"], loc["dsts"], loc["takens"],
                                  loc["mem_off"])
    mem_kind, mem_addr = loc["mem_kind"], loc["mem_addr"]
    mem_value, mem_used = loc["mem_value"], loc["mem_used"]
    entries = mem_off[-1]
    for pc, spec, mem in rows[:k]:
        pcs.append(pc)
        dsts.append(tuple((is_fp, reg, loc[ref] if ref.__class__ is str
                           else ref) for is_fp, reg, ref in spec))
        takens.append(-1)  # control ops end blocks
        for kind, addr, value in mem:
            value = loc[value]
            mem_kind.append(kind)
            mem_addr.append(loc[addr] if addr.__class__ is str else addr)
            mem_value.append(value)
            mem_used.append(value)
        entries += len(mem)
        mem_off.append(entries)
    m = loc["m"]
    for is_fp, reg, name in flush:
        if name in loc:
            (m.fregs if is_fp else m.xregs)[reg] = loc[name]
    m.pc = rows[k][0]
    m.instr_count = loc["seq"] + k


#: Closed namespace shared by every generated block function.  The
#: float<->bits conversions are inlined as pre-bound Struct methods
#: (``_ud(_pq(bits))[0]`` is bit-identical to ``bits_to_float`` minus
#: one Python-level call per conversion).
_HELPERS = {
    "ts": to_signed,
    "_div": _div,
    "_rem": _rem,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_f2i": _f2i,
    "_pq": struct.Struct("<Q").pack,
    "_ud": struct.Struct("<d").unpack,
    "_pd": struct.Struct("<d").pack,
    "_uq": struct.Struct("<Q").unpack,
    "isnan": math.isnan,
    "_nan": DEFAULT_NAN,
    "float": float,
    "abs": abs,
    "_E": (),
    "ReproError": ReproError,
    "ExecutionError": ExecutionError,
    "_trap": _trap_commit,
    "locals": locals,
    "__builtins__": {},
}


class BlockStats:
    """Process-wide dynamic-coverage counters (read by the benchmarks).

    ``block_instrs`` / ``total_instrs`` give the fraction of dynamic
    instructions that committed through compiled blocks; ``block_calls``
    yields the mean dynamic block length.
    """

    __slots__ = ("block_instrs", "block_calls", "total_instrs")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.block_instrs = 0
        self.block_calls = 0
        self.total_instrs = 0

    def coverage(self) -> float:
        return self.block_instrs / self.total_instrs if self.total_instrs else 0.0

    def mean_block_len(self) -> float:
        return self.block_instrs / self.block_calls if self.block_calls else 0.0


STATS = BlockStats()


class Block:
    """One compiled basic block."""

    __slots__ = ("leader", "n", "run", "replay")

    def __init__(self, leader: int, n: int, run, replay) -> None:
        self.leader = leader
        #: instructions the block commits per run
        self.n = n
        self.run = run
        self.replay = replay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block(leader={self.leader}, n={self.n})"


class BlockTable:
    """Static block shapes over one program, plus its lazily compiled
    block code.

    One pass over the predecoded program computes

    * ``lengths[pc]``: the length of the block starting at ``pc``, cut
      exactly as :func:`_compile_block` cuts it (at a terminator, at
      :data:`MAX_BLOCK_LEN` rows, or at the program's last row); and
    * ``leaders``: the static block leaders — the entry, every branch
      and jump target, the row after every terminator, and every
      :data:`MAX_BLOCK_LEN` split along a leader's straight-line run.

    ``runs[pc]`` and ``replays[pc]`` are the block variants at a leader
    and None everywhere else, so the commit loop and the checker enter
    blocks only at leaders and run a row reached mid-block (after a
    fault's inert point, at a checker segment start, at a ``JALR`` to a
    computed target) on its handler.  A leader's entries start as stubs
    that compile the block on first call and replace themselves, so
    only blocks that actually run are ever compiled.  :meth:`build`
    compiles the block at any pc.
    """

    __slots__ = ("program", "lengths", "leaders", "runs", "replays",
                 "_decoded", "_uops")

    def __init__(self, program: Program) -> None:
        self.program = program
        self._decoded = predecode(program)
        self._uops = _uops_by_pc(program)
        self.lengths, self.leaders = _static_shapes(program, self._decoded)
        size = len(self._decoded)
        self.runs: list = [None] * size
        self.replays: list = [None] * size
        for pc in self.leaders:
            self.runs[pc] = partial(self._first_run, pc)
            self.replays[pc] = partial(self._first_replay, pc)

    def build(self, pc: int) -> Block:
        """Compile the block at ``pc`` and install its variants."""
        block = _compile_block(self.program, self._decoded, pc, self._uops)
        self.runs[pc] = block.run
        self.replays[pc] = block.replay
        return block

    def _first_run(self, pc: int, *args):
        return self.build(pc).run(*args)

    def _first_replay(self, pc: int, *args):
        return self.build(pc).replay(*args)


def _static_shapes(program: Program, decoded) -> tuple[tuple[int, ...],
                                                      frozenset[int]]:
    """Every pc's block length and the program's static block leaders
    (see :class:`BlockTable`)."""
    size = len(decoded)
    lengths = [0] * size
    leaders = {program.entry} if 0 <= program.entry < size else set()
    straight = 0  # rows from pc up to and including the block's cut
    for pc in range(size - 1, -1, -1):
        d = decoded[pc]
        op = HANDLER_OPS[d.hidx]
        if op in _TERMINATORS:
            straight = 1
            if pc + 1 < size:
                leaders.add(pc + 1)
            if 0 <= d.target < size:
                leaders.add(d.target)
        else:
            straight = 1 if pc == size - 1 else straight + 1
        lengths[pc] = min(straight, MAX_BLOCK_LEN)
    # a block cut at MAX_BLOCK_LEN falls through into the next split
    work = list(leaders)
    while work:
        pc = work.pop()
        split = pc + MAX_BLOCK_LEN
        if lengths[pc] == MAX_BLOCK_LEN and split < size \
                and split not in leaders:
            leaders.add(split)
            work.append(split)
    return tuple(lengths), frozenset(leaders)


def block_table(program: Program) -> BlockTable:
    """The program's block table (cached on the program, next to
    ``bound_handlers``; programs hash by identity)."""
    cached = getattr(program, "_block_table", None)
    if cached is None:
        cached = BlockTable(program)
        object.__setattr__(program, "_block_table", cached)
    return cached


# -- code generation ----------------------------------------------------------

def _compile_block(program: Program, decoded, leader: int, uops_table) -> Block:
    rows = []
    pc = leader
    last = len(decoded) - 1
    while True:
        d = decoded[pc]
        rows.append(d)
        op = HANDLER_OPS[d.hidx]
        if op in _TERMINATORS or len(rows) >= MAX_BLOCK_LEN or pc >= last:
            break
        pc += 1
    n = len(rows)
    ops = [HANDLER_OPS[d.hidx] for d in rows]
    last_op = ops[-1]

    # liveness pre-pass: the row index of each register's final write,
    # so a writeback that survives to block end can live directly in
    # the register local (its dsts entry then references that local)
    last_wx: dict[int, int] = {}
    last_wf: dict[int, int] = {}
    for i, (op, d) in enumerate(zip(ops, rows)):
        for is_fp, reg in _row_writes(op, d):
            (last_wf if is_fp else last_wx)[reg] = i

    gen = _Emitter(last_wx, last_wf)
    dst_exprs: list[str] = []        # one dsts-column expression per row
    mem_entries: list[tuple] = []    # (kind, addr_ref, value_ref) flat
    mem_delta: list[int] = []        # cumulative entry count after row i
    taken_codes: list[int] = []      # takens column codes (branch: last)
    step_taken: list[bool] = []      # replay (pc, taken) pairs
    trap_rows: list[tuple] = []      # (pc, dsts spec, memory refs) per row
    consts: dict[str, object] = {}

    for i, (op, d) in enumerate(zip(ops, rows)):
        if op in NONDET_OPS and i == n - 1:
            # the port must observe this row's exact dynamic seq
            gen.line(f"m.instr_count = seq + {n - 1}", mode="exec")
        first_entry = len(mem_entries)
        spec = _emit_row(gen, consts, i, op, d, mem_entries)
        dst_exprs.append(_dsts_expr(consts, i, spec))
        trap_rows.append((d.pc, spec, tuple(mem_entries[first_entry:])))
        mem_delta.append(len(mem_entries))
        if op in BRANCH_OPS:
            taken_codes.append(-2)  # placeholder, handled by the epilogue
            step_taken.append(False)
        elif op in (Opcode.J, Opcode.JAL, Opcode.JALR):
            taken_codes.append(1)
            step_taken.append(True)
        else:
            taken_codes.append(-1)
            step_taken.append(False)

    # the branch condition may load its operands: build it among the row
    # lines, ahead of the flush
    d_last = rows[-1]
    branch = last_op in BRANCH_OPS
    cond = ""
    if branch:
        cond = _BRANCH_COND[last_op].format(
            a=gen.read_x(d_last.rs1), b=gen.read_x(d_last.rs2))
    body_end = len(gen.lines)  # row lines end here
    gen.flush()
    # only the misaligned-address slow paths of memory rows can raise
    traps = "lp" in gen.needs or "sp" in gen.needs
    if traps:
        consts["_ROWS"] = tuple(trap_rows)
        consts["_FL"] = tuple(
            [(False, reg, f"x{reg}") for reg in sorted(gen.written_x)]
            + [(True, reg, f"f{reg}") for reg in sorted(gen.written_f)])

    pcs_tuple = tuple(d.pc for d in rows)
    consts["_PCS"] = pcs_tuple
    if mem_entries:
        consts["_MK"] = tuple(kind for kind, _a, _v in mem_entries)

    # -- epilogue: successor pc, takens/steps selection ----------------------
    if branch:
        consts["_TK1"] = tuple(taken_codes[:-1]) + (1,)
        consts["_TK0"] = tuple(taken_codes[:-1]) + (0,)
        consts["_S1"] = tuple(zip(pcs_tuple, step_taken[:-1] + [True]))
        consts["_S0"] = tuple(zip(pcs_tuple, step_taken[:-1] + [False]))
        gen.line(f"if {cond}:")
        gen.line(f"    m.pc = {d_last.target}")
        gen.line("    _tk = _TK1", mode="exec")
        gen.line("    _s = _S1", mode="replay")
        gen.line("else:")
        gen.line(f"    m.pc = {d_last.pc + 1}")
        gen.line("    _tk = _TK0", mode="exec")
        gen.line("    _s = _S0", mode="replay")
        taken_extend = "_tk"
        steps_extend = "_s"
    else:
        consts["_TK"] = tuple(taken_codes)
        consts["_S"] = tuple(zip(pcs_tuple, step_taken))
        if last_op is Opcode.HALT:
            gen.line("m.halted = True")
            if n > 1:
                # the halt handler leaves pc pointing at the halt
                # instruction itself; match it when the block entered
                # at an earlier pc
                gen.line(f"m.pc = {d_last.pc}")
        elif last_op in (Opcode.J, Opcode.JAL):
            gen.line(f"m.pc = {d_last.target}")
        elif last_op is Opcode.JALR:
            gen.line(f"m.pc = {gen.jalr_pc}")
        else:  # fall-through block (incl. nondet terminators)
            gen.line(f"m.pc = {d_last.pc + 1}")
        taken_extend = "_TK"
        steps_extend = "_S"
    #: replay pairs for completed rows ahead of a mid-block log mismatch
    consts["_SP"] = tuple(zip(pcs_tuple, step_taken))

    # -- bulk column commit (exec) -------------------------------------------
    gen.line("pcs.extend(_PCS)", mode="exec")
    gen.line(f"dsts.extend(({', '.join(dst_exprs)},))", mode="exec")
    gen.line(f"takens.extend({taken_extend})", mode="exec")
    gen.line("_e = mem_off[-1]", mode="exec")
    if mem_entries:
        offs = ", ".join("_e" if delta == 0 else f"_e + {delta}"
                         for delta in mem_delta)
        gen.line(f"mem_off.extend(({offs},))", mode="exec")
        gen.line("mem_kind.extend(_MK)", mode="exec")
        addrs = ", ".join(str(a) for _k, a, _v in mem_entries)
        values = ", ".join(str(v) for _k, _a, v in mem_entries)
        gen.line(f"mem_addr.extend(({addrs},))", mode="exec")
        gen.line(f"_mv = ({values},)", mode="exec")
        gen.line("mem_value.extend(_mv)", mode="exec")
        gen.line("mem_used.extend(_mv)", mode="exec")
    else:
        gen.line(f"mem_off.extend((_e,) * {n})", mode="exec")
    gen.line(f"m.instr_count = seq + {n}", mode="exec")
    gen.line("return _BS", mode="exec")
    gen.line(f"steps.extend({steps_extend})", mode="replay")

    n_uops = sum(uops_table[d.pc] for d in rows)
    n_loads = sum(1 for kind, _a, _v in mem_entries if kind == LOAD)
    n_stores = sum(1 for kind, _a, _v in mem_entries if kind == STORE)
    #: the run variant returns its own static counts so the commit
    #: loop's fast path needs no per-call attribute walks
    consts["_BS"] = (n, n_uops, n_loads, n_stores)

    src = gen.render(body_end, traps)
    code = compile(src, f"<block {program.name}@{leader}>", "exec")
    ns = dict(_HELPERS)
    ns.update(consts)
    exec(code, ns)
    return Block(leader=leader, n=n, run=ns["__block_run__"],
                 replay=ns["__block_replay__"])


def _guard_traps(lines: list[str]) -> list[str]:
    """Wrap run-variant lines so that a trapping row first commits the
    rows before it (:func:`_trap_commit`).  Only a misaligned access
    raises, and its slow path sets ``_k`` to the row's index, so the
    hot path pays nothing."""
    return (["try:"] + [f"    {t}" for t in lines]
            + ["except ExecutionError:",
               "    _trap(locals(), _ROWS, _FL)",
               "    raise"])


def _dsts_expr(consts: dict, i: int, spec: tuple) -> str:
    """Source of row ``i``'s dsts-column entry from its writeback spec
    (``(is_fp, reg, ref)`` triples; a ref names a local or is the
    constant itself)."""
    if not spec:
        return "_E"
    if any(ref.__class__ is float for _fp, _reg, ref in spec):
        # float constants go through the namespace: source literals
        # cannot round-trip NaN payloads or infinities
        consts[f"_d{i}"] = spec
        return f"_d{i}"
    return "(%s,)" % ", ".join(f"({is_fp}, {reg}, {ref})"
                               for is_fp, reg, ref in spec)


def _row_writes(op: Opcode, d) -> list[tuple[bool, int]]:
    """Registers a row writes, as (is_fp, index) pairs (x0 drops)."""
    writes: list[tuple[bool, int]] = []
    if op is Opcode.LDP:
        if d.rd:
            writes.append((False, d.rd))
        if d.rd2:
            writes.append((False, d.rd2))
    elif (op in _INT_RR or op in _FCMP or op in NONDET_OPS
          or op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                    Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.SLTI,
                    Opcode.MOVI, Opcode.LD, Opcode.FCVT_F2I,
                    Opcode.JAL, Opcode.JALR)):
        if d.rd:
            writes.append((False, d.rd))
    elif (op in _FP_RR or op in _FP_UN
          or op in (Opcode.FMADD, Opcode.FMOVI, Opcode.FCVT_I2F, Opcode.FLD)):
        writes.append((True, d.rd))
    return writes


class _Emitter:
    """Accumulates generated lines plus register-threading state."""

    __slots__ = ("lines", "avail_x", "avail_f", "written_x", "written_f",
                 "needs", "last_wx", "last_wf", "jalr_pc")

    def __init__(self, last_wx: dict[int, int], last_wf: dict[int, int]) -> None:
        self.lines: list[tuple[str, str]] = []  # (text, mode)
        self.avail_x: set[int] = set()
        self.avail_f: set[int] = set()
        self.written_x: set[int] = set()
        self.written_f: set[int] = set()
        self.needs: set[str] = set()
        self.last_wx = last_wx
        self.last_wf = last_wf
        self.jalr_pc = ""  # local holding a JALR terminator's next pc

    def line(self, text: str, mode: str = "both") -> None:
        self.lines.append((text, mode))

    def read_x(self, reg: int) -> str:
        if reg == 0:
            return "0"
        self.needs.add("x")
        if reg not in self.avail_x:
            self.line(f"x{reg} = x[{reg}]")
            self.avail_x.add(reg)
        return f"x{reg}"

    def read_f(self, reg: int) -> str:
        self.needs.add("f")
        if reg not in self.avail_f:
            self.line(f"f{reg} = f[{reg}]")
            self.avail_f.add(reg)
        return f"f{reg}"

    def write_x(self, row: int, reg: int, expr: str) -> str:
        """Assign ``expr`` to integer register ``reg``; returns the name
        that still holds the row's value at block end (for the dsts
        column)."""
        self.needs.add("x")
        self.avail_x.add(reg)
        self.written_x.add(reg)
        if self.last_wx.get(reg) == row:
            self.line(f"x{reg} = {expr}")
            return f"x{reg}"
        name = f"_v{row}"
        self.line(f"{name} = {expr}")
        self.line(f"x{reg} = {name}")
        return name

    def write_f(self, row: int, reg: int, expr: str) -> str:
        self.needs.add("f")
        self.avail_f.add(reg)
        self.written_f.add(reg)
        if self.last_wf.get(reg) == row:
            self.line(f"f{reg} = {expr}")
            return f"f{reg}"
        name = f"_v{row}"
        self.line(f"{name} = {expr}")
        self.line(f"f{reg} = {name}")
        return name

    def flush(self) -> None:
        """Write every modified register local back to the files."""
        for reg in sorted(self.written_x):
            self.line(f"x[{reg}] = x{reg}")
        for reg in sorted(self.written_f):
            self.line(f"f[{reg}] = f{reg}")

    def render(self, body_end: int, traps: bool) -> str:
        """Source of both variants; ``lines[:body_end]`` are the row
        lines, which the run variant guards when the block ``traps``."""
        prologue = []
        if "x" in self.needs:
            prologue.append(("x = m.xregs", "both"))
        if "f" in self.needs:
            prologue.append(("f = m.fregs", "both"))
        if "lp" in self.needs:
            prologue.append(("lp = m.load_port", "both"))
        if "sp" in self.needs:
            prologue.append(("sp = m.store_port", "both"))
        if "np" in self.needs:
            prologue.append(("np = m.nondet_port", "both"))
        if "lp" in self.needs or "sp" in self.needs:
            prologue.append(("_mw = m.memory._words", "exec"))
        if "lp" in self.needs:
            prologue.append(("_mg = _mw.get", "exec"))

        def exec_lines(lines):
            return [t for t, mode in lines if mode != "replay"]

        body = exec_lines(self.lines[:body_end])
        exec_body = (exec_lines(prologue)
                     + (_guard_traps(body) if traps else body)
                     + exec_lines(self.lines[body_end:]))
        replay_body = [t for t, mode in prologue + self.lines
                       if mode != "exec"]

        out = ["def __block_run__(m, seq, pcs, dsts, takens, mem_off, "
               "mem_kind, mem_addr, mem_value, mem_used):"]
        out.extend(f"    {t}" for t in exec_body)
        out.append("")
        out.append("def __block_replay__(m, steps):")
        has_ports = "lp" in self.needs or "sp" in self.needs or "np" in self.needs
        if has_ports:
            # a port raising a log mismatch mid-block must leave the
            # caller's step list holding exactly the completed rows
            out.append("    _k = 0")
            out.append("    try:")
            out.extend(f"        {t}" for t in replay_body)
            out.append("    except ReproError:")
            out.append("        steps.extend(_SP[:_k])")
            out.append("        raise")
        else:
            out.extend(f"    {t}" for t in replay_body)
        return "\n".join(out) + "\n"


def _addr_expr(gen: _Emitter, rs1: int, imm: int) -> str:
    """Render ``(x[rs1] + imm) & MASK64``, folding the trivial cases
    (register values are invariantly 64-bit masked)."""
    if rs1 == 0:
        return str(imm & _M)
    base = gen.read_x(rs1)
    return base if imm == 0 else f"({base} + {imm}) & {_M}"


def _default_nan(expr: str) -> str:
    """Render ``expr`` with a NaN result replaced by
    :data:`~repro.isa.executor.DEFAULT_NAN`, as the handlers do."""
    return f"_n if (_n := ({expr})) == _n else _nan"


def _int_ri_expr(gen: _Emitter, op: Opcode, rs1: int, imm: int) -> str:
    a = gen.read_x(rs1)
    if op is Opcode.ADDI:
        if a == "0":
            return str(imm & _M)
        return a if imm == 0 else f"({a} + {imm}) & {_M}"
    if op is Opcode.ANDI:
        return "0" if a == "0" else f"{a} & {imm & _M}"
    if op is Opcode.ORI:
        return str(imm & _M) if a == "0" else f"{a} | {imm & _M}"
    if op is Opcode.XORI:
        return str(imm & _M) if a == "0" else f"{a} ^ {imm & _M}"
    shift = imm & 63
    if op is Opcode.SLLI:
        if a == "0":
            return "0"
        return a if shift == 0 else f"({a} << {shift}) & {_M}"
    if op is Opcode.SRLI:
        if a == "0":
            return "0"
        return a if shift == 0 else f"{a} >> {shift}"
    if op is Opcode.SRAI:
        if a == "0":
            return "0"
        return a if shift == 0 else f"(ts({a}) >> {shift}) & {_M}"
    if op is Opcode.SLTI:
        imm = int(imm)
        if a == "0":
            return "1" if 0 < imm else "0"
        return f"1 if ts({a}) < {imm} else 0"
    raise AssertionError(op)  # pragma: no cover


_INT_RI_OPS = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SLLI, Opcode.SRLI, Opcode.SRAI, Opcode.SLTI,
})


def _emit_row(gen: _Emitter, consts: dict, i: int, op: Opcode, d,
              mem_entries: list) -> tuple:
    """Emit row ``i``'s compute lines and append its memory entries;
    returns its writebacks as ``(is_fp, reg, ref)`` triples, where a ref
    names the local that holds the value at block end or is the
    constant itself (see :func:`_dsts_expr`)."""
    rd = d.rd
    if op in _INT_RR:
        if not rd:
            return ()
        expr = _INT_RR[op].format(a=gen.read_x(d.rs1), b=gen.read_x(d.rs2))
        return ((False, rd, gen.write_x(i, rd, expr)),)
    if op in _INT_RI_OPS:
        if not rd:
            return ()
        name = gen.write_x(i, rd, _int_ri_expr(gen, op, d.rs1, int(d.imm)))
        return ((False, rd, name),)
    if op is Opcode.MOVI:
        if not rd:
            return ()
        value = int(d.imm) & _M
        gen.write_x(i, rd, str(value))
        return ((False, rd, value),)
    # Memory rows diverge between the variants.  The replay variant
    # calls the machine's (log-backed) ports.  The exec variant reads
    # and writes the memory image's word dict directly.  In the commit
    # loop, blocks run only on rows past the fault injector's last
    # fault seq; its still-attached wrapped ports would pass those rows
    # through unchanged (its transients hold no later seq, and hard
    # faults keep every row on the injector's own path), so bypassing
    # them is exact.  The misaligned-address slow path marks the row in
    # ``_k`` (committing the rows before it, see :func:`_trap_commit`)
    # and calls the real port, so the genuine MemoryAccessError is
    # raised.  ``(addr + 8) & MASK`` preserves alignment, so a pair's
    # second access needs no check of its own, and every stored value
    # (register file contents, float_to_bits output) is already 64-bit
    # masked, matching MemoryImage.store exactly.
    if op is Opcode.LD:
        gen.needs.add("lp")
        addr = _addr_expr(gen, d.rs1, int(d.imm))
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_a{i}, _t{i} = lp({addr})", mode="replay")
        gen.line(f"_a{i} = {addr}", mode="exec")
        gen.line(f"if _a{i} & 7: _k = {i}; lp(_a{i})", mode="exec")
        gen.line(f"_t{i} = _mg(_a{i}, 0)", mode="exec")
        mem_entries.append((LOAD, f"_a{i}", f"_t{i}"))
        if not rd:
            return ()
        gen.write_x(i, rd, f"_t{i}")
        return ((False, rd, f"_t{i}"),)
    if op is Opcode.ST:
        gen.needs.add("sp")
        value = gen.read_x(d.rs2)
        addr = _addr_expr(gen, d.rs1, int(d.imm))
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_a{i}, _t{i} = sp({addr}, {value})", mode="replay")
        gen.line(f"_a{i} = {addr}", mode="exec")
        gen.line(f"if _a{i} & 7: _k = {i}; sp(_a{i}, {value})", mode="exec")
        gen.line(f"_t{i} = {value}", mode="exec")
        gen.line(f"_mw[_a{i}] = _t{i}", mode="exec")
        mem_entries.append((STORE, f"_a{i}", f"_t{i}"))
        return ()
    if op is Opcode.LDP:
        gen.needs.add("lp")
        gen.line(f"_q{i} = {_addr_expr(gen, d.rs1, int(d.imm))}")
        gen.line(f"_r{i} = (_q{i} + 8) & {_M}")
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_q{i}, _t{i} = lp(_q{i})", mode="replay")
        gen.line(f"_r{i}, _u{i} = lp(_r{i})", mode="replay")
        gen.line(f"if _q{i} & 7: _k = {i}; lp(_q{i})", mode="exec")
        gen.line(f"_t{i} = _mg(_q{i}, 0)", mode="exec")
        gen.line(f"_u{i} = _mg(_r{i}, 0)", mode="exec")
        mem_entries.append((LOAD, f"_q{i}", f"_t{i}"))
        mem_entries.append((LOAD, f"_r{i}", f"_u{i}"))
        dsts = []
        if rd:
            gen.write_x(i, rd, f"_t{i}")
            dsts.append((False, rd, f"_t{i}"))
        if d.rd2:
            gen.write_x(i, d.rd2, f"_u{i}")
            dsts.append((False, d.rd2, f"_u{i}"))
        return tuple(dsts)
    if op is Opcode.STP:
        gen.needs.add("sp")
        v1, v2 = gen.read_x(d.rs2), gen.read_x(d.rs3)
        gen.line(f"_q{i} = {_addr_expr(gen, d.rs1, int(d.imm))}")
        gen.line(f"_r{i} = (_q{i} + 8) & {_M}")
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_q{i}, _t{i} = sp(_q{i}, {v1})", mode="replay")
        gen.line(f"_r{i}, _u{i} = sp(_r{i}, {v2})", mode="replay")
        gen.line(f"if _q{i} & 7: _k = {i}; sp(_q{i}, {v1})", mode="exec")
        gen.line(f"_t{i} = {v1}", mode="exec")
        gen.line(f"_mw[_q{i}] = _t{i}", mode="exec")
        gen.line(f"_u{i} = {v2}", mode="exec")
        gen.line(f"_mw[_r{i}] = _u{i}", mode="exec")
        mem_entries.append((STORE, f"_q{i}", f"_t{i}"))
        mem_entries.append((STORE, f"_r{i}", f"_u{i}"))
        return ()
    if op is Opcode.FLD:
        gen.needs.add("lp")
        addr = _addr_expr(gen, d.rs1, int(d.imm))
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_a{i}, _t{i} = lp({addr})", mode="replay")
        gen.line(f"_a{i} = {addr}", mode="exec")
        gen.line(f"if _a{i} & 7: _k = {i}; lp(_a{i})", mode="exec")
        gen.line(f"_t{i} = _mg(_a{i}, 0)", mode="exec")
        name = gen.write_f(i, rd, f"_ud(_pq(_t{i}))[0]")
        mem_entries.append((LOAD, f"_a{i}", f"_t{i}"))
        return ((True, rd, name),)
    if op is Opcode.FST:
        gen.needs.add("sp")
        value = gen.read_f(d.rs2)
        addr = _addr_expr(gen, d.rs1, int(d.imm))
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_a{i}, _t{i} = sp({addr}, _uq(_pd({value}))[0])",
                 mode="replay")
        gen.line(f"_t{i} = _uq(_pd({value}))[0]", mode="exec")
        gen.line(f"_a{i} = {addr}", mode="exec")
        gen.line(f"if _a{i} & 7: _k = {i}; sp(_a{i}, _t{i})", mode="exec")
        gen.line(f"_mw[_a{i}] = _t{i}", mode="exec")
        mem_entries.append((STORE, f"_a{i}", f"_t{i}"))
        return ()
    if op in _FP_RR:
        expr = _FP_RR[op].format(a=gen.read_f(d.rs1), b=gen.read_f(d.rs2))
        return ((True, rd, gen.write_f(i, rd, _default_nan(expr))),)
    if op is Opcode.FMADD:
        expr = (f"{gen.read_f(d.rs1)} * {gen.read_f(d.rs2)}"
                f" + {gen.read_f(d.rs3)}")
        return ((True, rd, gen.write_f(i, rd, _default_nan(expr))),)
    if op in _FP_UN:
        name = gen.write_f(i, rd, _FP_UN[op].format(a=gen.read_f(d.rs1)))
        return ((True, rd, name),)
    if op is Opcode.FMOVI:
        # float constants go through the namespace: source literals
        # cannot round-trip NaN payloads or infinities
        cname = f"_c{i}"
        consts[cname] = float(d.imm)
        gen.write_f(i, rd, cname)
        return ((True, rd, float(d.imm)),)
    if op is Opcode.FCVT_I2F:
        name = gen.write_f(i, rd, f"float(ts({gen.read_x(d.rs1)}))")
        return ((True, rd, name),)
    if op is Opcode.FCVT_F2I:
        if not rd:
            return ()
        return ((False, rd, gen.write_x(i, rd, f"_f2i({gen.read_f(d.rs1)})")),)
    if op in _FCMP:
        if not rd:
            return ()
        expr = _FCMP[op].format(a=gen.read_f(d.rs1), b=gen.read_f(d.rs2))
        return ((False, rd, gen.write_x(i, rd, expr)),)
    if op in NONDET_OPS:
        gen.needs.add("np")
        opname = f"_op{i}"
        consts[opname] = op
        gen.line(f"_k = {i}", mode="replay")
        gen.line(f"_t{i} = np({opname}) & {_M}")
        mem_entries.append((NONDET, 0, f"_t{i}"))
        if not rd:
            return ()
        gen.write_x(i, rd, f"_t{i}")
        return ((False, rd, f"_t{i}"),)
    if op is Opcode.JAL:
        link = (d.pc + 1) & _M
        if rd:
            gen.write_x(i, rd, str(link))
            return ((False, rd, link),)
        return ()
    if op is Opcode.JALR:
        link = (d.pc + 1) & _M
        # next pc computes before the link write (rd may alias rs1)
        gen.jalr_pc = f"_j{i}"
        gen.line(f"_j{i} = {_addr_expr(gen, d.rs1, int(d.imm))}")
        if rd:
            gen.write_x(i, rd, str(link))
            return ((False, rd, link),)
        return ()
    if op in BRANCH_OPS or op in (Opcode.J, Opcode.HALT, Opcode.NOP):
        return ()  # branch condition/pc handled by the epilogue
    raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover
