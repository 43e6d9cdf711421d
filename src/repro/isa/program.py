"""Program representation, the programmatic builder, and the pre-decoder.

A :class:`Program` is an immutable list of static instructions plus an
initial data image.  Workload generators construct programs through
:class:`ProgramBuilder`, which handles labels, forward references, and data
allocation; hand-written assembly goes through :mod:`repro.isa.assembler`
which produces the same thing.

The **pre-decode pass** (:func:`predecode`) lowers every static
instruction into a flat :class:`DecodedInstr` dispatch record — a dense
handler index plus fully resolved operand slots (``None`` fields become
0, labels are already instruction indices).  The functional executor
binds one handler per record once per program, so its step loop never
re-inspects an :class:`~repro.isa.instructions.Opcode` or touches an
optional operand field again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.common.errors import AssemblyError
from repro.isa.instructions import (
    DATA_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    CONTROL_OPS,
    Instruction,
    Opcode,
)
from repro.isa.memory_image import MemoryImage, float_to_bits

# operand signature table: which fields each opcode requires.
# letters: d=rd, D=rd2, a=rs1, b=rs2, c=rs3, i=imm, t=target
# (f-prefixed opcodes use the same fields but index the FP file)
_SIGNATURES: dict[Opcode, str] = {}
for _op_name, _sig in {
    # int RR
    "ADD": "dab", "SUB": "dab", "AND": "dab", "OR": "dab", "XOR": "dab",
    "SLL": "dab", "SRL": "dab", "SRA": "dab", "SLT": "dab", "SLTU": "dab",
    "MUL": "dab", "DIV": "dab", "REM": "dab",
    # int RI
    "ADDI": "dai", "ANDI": "dai", "ORI": "dai", "XORI": "dai",
    "SLLI": "dai", "SRLI": "dai", "SRAI": "dai", "SLTI": "dai",
    "MOVI": "di",
    # memory
    "LD": "dai", "ST": "bai", "LDP": "dDai", "STP": "bcai",
    "FLD": "dai", "FST": "bai",
    # fp
    "FADD": "dab", "FSUB": "dab", "FMUL": "dab", "FDIV": "dab",
    "FMIN": "dab", "FMAX": "dab", "FMADD": "dabc",
    "FSQRT": "da", "FNEG": "da", "FABS": "da", "FMOV": "da", "FMOVI": "di",
    "FCVT_I2F": "da", "FCVT_F2I": "da",
    "FCMPLT": "dab", "FCMPLE": "dab", "FCMPEQ": "dab",
    # control
    "BEQ": "abt", "BNE": "abt", "BLT": "abt", "BGE": "abt",
    "BLTU": "abt", "BGEU": "abt",
    "J": "t", "JAL": "dt", "JALR": "dai",
    "HALT": "", "NOP": "",
    "RDRAND": "d", "RDCYCLE": "d",
}.items():
    _SIGNATURES[Opcode[_op_name]] = _sig


def signature(op: Opcode) -> str:
    """The operand signature string for ``op`` (see module source)."""
    return _SIGNATURES[op]


# -- pre-decode ---------------------------------------------------------------

#: Dense handler index per opcode: the executor's dispatch table is built
#: in exactly this order, so ``HANDLER_INDEX[op]`` names its handler.
HANDLER_OPS: tuple[Opcode, ...] = tuple(Opcode)
HANDLER_INDEX: dict[Opcode, int] = {op: i for i, op in enumerate(HANDLER_OPS)}


class DecodedInstr(NamedTuple):
    """One flat pre-decoded dispatch record.

    All operand slots are resolved integers (unused fields collapse to
    0); ``target`` is -1 when the opcode has none.  ``pc`` is the record's
    own instruction index, so handlers can be bound with their fall-through
    successor (``pc + 1``) as a constant.
    """

    hidx: int
    pc: int
    rd: int
    rs1: int
    rs2: int
    rs3: int
    rd2: int
    imm: int | float
    target: int


def predecode(program: "Program") -> tuple[DecodedInstr, ...]:
    """The flat dispatch records of ``program`` (cached on the program:
    :class:`Program` hashes by identity, so the pass runs once)."""
    cached = getattr(program, "_decoded", None)
    if cached is not None:
        return cached
    records = tuple(
        DecodedInstr(
            hidx=HANDLER_INDEX[instr.op],
            pc=pc,
            rd=instr.rd or 0,
            rs1=instr.rs1 or 0,
            rs2=instr.rs2 or 0,
            rs3=instr.rs3 or 0,
            rd2=instr.rd2 or 0,
            imm=instr.imm,
            target=-1 if instr.target is None else instr.target,
        )
        for pc, instr in enumerate(program.instructions)
    )
    object.__setattr__(program, "_decoded", records)
    return records


@dataclass(frozen=True, eq=False)
class Program:
    """An assembled program: code, labels, and initial data image.

    Programs compare and hash by identity (``eq=False``): two separately
    built programs are distinct even if structurally equal, which lets the
    timing layer cache derived metadata per program object.
    """

    name: str
    instructions: tuple[Instruction, ...]
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int] = field(default_factory=dict)
    entry: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def _data_image(self) -> MemoryImage:
        # built, and each address checked, once per program object
        return MemoryImage(self.data)

    def initial_memory(self) -> MemoryImage:
        """A fresh memory image holding the program's data segment (an
        independent copy of one image built per program)."""
        return self._data_image.copy()

    def fetch(self, pc: int) -> Instruction:
        """The static instruction at instruction index ``pc``."""
        if not 0 <= pc < len(self.instructions):
            raise AssemblyError(f"instruction fetch out of range: pc={pc}")
        return self.instructions[pc]


class ProgramBuilder:
    """Constructs a :class:`Program` instruction by instruction.

    Labels may be referenced before they are defined; ``build()`` resolves
    all forward references and fails loudly on anything left dangling.

    Example::

        b = ProgramBuilder("count")
        b.emit(Opcode.MOVI, rd=1, imm=0)
        b.label("loop")
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.SLTI, rd=2, rs1=1, imm=10)
        b.emit(Opcode.BNE, rs1=2, rs2=0, target="loop")
        b.emit(Opcode.HALT)
        program = b.build()
    """

    def __init__(self, name: str, data_base: int = DATA_BASE) -> None:
        self.name = name
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._pending: list[tuple[int, str]] = []  # (instr index, label)
        self._data: dict[int, int] = {}
        self._next_data = data_base

    # -- code ---------------------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` at the current instruction position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def emit(
        self,
        op: Opcode,
        rd: int | None = None,
        rs1: int | None = None,
        rs2: int | None = None,
        rs3: int | None = None,
        rd2: int | None = None,
        imm: int | float = 0,
        target: int | str | None = None,
    ) -> int:
        """Append one instruction; returns its index."""
        self._check_operands(op, rd, rs1, rs2, rs3, rd2, target)
        resolved: int | None
        if isinstance(target, str):
            self._pending.append((len(self._instructions), target))
            resolved = -1  # patched in build()
        else:
            resolved = target
        self._instructions.append(
            Instruction(op=op, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, rd2=rd2,
                        imm=imm, target=resolved)
        )
        return len(self._instructions) - 1

    def _check_operands(self, op, rd, rs1, rs2, rs3, rd2, target) -> None:
        sig = _SIGNATURES[op]
        wants = {
            "d": rd, "D": rd2, "a": rs1, "b": rs2, "c": rs3,
            "t": target,
        }
        for letter, value in wants.items():
            if letter == "i":
                continue
            needed = letter in sig
            if needed and value is None:
                raise AssemblyError(f"{op.value} requires operand '{letter}'")
            if not needed and value is not None:
                raise AssemblyError(f"{op.value} does not take operand '{letter}'")
        is_fp = op.value.startswith("F") and op not in (
            Opcode.FCVT_F2I, Opcode.FCMPLT, Opcode.FCMPLE, Opcode.FCMPEQ)
        # register ranges; FP ops index the FP file except where the
        # destination is an integer (compares, F2I) or source is (I2F, FMOVI)
        limit = NUM_FP_REGS if is_fp else NUM_INT_REGS
        for value in (rd, rd2, rs1, rs2, rs3):
            if value is not None and not 0 <= value < max(NUM_INT_REGS, NUM_FP_REGS):
                raise AssemblyError(
                    f"{op.value}: register index {value} out of range 0..{limit - 1}")

    # -- data ---------------------------------------------------------------

    def put_word(self, addr: int, value: int) -> None:
        """Place a 64-bit word in the initial data image."""
        self._data[addr] = value & ((1 << 64) - 1)

    def put_float(self, addr: int, value: float) -> None:
        self._data[addr] = float_to_bits(value)

    def alloc_words(self, count: int, values: list[int] | None = None) -> int:
        """Reserve ``count`` words in the data segment; returns base address."""
        base = self._next_data
        self._next_data += count * 8
        if values is not None:
            for offset, value in enumerate(values):
                self.put_word(base + offset * 8, value)
        return base

    def alloc_floats(self, values: list[float]) -> int:
        """Place a float array in the data segment; returns base address."""
        base = self._next_data
        self._next_data += len(values) * 8
        for offset, value in enumerate(values):
            self.put_float(base + offset * 8, value)
        return base

    # -- finish ---------------------------------------------------------------

    def build(self, entry: int | str = 0) -> Program:
        """Resolve labels and produce the immutable :class:`Program`."""
        instructions = list(self._instructions)
        for index, label in self._pending:
            if label not in self._labels:
                raise AssemblyError(f"undefined label {label!r}")
            old = instructions[index]
            instructions[index] = Instruction(
                op=old.op, rd=old.rd, rs1=old.rs1, rs2=old.rs2, rs3=old.rs3,
                rd2=old.rd2, imm=old.imm, target=self._labels[label])
        for index, instr in enumerate(instructions):
            if instr.op in CONTROL_OPS and instr.op is not Opcode.JALR:
                if instr.target is None or not 0 <= instr.target < len(instructions):
                    raise AssemblyError(
                        f"instruction {index} ({instr.op.value}) has invalid "
                        f"target {instr.target}")
        if isinstance(entry, str):
            if entry not in self._labels:
                raise AssemblyError(f"undefined entry label {entry!r}")
            entry_pc = self._labels[entry]
        else:
            entry_pc = entry
        if not instructions:
            raise AssemblyError("cannot build an empty program")
        return Program(
            name=self.name,
            instructions=tuple(instructions),
            labels=dict(self._labels),
            data=dict(self._data),
            entry=entry_pc,
        )
