"""Fault models and the fault injector (paper §II-A, §IV-I).

Faults are injected at the **architectural boundary of the main core** —
register writebacks, load values after the load-forwarding-unit capture
point, store data/addresses in the store queue, branch outcomes, the PC,
register checkpoints — plus checker-side faults for the over-detection
experiments.  Caches and DRAM are ECC-protected (§IV-A) and never corrupted.

Two duration classes:

* :class:`TransientFault` — a single-event upset: one bit, one dynamic
  instruction.
* :class:`HardFault` — a permanent functional-unit defect: every dynamic
  execution of the matching opcode produces a corrupted result from
  ``start_seq`` onwards.

:class:`FaultInjector` applies these while the functional executor runs,
by wrapping the machine's memory ports and post-processing each step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import FaultSpecError
from repro.isa.executor import LOAD, Machine
from repro.isa.instructions import BRANCH_OPS, MASK64, Opcode
from repro.isa.memory_image import bits_to_float, float_to_bits


class FaultSite(enum.Enum):
    """Where in the main core a fault strikes."""

    #: The writeback value of any instruction (ALU/FPU/load destination).
    RESULT = "result"
    #: A loaded value in a physical register, after the LFU captured it.
    #: (The detectability of this site is exactly what the load forwarding
    #: unit exists for — see the LFU ablation benchmark.)
    LOAD_VALUE = "load_value"
    #: The address a load accesses (AGU fault): main core reads the wrong
    #: location and the log records the wrong address.
    LOAD_ADDR = "load_addr"
    #: Store data in the store queue: memory and log both get the bad value.
    STORE_VALUE = "store_value"
    #: Store address in the store queue: memory and log both get it.
    STORE_ADDR = "store_addr"
    #: A conditional branch resolves the wrong way.
    BRANCH = "branch"
    #: The program counter is corrupted after an instruction commits.
    PC = "pc"
    #: A register checkpoint is corrupted as it is copied out.
    CHECKPOINT = "checkpoint"
    #: A checker core computes a wrong value during replay (over-detection:
    #: reported as an error even though the main computation is fine).
    CHECKER = "checker"


#: Sites the injector handles inside the main-core functional execution.
EXECUTION_SITES = frozenset({
    FaultSite.RESULT, FaultSite.LOAD_VALUE, FaultSite.LOAD_ADDR,
    FaultSite.STORE_VALUE, FaultSite.STORE_ADDR, FaultSite.BRANCH,
    FaultSite.PC,
})


@dataclass(frozen=True)
class TransientFault:
    """A single-bit single-event upset.

    ``seq`` is the dynamic instruction index it strikes; ``bit`` the bit
    flipped (ignored for BRANCH); ``memop_index`` selects which micro-op of
    a pair instruction is hit.  For CHECKPOINT faults ``seq`` is the
    checkpoint index and ``reg`` names the register (e.g. ``"x7"``).
    For CHECKER faults ``seq`` is the dynamic index within the whole trace
    whose replayed writeback is corrupted.
    """

    site: FaultSite
    seq: int
    bit: int = 0
    memop_index: int = 0
    reg: str = "x1"

    def validate(self) -> None:
        if self.seq < 0:
            raise FaultSpecError("fault seq must be non-negative")
        if not 0 <= self.bit < 64:
            raise FaultSpecError("bit must be in 0..63")
        if self.memop_index < 0:
            raise FaultSpecError("memop_index must be non-negative")


@dataclass(frozen=True)
class HardFault:
    """A permanent defect in the functional unit executing ``opcode``.

    From ``start_seq`` on, every result of ``opcode`` is XORed with
    ``mask`` — a stuck-at-style corruption that, unlike a transient,
    repeats until the part is retired.
    """

    opcode: Opcode
    mask: int = 1
    start_seq: int = 0

    def validate(self) -> None:
        if not 0 < self.mask <= MASK64:
            raise FaultSpecError("hard-fault mask must be a nonzero 64-bit value")
        if self.start_seq < 0:
            raise FaultSpecError("start_seq must be non-negative")


def earliest_fault_seq(faults: list[TransientFault | HardFault]) -> int | None:
    """The first dynamic seq at which main-core execution can diverge
    from the golden trace, or None when no fault touches execution.

    Execution-site transients strike exactly at their ``seq``; a hard
    fault corrupts every matching opcode from ``start_seq`` on.
    CHECKPOINT/CHECKER faults never perturb the main core's run, so a
    job carrying only those forks past the end of the golden trace.
    """
    seqs = [
        fault.start_seq if isinstance(fault, HardFault) else fault.seq
        for fault in faults
        if isinstance(fault, HardFault) or fault.site in EXECUTION_SITES
    ]
    return min(seqs) if seqs else None


def fork_seq_of(faults: list[TransientFault | HardFault],
                trace_len: int) -> int:
    """The last safe commit seq before the earliest of ``faults``:
    golden rows ``[0, fork_seq)`` are provably clean, so a fork-point
    execution may splice them (clamped to ``trace_len`` for faults
    targeting seqs past the end of the golden trace, and for faults that
    never touch execution)."""
    earliest = earliest_fault_seq(faults)
    return trace_len if earliest is None else min(earliest, trace_len)


class FaultInjector:
    """Applies fault specs during main-core functional execution.

    Usage (done internally by :func:`repro.isa.executor.execute_program`)::

        injector = FaultInjector([TransientFault(FaultSite.RESULT, seq=1000, bit=3)])
        trace = execute_program(program, fault_injector=injector)

    After the run, :attr:`activations` lists the faults that actually fired
    (a transient targeting seq beyond the end of execution never does).
    """

    def __init__(self, faults: list[TransientFault | HardFault]) -> None:
        self.faults = list(faults)
        self.transients: dict[int, list[TransientFault]] = {}
        self.hard_faults: list[HardFault] = []
        for fault in faults:
            fault.validate()
            if isinstance(fault, HardFault):
                self.hard_faults.append(fault)
            elif fault.site in EXECUTION_SITES:
                self.transients.setdefault(fault.seq, []).append(fault)
            elif fault.site in (FaultSite.CHECKPOINT, FaultSite.CHECKER):
                # handled by the detection system, not the executor
                pass
            else:  # pragma: no cover - enum is closed
                raise FaultSpecError(f"unhandled fault site {fault.site}")
        self.activations: list[tuple[int, FaultSite]] = []
        self._memop_counter = 0

    def last_execution_seq(self) -> int | None:
        """The last commit seq at which this injector can still perturb
        execution, or ``None`` when it must observe every instruction
        (hard faults strike on every matching opcode).

        Past this seq the commit loop may drop back to the plain
        handler path: the transient dicts hold no later seqs, so the
        wrapped ports and :meth:`step` would pass everything through
        unchanged anyway — skipping them is pure speed, invisible in
        the committed trace.
        """
        if self.hard_faults:
            return None
        return max(self.transients, default=-1)

    def fork_seq(self, trace_len: int) -> int:
        """This injector's fork seq (see :func:`fork_seq_of`)."""
        return fork_seq_of(self.faults, trace_len)

    # -- executor integration ------------------------------------------------

    def attach(self, machine: Machine) -> None:
        """Wrap the machine's memory ports with fault application."""
        original_load = machine.load_port
        original_store = machine.store_port

        def load_port(addr: int) -> tuple[int, int]:
            which = self._memop_counter
            self._memop_counter += 1
            for fault in self.transients.get(machine.instr_count, ()):
                if fault.site is FaultSite.LOAD_ADDR and fault.memop_index == which:
                    addr = self._flip_addr(addr, fault.bit)
                    self.activations.append((machine.instr_count, fault.site))
            return original_load(addr)

        def store_port(addr: int, value: int) -> tuple[int, int]:
            which = self._memop_counter
            self._memop_counter += 1
            for fault in self.transients.get(machine.instr_count, ()):
                if fault.memop_index != which:
                    continue
                if fault.site is FaultSite.STORE_ADDR:
                    addr = self._flip_addr(addr, fault.bit)
                    self.activations.append((machine.instr_count, fault.site))
                elif fault.site is FaultSite.STORE_VALUE:
                    value ^= 1 << fault.bit
                    self.activations.append((machine.instr_count, fault.site))
            return original_store(addr, value)

        machine.load_port = load_port
        machine.store_port = store_port

    @staticmethod
    def _flip_addr(addr: int, bit: int) -> int:
        # flip within the word-offset-preserving part of the address so the
        # access stays aligned (hardware AGU faults on low bits would trap
        # on alignment — equally detectable, but less interesting)
        bit = max(bit, 3)
        return addr ^ (1 << bit)

    def step(self, machine: Machine, seq: int) -> tuple[tuple, tuple, bool | None]:
        """Execute one instruction with fault application."""
        self._memop_counter = 0
        pc_before = machine.pc
        # fetch first: a pc outside the program raises the machine's own
        # fetch error, which the commit loop classifies as a crash
        dsts, mem, taken = machine.step()
        instr = machine.program.instructions[pc_before]

        faults = self.transients.get(seq)
        if faults:
            for fault in faults:
                if fault.site in (FaultSite.RESULT, FaultSite.LOAD_VALUE):
                    dsts, mem = self._corrupt_result(
                        machine, instr, dsts, mem, fault)
                elif fault.site is FaultSite.BRANCH and taken is not None \
                        and instr.op in BRANCH_OPS:
                    taken = not taken
                    machine.pc = instr.target if taken else pc_before + 1
                    self.activations.append((seq, fault.site))
                elif fault.site is FaultSite.PC:
                    machine.pc = (machine.pc ^ (1 << fault.bit)) \
                        % len(machine.program.instructions)
                    self.activations.append((seq, fault.site))

        for hard in self.hard_faults:
            if seq >= hard.start_seq and instr.op is hard.opcode and dsts:
                dsts = self._apply_hard(machine, dsts, hard)
                self.activations.append((seq, FaultSite.RESULT))

        return dsts, mem, taken

    def _corrupt_result(self, machine: Machine, instr, dsts: tuple,
                        mem: tuple, fault: TransientFault) -> tuple[tuple, tuple]:
        """Flip a bit in a writeback value (and the register holding it).

        ``mem`` entries are the executor's raw ``(kind, addr, value,
        used_value)`` tuples; the corrupted copy is returned alongside
        the new writebacks."""
        if not dsts:
            return dsts, mem
        which = min(fault.memop_index, len(dsts) - 1)
        if fault.site is FaultSite.LOAD_VALUE and not any(
                entry[0] == LOAD for entry in mem):
            return dsts, mem  # LOAD_VALUE only strikes loads
        is_fp, idx, value = dsts[which]
        if is_fp:
            bad = bits_to_float(float_to_bits(value) ^ (1 << fault.bit))
            machine.fregs[idx] = bad
        else:
            bad = value ^ (1 << fault.bit)
            if idx != 0:
                machine.xregs[idx] = bad
        new_dsts = list(dsts)
        new_dsts[which] = (is_fp, idx, bad)
        # mark the architecturally-used value on the matching load record,
        # so LFU-off mode forwards the corrupted value into the log
        if which < len(mem) and mem[which][0] == LOAD:
            kind, addr, value, _used = mem[which]
            used = float_to_bits(bad) if is_fp else bad
            mem = (mem[:which] + ((kind, addr, value, used),)
                   + mem[which + 1:])
        self.activations.append((machine.instr_count - 1, fault.site))
        return tuple(new_dsts), mem

    def _apply_hard(self, machine: Machine, dsts: tuple, hard: HardFault) -> tuple:
        is_fp, idx, value = dsts[0]
        if is_fp:
            bad = bits_to_float(float_to_bits(value) ^ hard.mask)
            machine.fregs[idx] = bad
        else:
            bad = (value ^ hard.mask) & MASK64
            if idx != 0:
                machine.xregs[idx] = bad
        return ((is_fp, idx, bad),) + dsts[1:]


def system_faults(faults: list[TransientFault | HardFault]) -> dict:
    """Split out the fault specs handled by the detection system itself.

    Returns ``{"checkpoint": [...], "checker": [...]}``.
    """
    result = {"checkpoint": [], "checker": []}
    for fault in faults:
        if isinstance(fault, TransientFault):
            if fault.site is FaultSite.CHECKPOINT:
                result["checkpoint"].append(fault)
            elif fault.site is FaultSite.CHECKER:
                result["checker"].append(fault)
    return result
