"""Fork-point execution: keyframes, state reconstruction, trace splicing.

The contract under test is *byte identity*: state materialised at an
arbitrary fork seq (keyframe deltas + column replay) must equal the
state of a full execution stopped at that seq, and a forked faulty run
must produce exactly the trace a full faulty execution produces.
"""

from __future__ import annotations

import threading
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.detection.faults import (
    EXECUTION_SITES,
    FaultInjector,
    FaultSite,
    HardFault,
    TransientFault,
    earliest_fault_seq,
)
from repro.isa import executor
from repro.isa.blocks import STATS
from repro.isa.executor import (
    ForkCursor,
    Machine,
    Trace,
    execute_forked,
    execute_program,
    fork_cursor,
    fork_state,
)
from repro.isa.instructions import Opcode
from repro.isa.memory_image import float_to_bits
from repro.isa.program import ProgramBuilder
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    benchmark_trace,
    build_benchmark,
)
from repro.workloads.trace_store import TraceStore

from tests.conftest import build_rmw_loop, never_firing_faults
from tests.isa.test_block_property import build_program, program_draw

FAULT_SITES = sorted(EXECUTION_SITES, key=lambda site: site.value)


def machine_after(program, steps: int) -> Machine:
    """A machine stepped ``steps`` instructions into a fresh execution."""
    machine = Machine(program)
    for _ in range(steps):
        machine.step()
    return machine


def assert_states_equal(state, machine, fork_seq):
    assert state.xregs == machine.xregs, fork_seq
    assert [float_to_bits(v) for v in state.fregs] == \
        [float_to_bits(v) for v in machine.fregs], fork_seq
    assert dict(state.memory.items()) == dict(machine.memory.items()), fork_seq


class TestForkState:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_equals_truncated_execution_all_workloads(self, name):
        """Keyframe + column replay == really executing to the fork seq."""
        trace = benchmark_trace(name, "small")
        fork_seq = (2 * len(trace)) // 3 + 7   # off any keyframe boundary
        state = fork_state(trace, fork_seq)
        machine = machine_after(trace.program, fork_seq)
        assert_states_equal(state, machine, fork_seq)
        assert state.pc == machine.pc

    def test_boundary_seqs(self):
        trace = benchmark_trace("stream", "small")
        n = len(trace)
        for fork_seq in (0, 1, 999, 1000, 1001, n - 1, n):
            state = fork_state(trace, fork_seq)
            machine = machine_after(trace.program, fork_seq)
            assert_states_equal(state, machine, fork_seq)
        # at the end of the trace the "next pc" is the final one
        assert fork_state(trace, n).pc == trace.final_next_pc

    def test_prefix_counts_match_full_execution(self):
        trace = benchmark_trace("stream", "small")
        n = len(trace)
        state = fork_state(trace, n)
        assert (state.uops, state.loads, state.stores) == \
            (trace.uop_count, trace.load_count, trace.store_count)

    def test_out_of_range_seq_rejected(self):
        trace = execute_program(build_rmw_loop(iterations=5))
        with pytest.raises(ExecutionError):
            fork_state(trace, len(trace) + 1)


def assert_same_fork_state(got, want, fork_seq):
    """Registers by bit pattern, memory, pc and prefix counts."""
    assert got.xregs == want.xregs, fork_seq
    assert [float_to_bits(v) for v in got.fregs] == \
        [float_to_bits(v) for v in want.fregs], fork_seq
    assert dict(got.memory.items()) == dict(want.memory.items()), fork_seq
    assert (got.pc, got.uops, got.loads, got.stores) == \
        (want.pc, want.uops, want.loads, want.stores), fork_seq


def scribble(state) -> None:
    """What a live machine may do to the containers it was handed."""
    state.xregs[1] ^= 0xFF
    state.fregs[2] = -1.5
    state.memory.store(0x7FF8, 0xDEAD)


#: A random program (drawn) or one of two suite traces (stores; FP).
golden_draw = st.one_of(program_draw, st.sampled_from(["stream",
                                                       "blackscholes"]))


class TestForkCursor:
    @settings(max_examples=40, deadline=None)
    @given(golden_draw, st.data())
    def test_any_seq_order_equals_fork_state(self, source, data):
        """Ascending, descending, repeated, 0 and the end: every state
        the cursor hands out equals ``fork_state``'s, and each comes in
        fresh containers — scribbling on one changes no later one."""
        if isinstance(source, str):
            golden = benchmark_trace(source, "small")
        else:
            try:
                golden = execute_program(build_program(source),
                                         max_instructions=2000)
            except ExecutionError:
                assume(False)  # the clean program itself traps
        n = len(golden)
        seqs = data.draw(st.lists(st.integers(0, n), min_size=1,
                                  max_size=8))
        order = data.draw(st.sampled_from(["drawn", "ascending",
                                           "descending"]))
        if order != "drawn":
            seqs.sort(reverse=order == "descending")
        seqs += [seqs[-1], 0, n, n, seqs[0]]
        cursor = ForkCursor(golden)
        for seq in seqs:
            state = cursor.state(golden, seq)
            assert_same_fork_state(state, fork_state(golden, seq), seq)
            scribble(state)

    def test_rewind_restarts_from_the_initial_state(self):
        golden = benchmark_trace("stream", "small")
        cursor = ForkCursor(golden)
        late, early = len(golden) - 5, 1003
        cursor.state(golden, late)
        assert_same_fork_state(cursor.state(golden, early),
                               fork_state(golden, early), early)
        # and walks forward again from there
        assert_same_fork_state(cursor.state(golden, late),
                               fork_state(golden, late), late)

    def test_registry_serves_one_cursor_per_golden(self, monkeypatch):
        monkeypatch.setattr(executor, "_FORK_CURSORS", {})
        monkeypatch.setattr(executor, "FORK_CURSOR_CAP", 2)
        a, b, c = (benchmark_trace(name, "small")
                   for name in ("stream", "bitcount", "randacc"))
        first = fork_cursor(a)
        assert fork_cursor(a) is first and first.golden is a
        second = fork_cursor(b)
        fork_cursor(a)          # touched: b is now the oldest
        fork_cursor(c)
        assert len(executor._FORK_CURSORS) == 2
        assert fork_cursor(a) is first
        assert fork_cursor(b) is not second

    def test_threads_take_turns(self, monkeypatch):
        """A second thread's ``state`` call waits until the first one's
        has returned.  The first thread parks inside its row replay
        until the second has called ``state`` and, unless the cursor's
        lock holds it off, finished; the wait is bounded, so the locked
        cursor cannot deadlock."""
        golden = benchmark_trace("stream", "small")
        cursor = ForkCursor(golden)
        seqs = {"first": 2500, "second": 2600}
        second_called = threading.Event()
        second_done = threading.Event()
        real_replay = executor._replay_rows
        real_state = ForkCursor.state
        parked = []

        def replay(*args):
            if threading.current_thread().name == "first" and not parked:
                parked.append(True)
                spawn("second")
                assert second_called.wait(10)
                second_done.wait(0.5)
            return real_replay(*args)

        def state(self, golden, fork_seq):
            second = threading.current_thread().name == "second"
            if second:
                second_called.set()
            try:
                return real_state(self, golden, fork_seq)
            finally:
                if second:
                    second_done.set()

        monkeypatch.setattr(executor, "_replay_rows", replay)
        monkeypatch.setattr(ForkCursor, "state", state)
        results, errors, threads = {}, [], []

        def run(name):
            try:
                results[name] = cursor.state(golden, seqs[name])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def spawn(name):
            thread = threading.Thread(target=run, args=(name,), name=name)
            threads.append(thread)
            thread.start()

        spawn("first")
        threads[0].join(30)     # the first thread spawns the second
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert not errors, errors
        for name, seq in seqs.items():
            assert_same_fork_state(results[name], fork_state(golden, seq),
                                   seq)


class TestKeyframes:
    def test_interval_and_placement(self):
        trace = benchmark_trace("stream", "small")
        kf = trace.keyframes()
        assert kf.frames, "suite traces are long enough to have keyframes"
        assert [f.seq for f in kf.frames] == \
            [s for s in range(kf.interval, len(trace), kf.interval)]

    def test_store_round_trip_bit_exact(self, tmp_path):
        program = build_benchmark("blackscholes", "small")
        trace = execute_program(program)  # FP deltas
        kf = trace.keyframes(500)
        store = TraceStore(tmp_path)
        key = store.key("blackscholes", "small", program)
        store.put(key, trace)
        loaded = store.get(key, program).keyframes()
        assert loaded.interval == kf.interval == 500
        assert len(loaded.frames) == len(kf.frames)
        for a, b in zip(loaded.frames, kf.frames):
            assert a.seq == b.seq
            assert a.xregs == b.xregs
            assert a.mem == b.mem
            assert {i: float_to_bits(v) for i, v in a.fregs.items()} == \
                {i: float_to_bits(v) for i, v in b.fregs.items()}
            assert (a.uops, a.loads, a.stores) == (b.uops, b.loads, b.stores)

    def test_custom_interval_rebuilds(self):
        trace = execute_program(build_rmw_loop(iterations=100))
        coarse = trace.keyframes(400)
        assert coarse.interval == 400
        # fork_state consumes whatever interval is cached
        seq = len(trace) - 3
        a = fork_state(trace, seq)
        fine = trace.keyframes(100)
        assert fine.interval == 100
        b = fork_state(trace, seq)
        assert a.xregs == b.xregs
        assert dict(a.memory.items()) == dict(b.memory.items())


class TestForkSeq:
    def test_earliest_over_mixed_faults(self):
        faults = [
            TransientFault(FaultSite.RESULT, seq=500),
            TransientFault(FaultSite.STORE_ADDR, seq=200),
            HardFault(Opcode.ADD, mask=1, start_seq=350),
        ]
        assert earliest_fault_seq(faults) == 200
        assert FaultInjector(faults).fork_seq(10_000) == 200

    def test_detection_side_faults_fork_past_the_end(self):
        faults = [TransientFault(FaultSite.CHECKPOINT, seq=3),
                  TransientFault(FaultSite.CHECKER, seq=40)]
        assert earliest_fault_seq(faults) is None
        assert FaultInjector(faults).fork_seq(777) == 777

    def test_clamped_to_trace_length(self):
        faults = [TransientFault(FaultSite.RESULT, seq=10_000)]
        assert FaultInjector(faults).fork_seq(100) == 100


#: Trace fields holding mutable containers (columns, final registers,
#: the memory image): a forked trace must own every one of them.
MUTABLE_TRACE_FIELDS = ("pcs", "dsts", "takens", "mem_off", "mem_kind",
                        "mem_addr", "mem_value", "mem_used", "final_xregs",
                        "final_fregs", "memory")


def assert_owns_its_state(faulty: Trace, golden: Trace) -> None:
    for name in MUTABLE_TRACE_FIELDS:
        assert getattr(faulty, name) is not getattr(golden, name), name
    assert faulty.memory._words is not golden.memory._words


class TestExecuteForked:
    def _assert_identical(self, program_or_trace, faults, **kwargs):
        """A forked run equals the full one; it is the golden trace
        itself when nothing fired or crashed, and otherwise a new trace
        that owns its state."""
        golden = (program_or_trace if isinstance(program_or_trace, Trace)
                  else execute_program(program_or_trace))
        full_inj = FaultInjector(list(faults))
        full = execute_program(golden.program, fault_injector=full_inj,
                               **kwargs)
        fork_inj = FaultInjector(list(faults))
        forked = execute_forked(golden, fork_inj, **kwargs)
        assert full.to_payload() == forked.to_payload()
        assert full_inj.activations == fork_inj.activations
        if fork_inj.activations or forked.crashed:
            assert forked.fork_of is golden
            assert_owns_its_state(forked, golden)
        else:
            assert forked is golden
        return forked

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_byte_identical_every_site_uniform_seqs(self, name):
        """Faults that never fire get the golden trace back, the rest
        resume execution: both must match a full faulty execution."""
        golden = benchmark_trace(name, "small")
        n = len(golden)
        fired = 0
        for site in FAULT_SITES:
            for seq in (n // 3, (2 * n) // 3):
                forked = self._assert_identical(
                    golden, [TransientFault(site, seq=seq, bit=5)])
                fired += forked.dsts != golden.dsts
        assert fired, "some sweep fault must change the trace"

    def test_never_fired_faults_return_golden(self):
        golden = benchmark_trace("stream", "small")
        for fault in never_firing_faults(golden, len(golden) // 2):
            assert self._assert_identical(golden, [fault]) is golden

    def test_never_fired_fault_executes_only_its_own_row(self):
        """The engage pin: live execution stops at the inert point."""
        golden = benchmark_trace("freqmine", "small")
        for fault in never_firing_faults(golden, len(golden) // 3):
            injector = FaultInjector([fault])
            before = STATS.total_instrs
            forked = execute_forked(golden, injector)
            assert STATS.total_instrs - before == 1
            assert not injector.activations
            assert len(forked) == len(golden) and forked.halted

    def test_last_row_and_past_the_end(self):
        golden = benchmark_trace("randacc", "small")
        n = len(golden)
        for site in FAULT_SITES:
            for seq in (n - 1, n + 5):
                self._assert_identical(golden,
                                       [TransientFault(site, seq=seq, bit=2)])

    def test_store_loaded_golden_with_memoryview_columns(self, tmp_path):
        store = TraceStore(tmp_path)
        program = build_benchmark("blackscholes", "small")
        key = store.key("blackscholes", "small", program)
        store.put(key, execute_program(program))
        golden = store.get(key, program)
        assert isinstance(golden.pcs, memoryview)
        n = len(golden)
        faults = never_firing_faults(golden, n // 2) + [
            TransientFault(FaultSite.RESULT, seq=n // 2, bit=7),
            TransientFault(FaultSite.STORE_VALUE, seq=n // 4, bit=3)]
        fired = 0
        for fault in faults:
            forked = self._assert_identical(golden, [fault])
            if forked is not golden:
                fired += 1
                assert isinstance(forked.pcs, array)
                assert isinstance(forked.mem_addr, array)
        assert fired, "some fault must splice the memory-mapped columns"

    @settings(max_examples=60, deadline=None)
    @given(program_draw, st.sampled_from(FAULT_SITES),
           st.floats(min_value=0.0, max_value=1.2),
           st.integers(min_value=0, max_value=63))
    def test_byte_identical_on_random_programs(self, draw, site, where, bit):
        """Random programs (loops, traps, nondet, FP): whichever way a
        fault ends — never fired, fired and resumed, trapped or ran
        away — the forked run matches the full one."""
        try:
            golden = execute_program(build_program(draw),
                                     max_instructions=2000)
        except ExecutionError:
            assume(False)  # the clean program itself traps: no golden
        fault = TransientFault(site, seq=int(where * len(golden)), bit=bit)
        self._assert_identical(golden, [fault], max_instructions=2000)

    @settings(max_examples=60, deadline=None)
    @given(program_draw,
           st.lists(st.floats(min_value=0.0, max_value=1.2),
                    min_size=len(FAULT_SITES), max_size=len(FAULT_SITES)),
           st.integers(min_value=0, max_value=63),
           st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.2)))
    def test_golden_back_exactly_when_nothing_fired(self, draw, wheres, bit,
                                                    stop):
        """Random programs, a uniform seq at every execution site, with
        and without ``stop_seq``: the forked run is ``golden`` itself
        exactly when the full run records no activation and does not
        crash, and otherwise equals the full run byte for byte."""
        try:
            golden = execute_program(build_program(draw),
                                     max_instructions=2000)
        except ExecutionError:
            assume(False)  # the clean program itself traps: no golden
        n = len(golden)
        stop_seq = None if stop is None else int(stop * n)
        for site, where in zip(FAULT_SITES, wheres):
            fault = TransientFault(site, seq=int(where * n), bit=bit)
            full_inj = FaultInjector([fault])
            full = execute_program(golden.program, fault_injector=full_inj,
                                   max_instructions=2000, stop_seq=stop_seq)
            fork_inj = FaultInjector([fault])
            forked = execute_forked(golden, fork_inj, max_instructions=2000,
                                    stop_seq=stop_seq)
            assert fork_inj.activations == full_inj.activations
            quiet = not full_inj.activations and not full.crashed
            assert (forked is golden) == quiet, fault
            if quiet:
                # the full run is the golden run, up to where it stopped
                if stop_seq is None:
                    assert full.to_payload() == golden.to_payload()
                assert list(full.pcs) == list(golden.pcs[:len(full)])
                continue
            assert forked.to_payload() == full.to_payload(), fault
            assert forked.fork_of is golden
            assert_owns_its_state(forked, golden)

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_byte_identical_late_result_fault_all_workloads(self, name):
        golden = benchmark_trace(name, "small")
        fault = TransientFault(FaultSite.RESULT, seq=len(golden) - 40, bit=3)
        forked = self._assert_identical(golden, [fault])
        if forked is golden:  # a row that writes no register
            assert not golden.dsts[fault.seq]
        else:
            assert forked.fork_seq == fault.seq

    def test_byte_identical_across_sites(self):
        golden = benchmark_trace("stream", "small")
        n = len(golden)
        for fault in [
            TransientFault(FaultSite.LOAD_VALUE, seq=n // 2, bit=9),
            TransientFault(FaultSite.LOAD_ADDR, seq=n - 300, bit=5),
            TransientFault(FaultSite.STORE_VALUE, seq=n - 80, bit=1),
            TransientFault(FaultSite.STORE_ADDR, seq=n - 80, bit=6),
            TransientFault(FaultSite.BRANCH, seq=n - 120),
            TransientFault(FaultSite.PC, seq=n - 60, bit=2),
            HardFault(Opcode.ADD, mask=8, start_seq=n - 500),
        ]:
            self._assert_identical(golden, [fault])

    def test_detection_side_fault_returns_golden(self):
        golden = benchmark_trace("bitcount", "small")
        fault = TransientFault(FaultSite.CHECKER, seq=7)
        before = STATS.total_instrs
        assert self._assert_identical(golden, [fault]) is golden
        # the full run executes every row, the forked one none
        assert STATS.total_instrs - before == len(golden)

    def test_unaligned_trap_crash_identical(self):
        # same shape as the columnar crash pin: a RESULT fault flips the
        # address register's low bit and the following load traps
        b = ProgramBuilder("trap")
        b.put_word(0x1000, 7)
        b.emit(Opcode.MOVI, rd=1, imm=0x1000)
        b.emit(Opcode.ADDI, rd=2, rs1=1, imm=0)
        b.emit(Opcode.LD, rd=3, rs1=2, imm=0)
        b.emit(Opcode.HALT)
        forked = self._assert_identical(
            b.build(), [TransientFault(FaultSite.RESULT, seq=1, bit=0)])
        assert forked.crashed and not forked.halted

    def test_runaway_loop_crash_identical(self):
        b = ProgramBuilder("branchspin")
        b.emit(Opcode.MOVI, rd=1, imm=0)
        b.emit(Opcode.MOVI, rd=2, imm=30)
        b.label("loop")
        b.emit(Opcode.ADDI, rd=1, rs1=1, imm=1)
        b.emit(Opcode.BLT, rs1=1, rs2=2, target="loop")
        b.emit(Opcode.HALT)
        # flipping the counter's sign bit turns the loop unbounded
        fault = TransientFault(FaultSite.RESULT, seq=40, bit=63)
        self._assert_identical(b.build(), [fault], max_instructions=200)

    def test_fork_requires_clean_golden(self):
        injector = FaultInjector(
            [TransientFault(FaultSite.RESULT, seq=1, bit=0)])
        b = ProgramBuilder("trap")
        b.put_word(0x1000, 7)
        b.emit(Opcode.MOVI, rd=1, imm=0x1000)
        b.emit(Opcode.ADDI, rd=2, rs1=1, imm=0)
        b.emit(Opcode.LD, rd=3, rs1=2, imm=0)
        b.emit(Opcode.HALT)
        crashed = execute_program(b.build(), fault_injector=injector)
        with pytest.raises(ExecutionError):
            execute_forked(crashed, FaultInjector([]))
