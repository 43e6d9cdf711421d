"""Property test: the detection hook may skip the rows where nothing closes.

The OoO core calls :class:`ParallelErrorDetection` only on the row the
hook names as its next event row and hands it the commit cycles of the
rows in between.  Over random programs (the generator of
``test_block_property``: pair ops, non-deterministic reads, traps) and
random log capacities, timeouts, interrupt seqs, checker-core counts and
load-forwarding settings, that must equal calling the hook on every row,
and a timing-splice clone taken between two event rows (while skipped
rows are still pending) must resume to the same result as a straight
run.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.common.config import default_config
from repro.core.ooo_core import OoOCore
from repro.detection.faults import FaultInjector
from repro.detection.system import ParallelErrorDetection, _TimingSpliceCursor
from repro.isa.executor import execute_program

from tests.core.timing_pins import report_fields
from tests.isa.test_block_property import build_program, program_draw

detection_draw = st.fixed_dictionaries({
    "capacity": st.integers(min_value=2, max_value=12),
    "timeout": st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    "interrupts": st.lists(st.integers(min_value=0, max_value=300),
                           max_size=6),
    "cores": st.integers(min_value=1, max_value=3),
    "lfu": st.booleans(),
})


def make_config(d: dict):
    base = default_config()
    return replace(
        base,
        checker=replace(base.checker, num_cores=d["cores"]),
        detection=replace(base.detection,
                          log_bytes=d["capacity"] * 16 * d["cores"],
                          instruction_timeout=d["timeout"],
                          load_forwarding_unit=d["lfu"]),
    ).validate()


class RowSpy(ParallelErrorDetection):
    """Records the rows the core calls ``post_commit`` on."""

    def post_commit(self, seq, commit_cycle):
        self.seen.append(seq)
        return super().post_commit(seq, commit_cycle)


def timed(trace, config, interrupts, every_row=False):
    hook = RowSpy(config, trace.program, interrupt_seqs=interrupts)
    hook.seen = []
    if every_row:
        hook.skipped_commits = None   # the core then calls every row
    result = OoOCore(config).run(trace, hook=hook)
    return result, report_fields(hook.report), hook.seen


@settings(max_examples=80, deadline=None)
@given(program_draw, detection_draw, st.data())
def test_skipping_equals_every_row(draw, detection, data):
    # an attached (empty) injector turns a trap into a crashed trace
    trace = execute_program(build_program(draw), FaultInjector([]),
                            max_instructions=20000)
    config = make_config(detection)
    interrupts = detection["interrupts"]
    skipped = timed(trace, config, interrupts)
    every = timed(trace, config, interrupts, every_row=True)
    assert skipped[:2] == every[:2]
    assert every[2] == list(range(len(trace)))

    # a splice clone (spliced runs take no interrupts) taken strictly
    # between two event rows carries the pending skipped rows through
    # snapshot()/restore()
    events = timed(trace, config, [])[2]
    between = [seq for seq in range(1, len(trace))
               if seq - 1 not in events and seq not in events
               and any(e < seq for e in events)
               and any(e > seq for e in events)]
    if not between:
        return
    fork_seq = data.draw(st.sampled_from(between))
    straight = _TimingSpliceCursor(trace, config)
    core, state, hook = straight.bundle(0)
    core.run_rows(trace, hook, state, len(trace))
    expected = (core.finish_run(trace, hook, state),
                report_fields(hook.report))
    cursor = _TimingSpliceCursor(trace, config)
    core, state, hook = cursor.bundle(fork_seq)
    core.run_rows(trace, hook, state, len(trace))
    assert (core.finish_run(trace, hook, state),
            report_fields(hook.report)) == expected
