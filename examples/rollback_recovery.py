#!/usr/bin/env python3
"""Full fault tolerance: detection + rollback recovery.

The DSN'18 paper provides detection and names checkpoint-based rollback
as the correction companion (its stated future work).  This example runs
the complete loop the `repro.recovery` extension implements:

1. a transient fault corrupts the main core's execution;
2. the checker cores detect it and strong induction identifies the
   first failing segment;
3. state rolls back to the start of that segment, the last point every
   earlier check has *verified* (registers and memory, rebuilt from the
   committed trace);
4. the program re-executes from there and completes with a final state
   identical to a fault-free run.

Run:  python examples/rollback_recovery.py
"""

from repro import (
    FaultInjector,
    FaultSite,
    TransientFault,
    default_config,
    execute_program,
)
from repro.recovery import detect_and_recover
from repro.workloads.suite import build_benchmark


def main() -> None:
    config = default_config()
    program = build_benchmark("freqmine", "small")
    clean = execute_program(program)
    print(f"workload: freqmine ({len(clean)} instructions, "
          f"{clean.store_count} stores)")

    fault = TransientFault(FaultSite.LOAD_VALUE, seq=len(clean) // 2, bit=11)
    injector = FaultInjector([fault])
    faulty = execute_program(program, fault_injector=injector)
    if not injector.activations:
        # the chosen seq was not a load; nudge until one activates
        seq = len(clean) // 2
        while not injector.activations:
            seq += 1
            injector = FaultInjector(
                [TransientFault(FaultSite.LOAD_VALUE, seq=seq, bit=11)])
            faulty = execute_program(program, fault_injector=injector)
        fault = TransientFault(FaultSite.LOAD_VALUE, seq=seq, bit=11)

    print(f"injected: load-value bit {fault.bit} flip at dynamic "
          f"instruction {fault.seq}")

    outcome = detect_and_recover(clean, faulty, config)
    print(f"detected:       {outcome.detected}")
    print(f"rolled back to: commit #{outcome.rollback_seq}")
    print(f"re-executed:    {outcome.replayed_instructions} instructions "
          f"({100 * outcome.replayed_instructions / len(clean):.1f}% of "
          f"the run)")
    print(f"recovered:      {outcome.recovered}")
    print(f"state correct:  {outcome.state_correct} "
          f"(final registers AND memory match the fault-free run)")

    if outcome.state_correct:
        print("\nfull fault tolerance achieved: the corruption that had "
              "already\nescaped into memory was undone by the verified-"
              "snapshot rollback.")


if __name__ == "__main__":
    main()
