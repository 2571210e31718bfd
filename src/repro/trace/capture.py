"""Trace capture: run the functional simulator and record every instruction."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.asm.assembler import Program, assemble
from repro.trace.record import TraceRecord

if TYPE_CHECKING:
    # The machine imports the trace column encoding, so this package
    # must not import the machine at load time.
    from repro.func.machine import Machine


def capture_trace(
    machine: Machine,
    max_instructions: int | None = None,
) -> list[TraceRecord]:
    """Run ``machine`` to completion (or the instruction budget) and return
    the dynamic trace.

    The trace always ends at either program HALT or exactly
    ``max_instructions`` records — truncation is how the experiment harness
    bounds simulation cost on the pure-Python cycle-level engine.
    """
    return list(iter_trace(machine, max_instructions))


def iter_trace(
    machine: Machine,
    max_instructions: int | None = None,
) -> Iterator[TraceRecord]:
    """Yield trace records as the machine executes."""
    seq = 0
    while not machine.halted:
        if max_instructions is not None and seq >= max_instructions:
            return
        step = machine.step()
        instr = step.instr
        yield TraceRecord(
            seq=seq,
            pc=step.pc,
            opcode=instr.opcode,
            src_regs=instr.source_regs(),
            dest_reg=step.dest_reg,
            dest_value=step.dest_value,
            mem_addr=step.mem_addr,
            mem_size=step.mem_size,
            branch_taken=step.branch_taken,
            next_pc=step.next_pc,
        )
        seq += 1


def trace_program(
    source: str,
    max_instructions: int | None = None,
) -> tuple[Program, list[TraceRecord]]:
    """Assemble ``source``, execute it, and return (program, trace)."""
    from repro.func.machine import Machine

    program = assemble(source)
    machine = Machine(program)
    trace = capture_trace(machine, max_instructions)
    return program, trace
