"""The VSR functional machine: architected state + instruction semantics.

:class:`Machine` predecodes its program once, at construction, into a
per-PC table: each static instruction becomes one tuple holding its
execution kind, register indices, immediate, ALU/branch function,
memory access size and the static half of its trace row (packed source
registers and opcode code).  One execution core,
:meth:`Machine.execute`, interprets that table and hands every executed
instruction to a row callback as its trace-record fields — the trace
cache passes a :class:`~repro.trace.binary.TraceWriter`'s ``row``, so a
capture builds no per-instruction object.  :meth:`Machine.step` and
:meth:`Machine.run` run on the same core.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from repro.asm.assembler import Program, STACK_TOP
from repro.func import alu
from repro.func.memory_image import MemoryImage
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, InstrFormat, OpClass, Opcode
from repro.isa.registers import NUM_REGS
from repro.trace.columnar import pack_srcs


class MachineError(RuntimeError):
    """Raised on execution faults (bad pc, runaway programs, ...)."""


_LOAD_SIZES = {Opcode.LD: 8, Opcode.LW: 4, Opcode.LBU: 1}
_STORE_SIZES = {Opcode.SD: 8, Opcode.SW: 4, Opcode.SB: 1}

_MASK64 = alu.MASK64

# Execution kinds of a predecoded instruction.  The four kinds that
# produce a register value come first, so the core tests them with one
# comparison.
_ALU, _ALUI, _CONST, _LOAD, _STORE, _BRANCH, _JUMP, _JUMPR = range(8)
_NOP, _PRINT, _HALT, _UNIMPLEMENTED = range(8, 12)


def _sign_extend_32(raw: int) -> int:
    return alu.to_unsigned(raw - (1 << 32)) if raw & (1 << 31) else raw


def _decode(instr: Instruction) -> tuple:
    """One predecoded table entry: ``(kind, rs, rt, imm, fn, size, dest,
    srcs, code)``.

    ``dest`` is the destination register, ``None`` for an instruction
    that writes none *or* writes ``r0`` (the write is discarded and the
    trace records no destination).  ``imm`` is the immediate truncated
    to 64 bits — an ALU operand, an address offset or a branch/jump
    target — or, for wide-immediate loads, the value loaded.  Every
    value the core hands to its row callback is therefore already a
    64-bit unsigned integer.
    """
    opcode = instr.opcode
    fmt = opcode.format
    opclass = opcode.opclass
    kind = _UNIMPLEMENTED
    rs, rt, imm, fn, size = instr.rs, instr.rt, instr.imm & _MASK64, None, None
    if opcode is Opcode.NOP:
        kind = _NOP
    elif opcode is Opcode.HALT:
        kind = _HALT
    elif opcode is Opcode.PRINT:
        kind = _PRINT
    elif fmt is InstrFormat.R:
        fn = alu.binop_function(opcode)
        kind = _ALU if fn is not None else _UNIMPLEMENTED
    elif fmt is InstrFormat.I:
        fn = alu.immop_function(opcode)
        kind = _ALUI if fn is not None else _UNIMPLEMENTED
    elif fmt is InstrFormat.LI:
        kind = _CONST
        imm = alu.to_unsigned(instr.imm << 16 if opcode is Opcode.LUI else instr.imm)
    elif opclass is OpClass.LOAD:
        kind = _LOAD
        size = _LOAD_SIZES[opcode]
        fn = _sign_extend_32 if opcode is Opcode.LW else None
    elif opclass is OpClass.STORE:
        kind = _STORE
        size = _STORE_SIZES[opcode]
    elif opclass is OpClass.BRANCH:
        fn = alu.branch_function(opcode)
        kind = _BRANCH if fn is not None else _UNIMPLEMENTED
        if rt is None:  # compare-with-zero: r0 always reads 0
            rt = 0
    elif opcode is Opcode.J or opcode is Opcode.JAL:
        kind = _JUMP
    elif opcode is Opcode.JR or opcode is Opcode.JALR:
        kind = _JUMPR
    dest = None
    if kind <= _LOAD or opcode is Opcode.JAL or opcode is Opcode.JALR:
        dest = instr.rd or None
    return (kind, rs, rt, imm, fn, size, dest,
            pack_srcs(instr.source_regs()), opcode.code)


@dataclass(frozen=True)
class StepResult:
    """Everything observable about one architecturally executed instruction.

    This is the raw material for dynamic trace records: the timing simulator
    needs the destination value (for value-prediction equality checks), the
    effective address (for cache/LSQ modeling) and the control outcome (for
    branch-prediction modeling).  ``dest_reg``/``dest_value`` are ``None``
    when the instruction writes no register, including a write to ``r0``
    (which is discarded).
    """

    pc: int
    instr: Instruction
    next_pc: int
    dest_reg: int | None = None
    dest_value: int | None = None
    mem_addr: int | None = None
    mem_size: int | None = None
    store_value: int | None = None
    branch_taken: bool | None = None
    halted: bool = False


#: A row callback: ``row(pc, next_pc, dest_reg, dest_value, mem_addr,
#: mem_size, branch_taken, srcs, opcode_code)`` — the signature of
#: ``repro.trace.binary.TraceWriter.row``.
Row = Callable[..., None]


def _discard(*_row) -> None:
    pass


class Machine:
    """Architected-state interpreter for assembled VSR programs."""

    def __init__(self, program: Program):
        self.program = program
        self.regs: list[int] = [0] * NUM_REGS
        self.regs[29] = STACK_TOP  # sp
        self.mem = MemoryImage()
        if program.data:
            self.mem.store_bytes(program.data_base, program.data)
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0
        self.output: list[int] = []  # values emitted by PRINT
        #: pc -> predecoded entry (see :func:`_decode`); only valid text
        #: addresses are keys.
        self._table: dict[int, tuple] = {
            program.text_base + index * INSTRUCTION_BYTES: _decode(instr)
            for index, instr in enumerate(program.instructions)
        }

    # -- register helpers -------------------------------------------------

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    # -- execution ---------------------------------------------------------

    def execute(self, row: Row, max_instructions: int | None = None) -> int:
        """Run until HALT or ``max_instructions`` more instructions, calling
        ``row`` with each executed instruction's trace-record fields;
        returns how many instructions ran (0 once halted).

        This is the machine's one execution core.  A fetch from a
        misaligned pc or one outside the text segment raises the
        program's :class:`~repro.asm.errors.AsmError`; the machine's
        ``pc`` and ``instruction_count`` always reflect the instructions
        that completed.
        """
        if self.halted:
            return 0
        table = self._table
        regs = self.regs
        load = self.mem.load_uint
        store = self.mem.store_uint
        limit = sys.maxsize if max_instructions is None else max_instructions
        pc = self.pc
        count = 0
        try:
            while count < limit:
                entry = table.get(pc)
                if entry is None:
                    self.program.instruction_at(pc)  # raises AsmError
                    raise MachineError(f"no instruction at pc {pc:#x}")
                kind, rs, rt, imm, fn, size, dest, srcs, code = entry
                fall = pc + INSTRUCTION_BYTES
                if kind <= _LOAD:
                    addr = None
                    if kind == _ALU:
                        value = fn(regs[rs], regs[rt])
                    elif kind == _ALUI:
                        value = fn(regs[rs], imm)
                    elif kind == _CONST:
                        value = imm
                    else:
                        addr = (regs[rs] + imm) & _MASK64
                        value = load(addr, size)
                        if fn is not None:
                            value = fn(value)
                    if dest is None:
                        row(pc, fall, None, None, addr, size, None, srcs, code)
                    else:
                        regs[dest] = value & _MASK64
                        row(pc, fall, dest, value, addr, size, None, srcs, code)
                    pc = fall
                elif kind == _BRANCH:
                    taken = fn(regs[rs], regs[rt])
                    target = imm if taken else fall
                    row(pc, target, None, None, None, None, taken, srcs, code)
                    pc = target
                elif kind == _STORE:
                    addr = (regs[rs] + imm) & _MASK64
                    store(addr, regs[rt], size)
                    row(pc, fall, None, None, addr, size, None, srcs, code)
                    pc = fall
                elif kind == _JUMP or kind == _JUMPR:
                    target = imm if kind == _JUMP else regs[rs]
                    if dest is None:
                        row(pc, target, None, None, None, None, True, srcs, code)
                    else:
                        regs[dest] = fall
                        row(pc, target, dest, fall, None, None, True, srcs, code)
                    pc = target
                elif kind != _UNIMPLEMENTED:  # NOP, PRINT or HALT
                    if kind == _PRINT:
                        self.output.append(regs[rs])
                    row(pc, fall, None, None, None, None, None, srcs, code)
                    pc = fall
                    if kind == _HALT:
                        count += 1
                        self.halted = True
                        break
                else:
                    raise MachineError(
                        "unimplemented opcode: "
                        f"{self.program.instruction_at(pc).opcode}"
                    )
                count += 1
        finally:
            self.pc = pc
            self.instruction_count += count
        return count

    def step(self) -> StepResult:
        """Execute one instruction and return its observable effects."""
        if self.halted:
            raise MachineError("machine is halted")
        fields: list = []
        self.execute(lambda *row: fields.extend(row), 1)
        pc, next_pc, dest_reg, dest_value, mem_addr, mem_size, taken = fields[:7]
        instr = self.program.instruction_at(pc)
        store_value = None
        if instr.opclass is OpClass.STORE:
            # A store writes no register, so rt still holds what it stored.
            store_value = self.read_reg(instr.rt) & ((1 << (8 * mem_size)) - 1)
        return StepResult(
            pc, instr, next_pc, dest_reg, dest_value, mem_addr, mem_size,
            store_value, taken, self.halted,
        )

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until HALT; returns the dynamic instruction count."""
        self.execute(_discard, max(0, max_instructions - self.instruction_count))
        if not self.halted:
            raise MachineError(
                f"exceeded instruction budget ({max_instructions}); "
                "runaway program?"
            )
        return self.instruction_count
