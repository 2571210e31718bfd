"""Arithmetic/logic operation semantics for the VSR ISA.

All register values are 64-bit.  Helpers convert between the unsigned
representation stored in the register file and Python's unbounded signed
integers.  Floating-point opcodes operate on Q32.32 fixed-point encodings so
the whole machine stays integer-valued and bit-exact across platforms — the
timing study only cares about their multi-cycle latency, not IEEE semantics.
"""

from __future__ import annotations

from repro.isa.opcodes import Opcode

MASK64 = (1 << 64) - 1
_FIXED_SHIFT = 32


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


def to_unsigned(value: int) -> int:
    """Truncate a Python integer into the 64-bit unsigned representation."""
    return value & MASK64


def _shift_amount(value: int) -> int:
    return value & 0x3F


def _div_trunc(a: int, b: int) -> int:
    """Signed division truncating toward zero (C semantics)."""
    if b == 0:
        return -1 & MASK64  # division by zero yields all-ones, like RISC-V
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return to_unsigned(q)


def _rem_trunc(a: int, b: int) -> int:
    """Signed remainder with the sign of the dividend (C semantics)."""
    if b == 0:
        return to_unsigned(a)
    r = abs(a) % abs(b)
    if a < 0:
        r = -r
    return to_unsigned(r)


def _fixed_mul(a: int, b: int) -> int:
    return to_unsigned((to_signed(a) * to_signed(b)) >> _FIXED_SHIFT)


def _fixed_div(a: int, b: int) -> int:
    sb = to_signed(b)
    if sb == 0:
        return MASK64
    return to_unsigned((to_signed(a) << _FIXED_SHIFT) // sb)


_BINOPS = {
    Opcode.ADD: lambda a, b: to_unsigned(a + b),
    Opcode.SUB: lambda a, b: to_unsigned(a - b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.NOR: lambda a, b: to_unsigned(~(a | b)),
    Opcode.SLL: lambda a, b: to_unsigned(a << _shift_amount(b)),
    Opcode.SRL: lambda a, b: a >> _shift_amount(b),
    Opcode.SRA: lambda a, b: to_unsigned(to_signed(a) >> _shift_amount(b)),
    Opcode.SLT: lambda a, b: int(to_signed(a) < to_signed(b)),
    Opcode.SLTU: lambda a, b: int(a < b),
    Opcode.MIN: lambda a, b: a if to_signed(a) <= to_signed(b) else b,
    Opcode.MAX: lambda a, b: a if to_signed(a) >= to_signed(b) else b,
    Opcode.MUL: lambda a, b: to_unsigned(to_signed(a) * to_signed(b)),
    Opcode.MULH: lambda a, b: to_unsigned((to_signed(a) * to_signed(b)) >> 64),
    Opcode.DIV: lambda a, b: _div_trunc(to_signed(a), to_signed(b)),
    Opcode.REM: lambda a, b: _rem_trunc(to_signed(a), to_signed(b)),
    Opcode.FADD: lambda a, b: to_unsigned(a + b),
    Opcode.FSUB: lambda a, b: to_unsigned(a - b),
    Opcode.FMUL: _fixed_mul,
    Opcode.FDIV: _fixed_div,
}

_IMM_TO_BINOP = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SRAI: Opcode.SRA,
    Opcode.SLTI: Opcode.SLT,
}

_BRANCH_CONDITIONS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Opcode.BLTZ: lambda a, b: to_signed(a) < 0,
    Opcode.BGEZ: lambda a, b: to_signed(a) >= 0,
    Opcode.BEQZ: lambda a, b: a == 0,
    Opcode.BNEZ: lambda a, b: a != 0,
}


def binop_function(opcode: Opcode):
    """The function of a register-register (or FP) opcode, taking two
    64-bit values; ``None`` when ``opcode`` is not one."""
    return _BINOPS.get(opcode)


def immop_function(opcode: Opcode):
    """The function of a register-immediate opcode, taking the register
    value and the immediate already truncated to 64 bits; ``None`` when
    ``opcode`` is not one."""
    base = _IMM_TO_BINOP.get(opcode)
    return None if base is None else _BINOPS[base]


def branch_function(opcode: Opcode):
    """The condition of a branch opcode, taking two 64-bit values;
    ``None`` when ``opcode`` is not a branch."""
    return _BRANCH_CONDITIONS.get(opcode)


def apply_binop(opcode: Opcode, a: int, b: int) -> int:
    """Apply a register-register (or FP) operation to two 64-bit values."""
    fn = binop_function(opcode)
    if fn is None:
        raise ValueError(f"not a binary ALU opcode: {opcode}")
    return fn(a & MASK64, b & MASK64)


def apply_immop(opcode: Opcode, a: int, imm: int) -> int:
    """Apply a register-immediate operation."""
    fn = immop_function(opcode)
    if fn is None:
        raise ValueError(f"not an immediate ALU opcode: {opcode}")
    return fn(a & MASK64, to_unsigned(imm))


def branch_taken(opcode: Opcode, a: int, b: int) -> bool:
    """Evaluate a branch condition on 64-bit register values."""
    fn = branch_function(opcode)
    if fn is None:
        raise ValueError(f"not a branch opcode: {opcode}")
    return fn(a & MASK64, b & MASK64)


def float_to_fixed(value: float) -> int:
    """Encode a Python float into the Q32.32 fixed-point register format."""
    return to_unsigned(int(round(value * (1 << _FIXED_SHIFT))))


def fixed_to_float(value: int) -> float:
    """Decode a Q32.32 register value to a Python float."""
    return to_signed(value) / (1 << _FIXED_SHIFT)
