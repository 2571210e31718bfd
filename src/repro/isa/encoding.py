"""Binary encoding of VSR instructions.

Instructions encode into a fixed 64-bit word:

    bits  0..7    opcode
    bits  8..13   rd   (0x3f when absent)
    bits 14..19   rs   (0x3f when absent)
    bits 20..25   rt   (0x3f when absent)
    bits 26..63   imm, two's-complement 38-bit

The wide immediate field is a toy-ISA convenience (real RISC ISAs split wide
constants across instruction pairs); it keeps the assembler and kernels
simple without affecting anything the timing study measures.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_BY_CODE, Opcode

_REG_ABSENT = 0x3F
_IMM_BITS = 38
_IMM_MIN = -(1 << (_IMM_BITS - 1))
_IMM_MAX = (1 << (_IMM_BITS - 1)) - 1


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded or a word decoded."""


def _encode_reg(reg: int | None) -> int:
    if reg is None:
        return _REG_ABSENT
    if not 0 <= reg < 32:
        raise EncodingError(f"register out of range: {reg}")
    return reg


def _decode_reg(bits: int) -> int | None:
    return None if bits == _REG_ABSENT else bits


def encode(instr: Instruction) -> int:
    """Encode an instruction into its 64-bit word."""
    if not _IMM_MIN <= instr.imm <= _IMM_MAX:
        raise EncodingError(
            f"immediate {instr.imm} does not fit in {_IMM_BITS} signed bits"
        )
    word = instr.opcode.code
    word |= _encode_reg(instr.rd) << 8
    word |= _encode_reg(instr.rs) << 14
    word |= _encode_reg(instr.rt) << 20
    word |= (instr.imm & ((1 << _IMM_BITS) - 1)) << 26
    return word


def decode(word: int) -> Instruction:
    """Decode a 64-bit word back into an :class:`Instruction`.

    Labels are not recoverable from the encoding; control-transfer targets
    come back as resolved immediates.
    """
    if not 0 <= word < (1 << 64):
        raise EncodingError(f"word out of range: {word:#x}")
    code = word & 0xFF
    opcode = OPCODE_BY_CODE.get(code)
    if opcode is None:
        raise EncodingError(f"unknown opcode byte: {code:#x}")
    imm = (word >> 26) & ((1 << _IMM_BITS) - 1)
    if imm & (1 << (_IMM_BITS - 1)):
        imm -= 1 << _IMM_BITS
    return Instruction(
        opcode=opcode,
        rd=_decode_reg((word >> 8) & 0x3F),
        rs=_decode_reg((word >> 14) & 0x3F),
        rt=_decode_reg((word >> 20) & 0x3F),
        imm=imm,
    )
