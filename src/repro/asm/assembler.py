"""A two-pass assembler for VSR assembly source.

Supported syntax::

    .text                     # switch to the text segment (default)
    .data                     # switch to the data segment
    .word  v1, v2, ...        # emit 8-byte little-endian words (data segment)
    .space N                  # reserve N zeroed bytes
    .asciiz "text"            # NUL-terminated string
    .align N                  # align to a 2**N boundary
    label:                    # define a label (either segment)
    add rd, rs, rt            # instructions, one per line
    ld  rd, off(rs)
    beq rs, rt, label
    # comment / ; comment

Pseudo-instructions expanded during parsing:

    mv rd, rs        ->  or   rd, rs, r0
    not rd, rs       ->  nor  rd, rs, r0
    neg rd, rs       ->  sub  rd, r0, rs
    la rd, label     ->  li   rd, <address of label>
    ret              ->  jr   ra
    call label       ->  jal  ra, label
    bgt rs, rt, L    ->  blt  rt, rs, L
    ble rs, rt, L    ->  bge  rt, rs, L
    inc rd           ->  addi rd, rd, 1
    dec rd           ->  addi rd, rd, -1

The text segment starts at :data:`TEXT_BASE`, the data segment at
:data:`DATA_BASE`; every instruction occupies 8 bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.asm.errors import AsmError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import INSTRUCTION_BYTES, InstrFormat, OpClass, Opcode
from repro.isa.registers import parse_reg

TEXT_BASE = 0x1000
DATA_BASE = 0x100000
STACK_TOP = 0x7FF000

_OPCODES_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}

_PSEUDO_EXPANSIONS = {
    "mv": lambda ops: [("or", [ops[0], ops[1], "r0"])],
    "not": lambda ops: [("nor", [ops[0], ops[1], "r0"])],
    "neg": lambda ops: [("sub", [ops[0], "r0", ops[1]])],
    "la": lambda ops: [("li", [ops[0], ops[1]])],
    "ret": lambda ops: [("jr", ["ra"])],
    "call": lambda ops: [("jal", ["ra", ops[0]])],
    "bgt": lambda ops: [("blt", [ops[1], ops[0], ops[2]])],
    "ble": lambda ops: [("bge", [ops[1], ops[0], ops[2]])],
    "inc": lambda ops: [("addi", [ops[0], ops[0], "1"])],
    "dec": lambda ops: [("addi", [ops[0], ops[0], "-1"])],
}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\((\w+)\)$")


@dataclass
class Program:
    """An assembled program: instruction list plus initial data image."""

    instructions: list[Instruction]
    data: bytes
    labels: dict[str, int]
    entry: int = TEXT_BASE
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    source_lines: dict[int, int] = field(default_factory=dict)

    def instruction_at(self, pc: int) -> Instruction:
        """Fetch the instruction at byte address ``pc``."""
        offset = pc - self.text_base
        if offset % INSTRUCTION_BYTES != 0:
            raise AsmError(f"misaligned pc: {pc:#x}")
        index = offset // INSTRUCTION_BYTES
        if not 0 <= index < len(self.instructions):
            raise AsmError(f"pc outside text segment: {pc:#x}")
        return self.instructions[index]

    def address_of(self, label: str) -> int:
        if label not in self.labels:
            raise AsmError(f"unknown label: {label}")
        return self.labels[label]


@dataclass
class _Line:
    """One parsed instruction awaiting label resolution."""

    mnemonic: str
    operands: list[str]
    source_line: int
    address: int


def _strip_comment(line: str) -> str:
    for marker in ("#", ";", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_int(token: str, line: int) -> int:
    token = token.strip()
    try:
        if token.startswith("'") and token.endswith("'") and len(token) >= 3:
            literal = token[1:-1].encode().decode("unicode_escape")
            if len(literal) != 1:
                raise ValueError
            return ord(literal)
        return int(token, 0)
    except ValueError:
        raise AsmError(f"bad integer literal: {token!r}", line) from None


def _split_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


class _Assembler:
    def __init__(self, source: str):
        self.source = source
        self.labels: dict[str, int] = {}
        self.lines: list[_Line] = []
        self.data = bytearray()
        self.segment = "text"
        self.text_cursor = TEXT_BASE

    # -- pass 1: parse, expand pseudo-ops, lay out segments, collect labels --

    def _define_label(self, name: str, lineno: int) -> None:
        if name in self.labels:
            raise AsmError(f"duplicate label: {name}", lineno)
        if self.segment == "text":
            self.labels[name] = self.text_cursor
        else:
            self.labels[name] = DATA_BASE + len(self.data)

    def _directive(self, name: str, rest: str, lineno: int) -> None:
        if name == ".text":
            self.segment = "text"
        elif name == ".data":
            self.segment = "data"
        elif name == ".word":
            if self.segment != "data":
                raise AsmError(".word only allowed in the data segment", lineno)
            for token in _split_operands(rest):
                value = _parse_int(token, lineno) & ((1 << 64) - 1)
                self.data += value.to_bytes(8, "little")
        elif name == ".space":
            if self.segment != "data":
                raise AsmError(".space only allowed in the data segment", lineno)
            count = _parse_int(rest, lineno)
            if count < 0:
                raise AsmError(".space size must be non-negative", lineno)
            self.data += bytes(count)
        elif name == ".asciiz":
            if self.segment != "data":
                raise AsmError(".asciiz only allowed in the data segment", lineno)
            match = re.match(r'^"(.*)"$', rest.strip())
            if match is None:
                raise AsmError('.asciiz expects a double-quoted string', lineno)
            text = match.group(1).encode().decode("unicode_escape")
            self.data += text.encode("latin-1") + b"\x00"
        elif name == ".align":
            if self.segment != "data":
                raise AsmError(".align only allowed in the data segment", lineno)
            power = _parse_int(rest, lineno)
            boundary = 1 << power
            while len(self.data) % boundary:
                self.data.append(0)
        else:
            raise AsmError(f"unknown directive: {name}", lineno)

    def _add_instruction(self, mnemonic: str, operands: list[str], lineno: int) -> None:
        expander = _PSEUDO_EXPANSIONS.get(mnemonic)
        if expander is not None:
            try:
                expanded = expander(operands)
            except IndexError:
                raise AsmError(
                    f"wrong operand count for pseudo-instruction {mnemonic!r}", lineno
                ) from None
            for real_mnemonic, real_operands in expanded:
                self._add_instruction(real_mnemonic, real_operands, lineno)
            return
        if mnemonic not in _OPCODES_BY_MNEMONIC:
            raise AsmError(f"unknown instruction: {mnemonic!r}", lineno)
        if self.segment != "text":
            raise AsmError("instructions only allowed in the text segment", lineno)
        self.lines.append(_Line(mnemonic, operands, lineno, self.text_cursor))
        self.text_cursor += INSTRUCTION_BYTES

    def _pass1(self) -> None:
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw)
            while line:
                match = _LABEL_RE.match(line)
                if match is None:
                    break
                self._define_label(match.group(1), lineno)
                line = line[match.end():].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if head.startswith("."):
                self._directive(head, rest, lineno)
            else:
                self._add_instruction(head, _split_operands(rest), lineno)

    # -- pass 2: resolve labels and build Instruction objects ----------------

    def _resolve_value(self, token: str, lineno: int) -> tuple[int, str | None]:
        """Resolve a token that may be a label or an integer literal."""
        token = token.strip()
        if token in self.labels:
            return self.labels[token], token
        return _parse_int(token, lineno), None

    def _build(self, parsed: _Line) -> Instruction:
        opcode = _OPCODES_BY_MNEMONIC[parsed.mnemonic]
        fmt = opcode.format
        ops = parsed.operands
        lineno = parsed.source_line

        def need(count: int) -> None:
            if len(ops) != count:
                raise AsmError(
                    f"{parsed.mnemonic} expects {count} operand(s), got {len(ops)}",
                    lineno,
                )

        def reg(token: str) -> int:
            try:
                return int(parse_reg(token))
            except ValueError as exc:
                raise AsmError(str(exc), lineno) from None

        if fmt is InstrFormat.R:
            need(3)
            return Instruction(opcode, rd=reg(ops[0]), rs=reg(ops[1]), rt=reg(ops[2]))
        if fmt is InstrFormat.I:
            need(3)
            imm, label = self._resolve_value(ops[2], lineno)
            return Instruction(opcode, rd=reg(ops[0]), rs=reg(ops[1]), imm=imm, label=label)
        if fmt is InstrFormat.LI:
            need(2)
            imm, label = self._resolve_value(ops[1], lineno)
            return Instruction(opcode, rd=reg(ops[0]), imm=imm, label=label)
        if fmt is InstrFormat.MEM:
            need(2)
            match = _MEM_OPERAND_RE.match(ops[1].replace(" ", ""))
            if match is None:
                raise AsmError(f"bad memory operand: {ops[1]!r}", lineno)
            offset_token, base_token = match.groups()
            offset, label = self._resolve_value(offset_token, lineno)
            data_reg = reg(ops[0])
            if opcode.opclass is OpClass.STORE:
                return Instruction(
                    opcode, rs=reg(base_token), rt=data_reg, imm=offset, label=label
                )
            return Instruction(
                opcode, rd=data_reg, rs=reg(base_token), imm=offset, label=label
            )
        if fmt is InstrFormat.B:
            need(3)
            target, label = self._resolve_value(ops[2], lineno)
            return Instruction(
                opcode, rs=reg(ops[0]), rt=reg(ops[1]), imm=target, label=label
            )
        if fmt is InstrFormat.BZ:
            need(2)
            target, label = self._resolve_value(ops[1], lineno)
            return Instruction(opcode, rs=reg(ops[0]), imm=target, label=label)
        if fmt is InstrFormat.J:
            need(1)
            target, label = self._resolve_value(ops[0], lineno)
            return Instruction(opcode, imm=target, label=label)
        if fmt is InstrFormat.JL:
            need(2)
            target, label = self._resolve_value(ops[1], lineno)
            return Instruction(opcode, rd=reg(ops[0]), imm=target, label=label)
        if fmt is InstrFormat.JR:
            need(1)
            return Instruction(opcode, rs=reg(ops[0]))
        if fmt is InstrFormat.JLR:
            need(2)
            return Instruction(opcode, rd=reg(ops[0]), rs=reg(ops[1]))
        need(0)
        return Instruction(opcode)

    def assemble(self) -> Program:
        self._pass1()
        instructions: list[Instruction] = []
        source_lines: dict[int, int] = {}
        for parsed in self.lines:
            source_lines[parsed.address] = parsed.source_line
            instructions.append(self._build(parsed))
        entry = self.labels.get("main", TEXT_BASE)
        return Program(
            instructions=instructions,
            data=bytes(self.data),
            labels=dict(self.labels),
            entry=entry,
            source_lines=source_lines,
        )


def assemble(source: str) -> Program:
    """Assemble VSR source text into a :class:`Program`."""
    return _Assembler(source).assemble()
