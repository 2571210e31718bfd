"""The dynamic trace record."""

from __future__ import annotations

from repro.isa.opcodes import (
    CLASS_LATENCY,
    OPCLASS_BY_OPCODE,
    OPCODE_BY_CODE,
    OpClass,
    Opcode,
)

#: Width of the precomputed ``dest_fold`` value fold.  The value-prediction
#: subsystem folds 64-bit values into ``context_bits``-wide chunks on every
#: context hash; for the standard geometry (``context_bits == FOLD_BITS``)
#: the fold is computed once here, when the record is built, and reused for
#: every prediction/training touch of the value (see ``repro.vp.context``).
FOLD_BITS = 16

_MASK64 = (1 << 64) - 1

#: The one per-opcode flag table, indexed by the opcode's stable code
#: (:data:`~repro.isa.opcodes.OPCODE_BY_CODE`): ``(opcode, opclass,
#: is_load, is_store, is_memory, is_branch, is_control, is_indirect,
#: exec_latency, sel_priority, is_ctrl)`` in :class:`TraceRecord` slot
#: order, or ``None`` for a code with no opcode.  ``TraceRecord``
#: construction, columnar row materialization and wrong-path synthesis
#: all unpack these tuples straight into the record's slots.
OPCODE_ROWS: list[tuple | None] = [None] * 256
for _code, _op in OPCODE_BY_CODE.items():
    _oc = OPCLASS_BY_OPCODE[_op]
    OPCODE_ROWS[_code] = (
        _op,
        _oc,
        _oc is OpClass.LOAD,
        _oc is OpClass.STORE,
        _oc is OpClass.LOAD or _oc is OpClass.STORE,
        _oc is OpClass.BRANCH,
        _oc is OpClass.BRANCH or _oc is OpClass.JUMP or _oc is OpClass.IJUMP,
        _oc is OpClass.IJUMP,
        CLASS_LATENCY[_oc],
        # Engine-side derived fields, precomputed here so dispatch writes
        # them straight into the reservation station: selection priority
        # class (0 = branch/load, 1 = everything else) and the
        # control-transfer flag the wakeup predicate gates on.
        0 if _oc is OpClass.BRANCH or _oc is OpClass.LOAD else 1,
        _oc is OpClass.BRANCH or _oc is OpClass.IJUMP,
    )
del _code, _op, _oc

#: :data:`OPCODE_ROWS` keyed by mnemonic.  ``Opcode._value_`` is a plain
#: instance attribute and a ``str`` caches its hash, whereas the
#: ``opcode``/``code`` properties and ``Enum.__hash__`` run Python code
#: on every lookup.
_ROW_BY_MNEMONIC = {
    row[0]._value_: row for row in OPCODE_ROWS if row is not None
}


class TraceRecord:
    """One dynamically executed instruction.

    Attributes
    ----------
    seq:
        Position in the dynamic instruction stream (0-based).
    pc:
        Byte address of the instruction; ``None`` on a synthesized
        wrong-path record (:mod:`repro.frontend.fetch`), which also has
        ``seq`` -1 and no ``next_pc`` or ``dest_value``.
    opcode / opclass:
        Operation identity and functional class.
    src_regs:
        Architectural registers read (``r0`` omitted — it never creates a
        dependence).
    dest_reg / dest_value:
        Destination register and the architecturally correct result, or
        ``None`` when the instruction writes no register.  ``dest_value``
        is what the value predictor must produce for a correct prediction.
    mem_addr / mem_size:
        Effective address and access width for loads and stores.
    branch_taken / next_pc:
        Control outcome.  ``next_pc`` is the architecturally correct
        successor PC for every instruction (fall-through when not a taken
        control transfer).
    """

    __slots__ = (
        "seq",
        "pc",
        "opcode",
        "opclass",
        "src_regs",
        "dest_reg",
        "dest_value",
        "mem_addr",
        "mem_size",
        "branch_taken",
        "next_pc",
        # Derived classification flags, precomputed because the timing
        # engine reads them on every pipeline stage of every instruction;
        # recomputing through properties dominated the hot-path profile.
        "is_load",
        "is_store",
        "is_memory",
        "is_branch",
        "is_control",
        "is_indirect",
        "exec_latency",
        "sel_priority",
        "is_ctrl",
        "writes_register",
        "dest_fold",
    )

    _COMPARED_SLOTS = (
        "seq",
        "pc",
        "opcode",
        "src_regs",
        "dest_reg",
        "dest_value",
        "mem_addr",
        "mem_size",
        "branch_taken",
        "next_pc",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        opcode: Opcode,
        src_regs: tuple[int, ...] = (),
        dest_reg: int | None = None,
        dest_value: int | None = None,
        mem_addr: int | None = None,
        mem_size: int | None = None,
        branch_taken: bool | None = None,
        next_pc: int = 0,
    ):
        self.seq = seq
        self.pc = pc
        self.src_regs = src_regs
        self.dest_reg = dest_reg
        self.dest_value = dest_value
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.branch_taken = branch_taken
        self.next_pc = next_pc
        (
            self.opcode,
            self.opclass,
            self.is_load,
            self.is_store,
            self.is_memory,
            self.is_branch,
            self.is_control,
            self.is_indirect,
            self.exec_latency,
            self.sel_priority,
            self.is_ctrl,
        ) = _ROW_BY_MNEMONIC[opcode._value_]
        #: True when the instruction produces a register value — the
        #: eligibility condition for value prediction.
        self.writes_register = dest_reg is not None and dest_reg != 0
        #: ``FOLD_BITS``-bit XOR-fold of ``dest_value``, precomputed so the
        #: value predictors never re-fold the committed value on their
        #: training hot path (a fold of 0/None is 0).
        if dest_value:
            value = dest_value & _MASK64
            self.dest_fold = (
                value ^ (value >> 16) ^ (value >> 32) ^ (value >> 48)
            ) & 0xFFFF
        else:
            self.dest_fold = 0

    def __repr__(self) -> str:
        pc = "None" if self.pc is None else f"{self.pc:#x}"
        return f"TraceRecord(seq={self.seq}, pc={pc}, op={self.opcode.mnemonic})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._COMPARED_SLOTS
        )

    def __hash__(self) -> int:
        return hash((self.seq, self.pc, self.opcode))
