"""Columnar (struct-of-arrays) dynamic-trace storage.

The sweep harness streams *one* dynamic trace through many engine
instances (configurations x models x ablations), so the trace's in-memory
representation is load-bearing for startup cost, memory footprint and
worker fan-out.  A :class:`ColumnarTrace` keeps the per-instruction facts
of :class:`~repro.trace.record.TraceRecord` as parallel fixed-width
columns instead of one Python object per instruction:

* **A ColumnarTrace is one entry's column block.**  Its column layout
  is exactly the block of a VSRT v5 entry (:mod:`repro.trace.binary`),
  so loading an entry is one read plus a handful of ``memoryview.cast``
  calls — no per-record decode, no per-record allocation.
* **Distribution by file name.**  The same property lets the parallel
  sweep runner hand a trace to worker processes as the name of a VSRT
  v5 cache entry, its one staging tier, instead of pickling a list of
  records per worker (:mod:`repro.harness.parallel`).
* **Row-view compatibility.**  The timing engine consumes
  ``TraceRecord`` objects; ``trace[i]`` materializes the row *once*, on
  first touch, and memoizes it, so replaying the same trace object
  through many engine instances pays record construction once per
  process, not once per run.  Materialization writes the record's slots
  directly from the columns (the ``dest_fold`` precompute is a stored
  column, the classification flags come from the per-opcode table
  :data:`~repro.trace.record.OPCODE_ROWS`), which is cheaper than
  re-running ``TraceRecord.__init__``; ``rows()``, the engine's path,
  builds every row in one pass over the columns' ``tolist()`` and
  shares one ``src_regs`` tuple per packed ``srcs`` word.

Column access returns plain Python ints at ``list``-like speed: columns
are ``memoryview.cast`` views over one backing buffer (or ``array.array``
columns when built from records), and the opcode-derived classification
bits live in a ``bytes`` column produced by ``bytes.translate`` — one C
call for the whole trace.

Layout (all little-endian, each column contiguous):

========== ======= ====================================================
column     type    contents
========== ======= ====================================================
pc         u64     instruction byte address
next_pc    u64     architecturally correct successor PC
dest_value u64     result value (0 when the record carries none)
mem_addr   u64     effective address (0 when not a memory op)
srcs       u32     packed source registers: count | r0<<8 | r1<<16 | r2<<24
dest_fold  u16     precomputed 16-bit XOR fold of dest_value
opcode     u8      stable opcode code (:data:`OPCODE_BY_CODE`)
flags      u8      bit0 has_dest, bit1 has_mem, bit2 branch_taken,
                   bit3 has_branch_outcome
mem_size   u8      access width in bytes (0 when not a memory op)
dest_reg   u8      destination register (0xFF when none)
========== ======= ====================================================

``seq`` is implicit: row *i* has ``seq == i`` (cache entries are always
renumbered captures).
"""

from __future__ import annotations

import gc
import sys
from array import array
from typing import Callable, Iterator

from repro.isa.opcodes import OPCODE_BY_CODE
from repro.trace.record import OPCODE_ROWS, TraceRecord

_MASK64 = (1 << 64) - 1

# -- flags byte ------------------------------------------------------------

FLAG_HAS_DEST = 1
FLAG_HAS_MEM = 2
FLAG_BRANCH_TAKEN = 4
FLAG_HAS_BRANCH = 8

# -- kind byte (derived, not stored: pure function of the opcode) ----------

KIND_BRANCH = 1
KIND_CONTROL = 2
KIND_LOAD = 4
KIND_STORE = 8
KIND_MEMORY = 16
KIND_INDIRECT = 32

#: Highest source-register arity the packed ``srcs`` column can hold.
MAX_SRC_REGS = 3


def _kind_bits(row: tuple | None) -> int:
    """The kind byte of one :data:`~repro.trace.record.OPCODE_ROWS`
    entry (0 for a code with no opcode)."""
    if row is None:
        return 0
    is_load, is_store, is_memory, is_branch, is_control, is_indirect = row[2:8]
    return (
        (KIND_BRANCH if is_branch else 0)
        | (KIND_CONTROL if is_control else 0)
        | (KIND_LOAD if is_load else 0)
        | (KIND_STORE if is_store else 0)
        | (KIND_MEMORY if is_memory else 0)
        | (KIND_INDIRECT if is_indirect else 0)
    )


#: opcode code -> kind byte, as a 256-entry translate table so deriving
#: the whole kind column is one ``bytes.translate`` call.  Codes with no
#: opcode map to 0 (validity is checked separately via ``_VALID_CODES``).
_KIND_TABLE = bytes(_kind_bits(row) for row in OPCODE_ROWS)

_VALID_CODES = frozenset(OPCODE_BY_CODE)

#: flags byte -> the row's ``branch_taken`` (``None`` without an outcome).
_TAKEN_BY_FLAGS = tuple(
    bool(flags & FLAG_BRANCH_TAKEN) if flags & FLAG_HAS_BRANCH else None
    for flags in range(256)
)


def _unpack_srcs(packed: int) -> tuple[int, ...]:
    """The ``src_regs`` tuple a packed ``srcs`` word stands for."""
    count = packed & 0xFF
    if count == 0:
        return ()
    if count == 1:
        return ((packed >> 8) & 0xFF,)
    if count == 2:
        return ((packed >> 8) & 0xFF, (packed >> 16) & 0xFF)
    return ((packed >> 8) & 0xFF, (packed >> 16) & 0xFF, (packed >> 24) & 0xFF)


class ColumnarTraceError(ValueError):
    """Raised when columnar trace data is malformed or unrepresentable."""


#: (attribute name, array typecode, item size) in on-disk column order.
COLUMN_SPEC: tuple[tuple[str, str, int], ...] = (
    ("pc", "Q", 8),
    ("next_pc", "Q", 8),
    ("dest_value", "Q", 8),
    ("mem_addr", "Q", 8),
    ("srcs", "I", 4),
    ("dest_fold", "H", 2),
    ("opcode", "B", 1),
    ("flags", "B", 1),
    ("mem_size", "B", 1),
    ("dest_reg", "B", 1),
)

_LITTLE_ENDIAN = sys.byteorder == "little"


def new_columns() -> dict[str, array]:
    """Empty ``array`` columns, one per :data:`COLUMN_SPEC` entry."""
    return {name: array(typecode) for name, typecode, _size in COLUMN_SPEC}


def pack_srcs(regs) -> int:
    """The ``srcs`` column word for source registers ``regs``:
    ``count | r0<<8 | r1<<16 | r2<<24``."""
    packed = len(regs)
    if packed > MAX_SRC_REGS:
        raise ColumnarTraceError(
            f"record has {packed} source registers; the packed "
            f"srcs column holds at most {MAX_SRC_REGS}"
        )
    shift = 8
    for reg in regs:
        if not 0 <= reg <= 0xFF:
            raise ColumnarTraceError(
                f"source register {reg} does not fit the srcs column"
            )
        packed |= reg << shift
        shift += 8
    return packed


def row_appender(columns: dict[str, array]) -> Callable[..., None]:
    """A function appending one row to ``columns`` (as made by
    :func:`new_columns`) — the one column encoding, behind
    :meth:`ColumnarTrace.from_records` and ``TraceWriter.row``, the row
    sink the functional machine's capture calls.

    The row is given as its trace-record fields: ``row(pc, next_pc,
    dest_reg, dest_value, mem_addr, mem_size, branch_taken, srcs,
    opcode_code)``, with ``None`` for an absent field exactly as on a
    :class:`TraceRecord`, the 64-bit fields already truncated to 64 bits
    (:func:`record_row` does that for a record), ``srcs`` packed by
    :func:`pack_srcs` and the opcode as its stable code."""
    pc_col = columns["pc"].append
    next_pc_col = columns["next_pc"].append
    dest_value_col = columns["dest_value"].append
    mem_addr_col = columns["mem_addr"].append
    srcs_col = columns["srcs"].append
    dest_fold_col = columns["dest_fold"].append
    opcode_col = columns["opcode"].append
    flags_col = columns["flags"].append
    mem_size_col = columns["mem_size"].append
    dest_reg_col = columns["dest_reg"].append

    def row(pc, next_pc, dest_reg, dest_value, mem_addr, mem_size, taken,
            srcs, code) -> None:
        if dest_reg is None:
            flag = 0
            dest_reg = 0xFF
        else:
            flag = FLAG_HAS_DEST
        if mem_addr is None:
            mem_addr = 0
        else:
            flag |= FLAG_HAS_MEM
        if taken is not None:
            flag |= (
                FLAG_HAS_BRANCH | FLAG_BRANCH_TAKEN if taken else FLAG_HAS_BRANCH
            )
        if dest_value:
            # The same fold TraceRecord precomputes as ``dest_fold``.
            fold = (
                dest_value ^ (dest_value >> 16) ^ (dest_value >> 32)
                ^ (dest_value >> 48)
            ) & 0xFFFF
        else:
            dest_value = fold = 0
        pc_col(pc)
        next_pc_col(next_pc)
        dest_value_col(dest_value)
        mem_addr_col(mem_addr)
        srcs_col(srcs)
        dest_fold_col(fold)
        opcode_col(code)
        flags_col(flag)
        mem_size_col(mem_size or 0)
        dest_reg_col(dest_reg)

    return row


def record_row(rec: TraceRecord) -> tuple:
    """``rec``'s fields in :func:`row_appender` argument order, its
    64-bit fields truncated to 64 bits."""
    dest_value = rec.dest_value
    mem_addr = rec.mem_addr
    return (
        rec.pc & _MASK64, rec.next_pc & _MASK64, rec.dest_reg,
        dest_value & _MASK64 if dest_value else dest_value,
        None if mem_addr is None else mem_addr & _MASK64,
        rec.mem_size, rec.branch_taken, pack_srcs(rec.src_regs),
        rec.opcode.code,
    )


def column_bytes(column) -> bytes:
    """The raw little-endian bytes of one column (``array`` or
    ``memoryview``)."""
    if not _LITTLE_ENDIAN and isinstance(column, array):  # pragma: no cover
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


class ColumnarTrace:
    """A dynamic instruction trace stored as parallel columns.

    Duck-types the ``list[TraceRecord]`` the engine consumes — ``len``,
    indexing (memoized row materialization), iteration, equality — while
    exposing the raw columns (``pc``, ``opcode``, ``kind``, ...) for
    hot paths that want them directly.
    """

    __slots__ = (
        "pc",
        "next_pc",
        "dest_value",
        "mem_addr",
        "srcs",
        "dest_fold",
        "opcode",
        "flags",
        "mem_size",
        "dest_reg",
        #: Derived per-row classification bits (``KIND_*``), a ``bytes``.
        "kind",
        "_count",
        "_rows",
        "_materialized",
        #: Backing buffer keep-alive (the column block of a VSRT v5
        #: entry); None when columns are own-memory ``array.array``
        #: objects.
        "_buffer",
    )

    def __init__(self, columns: dict, count: int, buffer=None):
        for name, _tc, _size in COLUMN_SPEC:
            setattr(self, name, columns[name])
        self.kind = bytes(columns["opcode"]).translate(_KIND_TABLE)
        self._count = count
        self._rows: list[TraceRecord | None] = [None] * count
        self._materialized = 0
        self._buffer = buffer

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records) -> "ColumnarTrace":
        """Build columns from an iterable of :class:`TraceRecord`."""
        columns = new_columns()
        row = row_appender(columns)
        for rec in records:
            row(*record_row(rec))
        return cls(columns, len(columns["opcode"]))

    @classmethod
    def from_buffer(
        cls, buffer, count: int, offsets: dict[str, int]
    ) -> "ColumnarTrace":
        """Wrap columns living inside ``buffer`` (mmap, bytes) without
        copying.

        ``offsets`` maps column name to byte offset.  On little-endian
        hosts the columns are ``memoryview.cast`` views straight into the
        buffer; big-endian hosts fall back to copied-and-byteswapped
        ``array`` columns (correctness over zero-copy).
        """
        view = memoryview(buffer)
        columns = {}
        for name, typecode, itemsize in COLUMN_SPEC:
            start = offsets[name]
            raw = view[start : start + count * itemsize]
            if _LITTLE_ENDIAN:
                columns[name] = raw.cast(typecode)
            else:  # pragma: no cover - exercised only on big-endian hosts
                col = array(typecode)
                col.frombytes(bytes(raw))
                col.byteswap()
                columns[name] = col
        keep = buffer if _LITTLE_ENDIAN else None
        trace = cls(columns, count, buffer=keep)
        opcode_codes = set(bytes(columns["opcode"]))
        if not opcode_codes <= _VALID_CODES:
            bad = min(opcode_codes - _VALID_CODES)
            raise ColumnarTraceError(f"unknown opcode byte {bad:#x}")
        return trace

    # -- row views ---------------------------------------------------------

    def _materialize(self, index: int) -> TraceRecord:
        info = OPCODE_ROWS[self.opcode[index]]
        if info is None:
            raise ColumnarTraceError(
                f"unknown opcode byte {self.opcode[index]:#x} at row {index}"
            )
        rec = TraceRecord.__new__(TraceRecord)
        rec.seq = index
        rec.pc = self.pc[index]
        (
            rec.opcode,
            rec.opclass,
            rec.is_load,
            rec.is_store,
            rec.is_memory,
            rec.is_branch,
            rec.is_control,
            rec.is_indirect,
            rec.exec_latency,
            rec.sel_priority,
            rec.is_ctrl,
        ) = info
        rec.src_regs = _unpack_srcs(self.srcs[index])
        flags = self.flags[index]
        if flags & FLAG_HAS_DEST:
            dest = self.dest_reg[index]
            rec.dest_reg = dest
            rec.dest_value = self.dest_value[index]
            rec.writes_register = dest != 0
        else:
            rec.dest_reg = None
            rec.dest_value = None
            rec.writes_register = False
        if flags & FLAG_HAS_MEM:
            rec.mem_addr = self.mem_addr[index]
            rec.mem_size = self.mem_size[index]
        else:
            rec.mem_addr = None
            rec.mem_size = None
        rec.branch_taken = _TAKEN_BY_FLAGS[flags]
        rec.next_pc = self.next_pc[index]
        rec.dest_fold = self.dest_fold[index]
        self._materialized += 1
        return rec

    def row(self, index: int) -> TraceRecord:
        """The memoized :class:`TraceRecord` view of row ``index``."""
        rec = self._rows[index]
        if rec is None:
            rec = self._rows[index] = self._materialize(index)
        return rec

    def rows(self) -> list[TraceRecord]:
        """The fully materialized row list (memoized; also the engine's
        fast path — a plain list the fetch loop can index directly).

        The returned list is the internal memo: callers must treat it as
        read-only.
        """
        if self._materialized < self._count:
            built = self._materialize_all()
            if self._materialized:  # keep the rows already handed out
                for index, rec in enumerate(self._rows):
                    if rec is not None:
                        built[index] = rec
            self._rows = built
            self._materialized = self._count
        return self._rows

    def _materialize_all(self) -> list[TraceRecord]:
        """Every row, built in one pass over the columns' ``tolist()``.

        The same records as :meth:`_materialize`, slot for slot, with
        equal immutable parts shared: rows with the same packed ``srcs``
        word share one ``src_regs`` tuple, a row's ``pc`` is the previous
        row's ``next_pc`` object when they are equal, and ``dest_fold``
        is the ``dest_value`` object when they are equal.

        The cycle collector is paused for the pass, as
        ``PipelineSimulator.run`` pauses it: every object built here is
        acyclic and kept, so its gen-0 sweeps would only re-scan the new
        records.
        """
        new = TraceRecord.__new__
        opcode_rows = OPCODE_ROWS
        taken_by_flags = _TAKEN_BY_FLAGS
        srcs_by_word: dict[int, tuple[int, ...]] = {}
        built: list[TraceRecord] = []
        append = built.append
        seq = 0
        fall_through = None
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for (
                pc, next_pc, value, addr, word, fold, code, flags, size, dest
            ) in zip(
                self.pc.tolist(),
                self.next_pc.tolist(),
                self.dest_value.tolist(),
                self.mem_addr.tolist(),
                self.srcs.tolist(),
                self.dest_fold.tolist(),
                self.opcode.tolist(),
                self.flags.tolist(),
                self.mem_size.tolist(),
                self.dest_reg.tolist(),
            ):
                info = opcode_rows[code]
                if info is None:
                    raise ColumnarTraceError(
                        f"unknown opcode byte {code:#x} at row {seq}"
                    )
                rec = new(TraceRecord)
                rec.seq = seq
                seq += 1
                # Most rows start where the previous one fell through to:
                # share that int object rather than hold an equal copy.
                rec.pc = fall_through if pc == fall_through else pc
                (
                    rec.opcode,
                    rec.opclass,
                    rec.is_load,
                    rec.is_store,
                    rec.is_memory,
                    rec.is_branch,
                    rec.is_control,
                    rec.is_indirect,
                    rec.exec_latency,
                    rec.sel_priority,
                    rec.is_ctrl,
                ) = info
                srcs = srcs_by_word.get(word)
                if srcs is None:
                    srcs = srcs_by_word[word] = _unpack_srcs(word)
                rec.src_regs = srcs
                if flags & FLAG_HAS_DEST:
                    rec.dest_reg = dest
                    rec.dest_value = value
                    rec.writes_register = dest != 0
                else:
                    rec.dest_reg = None
                    rec.dest_value = None
                    rec.writes_register = False
                if flags & FLAG_HAS_MEM:
                    rec.mem_addr = addr
                    rec.mem_size = size
                else:
                    rec.mem_addr = None
                    rec.mem_size = None
                rec.branch_taken = taken_by_flags[flags]
                rec.next_pc = fall_through = next_pc
                # A 16-bit value folds to itself: share the value object.
                rec.dest_fold = value if fold == value else fold
                append(rec)
        finally:
            if gc_was_enabled:
                gc.enable()
        return built

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.row(i) for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("trace row out of range")
        return self.row(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        for index in range(self._count):
            yield self.row(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarTrace):
            if self._count != other._count:
                return False
            return all(
                self.row(i) == other.row(i) for i in range(self._count)
            )
        if isinstance(other, (list, tuple)):
            if self._count != len(other):
                return False
            return all(
                self.row(i) == other[i] for i in range(self._count)
            )
        return NotImplemented

    def __repr__(self) -> str:
        backing = "buffer" if self._buffer is not None else "arrays"
        return f"ColumnarTrace({self._count} records, {backing}-backed)"

    # -- introspection -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total column payload size in bytes."""
        return self._count * sum(size for _n, _tc, size in COLUMN_SPEC)

    @property
    def materialized_rows(self) -> int:
        """How many row views have been materialized so far."""
        return self._materialized

    def to_records(self) -> list[TraceRecord]:
        """A plain ``list[TraceRecord]`` copy of the trace."""
        return list(self.rows())

    def column_bytes(self, name: str) -> bytes:
        """The raw little-endian bytes of one column."""
        return column_bytes(getattr(self, name))


def as_columnar(trace) -> ColumnarTrace:
    """``trace`` as a :class:`ColumnarTrace` (identity when it already is)."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_records(trace)
