"""Columnar (struct-of-arrays) dynamic-trace storage.

The sweep harness streams *one* dynamic trace through many engine
instances (configurations x models x ablations), so the trace's in-memory
representation is load-bearing for startup cost, memory footprint and
worker fan-out.  A :class:`ColumnarTrace` keeps the per-instruction facts
of :class:`~repro.trace.record.TraceRecord` as parallel fixed-width
columns instead of one Python object per instruction:

* **A ColumnarTrace is one chunk.**  Its column layout is exactly one
  chunk of the VSRT v4 format (:mod:`repro.trace.binary`), so loading a
  chunk is one read plus a handful of ``memoryview.cast`` calls — no
  per-record decode, no per-record allocation — and a cache entry of
  one chunk is served as a ``ColumnarTrace``.
* **Distribution by file name.**  The same property lets the parallel
  sweep runner hand a trace to worker processes as the name of a VSRT
  v4 cache entry, its one staging tier, instead of pickling a list of
  records per worker (:mod:`repro.harness.parallel`).
* **Row-view compatibility.**  The timing engine consumes
  ``TraceRecord`` objects; ``trace[i]`` materializes the row *once*, on
  first touch, and memoizes it, so replaying the same trace object
  through many engine instances pays record construction once per
  process, not once per run.  Materialization writes the record's slots
  directly from the columns (the ``dest_fold`` precompute is a stored
  column, the classification flags come from a per-opcode table), which
  is cheaper than re-running ``TraceRecord.__init__``.

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

import sys
from array import array
from typing import Callable, Iterator

from repro.isa.opcodes import CLASS_LATENCY, OPCODE_BY_CODE, OpClass, Opcode
from repro.trace.record import TraceRecord

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


def _kind_bits(opclass: OpClass) -> int:
    bits = 0
    if opclass is OpClass.BRANCH:
        bits |= KIND_BRANCH
    if opclass in (OpClass.BRANCH, OpClass.JUMP, OpClass.IJUMP):
        bits |= KIND_CONTROL
    if opclass is OpClass.LOAD:
        bits |= KIND_LOAD | KIND_MEMORY
    if opclass is OpClass.STORE:
        bits |= KIND_STORE | KIND_MEMORY
    if opclass is OpClass.IJUMP:
        bits |= KIND_INDIRECT
    return bits


#: opcode code -> kind byte, as a 256-entry translate table so deriving
#: the whole kind column is one ``bytes.translate`` call.  Codes with no
#: opcode map to 0 (validity is checked separately via ``_VALID_CODES``).
_KIND_TABLE = bytes(
    _kind_bits(OPCODE_BY_CODE[code].opclass) if code in OPCODE_BY_CODE else 0
    for code in range(256)
)

_VALID_CODES = frozenset(OPCODE_BY_CODE)

#: opcode code -> (opcode, opclass, is_load, is_store, is_memory,
#: is_branch, is_control, is_indirect, exec_latency, sel_priority,
#: is_ctrl) for row materialization; None for invalid codes.  Kept in
#: lockstep with ``repro.trace.record._CLASS_FLAGS``.
_ROW_INFO: list[tuple | None] = [None] * 256
for _code, _op in OPCODE_BY_CODE.items():
    _oc = _op.opclass
    _ROW_INFO[_code] = (
        _op,
        _oc,
        _oc is OpClass.LOAD,
        _oc is OpClass.STORE,
        _oc is OpClass.LOAD or _oc is OpClass.STORE,
        _oc is OpClass.BRANCH,
        _oc is OpClass.BRANCH or _oc is OpClass.JUMP or _oc is OpClass.IJUMP,
        _oc is OpClass.IJUMP,
        CLASS_LATENCY[_oc],
        0 if _oc is OpClass.BRANCH or _oc is OpClass.LOAD else 1,
        _oc is OpClass.BRANCH or _oc is OpClass.IJUMP,
    )
del _code, _op, _oc

#: Pre-sliced src_regs tuples for the common arities (count 0/1/2 cover
#: every ISA instruction; 3 is headroom for synthetic traces).
_EMPTY_SRCS: tuple[int, ...] = ()


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


def row_appender(
    columns: dict[str, array],
    limit: int = sys.maxsize,
    full: Callable[[], None] | None = None,
) -> Callable[..., None]:
    """A function appending one row to ``columns`` (as made by
    :func:`new_columns`) — the one column encoding, behind
    :meth:`ColumnarTrace.from_records`, the streaming v4 chunk writer
    (``ChunkWriter.row``) and so the functional machine's capture.

    The row is given as its trace-record fields: ``row(pc, next_pc,
    dest_reg, dest_value, mem_addr, mem_size, branch_taken, srcs,
    opcode_code)``, with ``None`` for an absent field exactly as on a
    :class:`TraceRecord`, the 64-bit fields already truncated to 64 bits
    (:func:`record_row` does that for a record), ``srcs`` packed by
    :func:`pack_srcs` and the opcode as its stable code.  ``full()`` is
    called after the row that makes the columns ``limit`` rows long (the
    chunk writer's flush)."""
    opcodes = columns["opcode"]
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
        if len(opcodes) >= limit:
            full()

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
        #: Backing buffer keep-alive (the v4 chunk payload, read from a
        #: cache-entry file or sliced from an in-memory image);
        #: None when columns are own-memory ``array.array`` objects.
        "_buffer",
        #: Global sequence number of row 0 — non-zero when this trace is
        #: one chunk of a :class:`ChunkedTrace`, so materialized rows
        #: carry their position in the *whole* stream.
        "_seq_base",
    )

    def __init__(self, columns: dict, count: int, buffer=None, seq_base: int = 0):
        for name, _tc, _size in COLUMN_SPEC:
            setattr(self, name, columns[name])
        self.kind = bytes(columns["opcode"]).translate(_KIND_TABLE)
        self._count = count
        self._rows: list[TraceRecord | None] = [None] * count
        self._materialized = 0
        self._buffer = buffer
        self._seq_base = seq_base

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
        cls, buffer, count: int, offsets: dict[str, int], seq_base: int = 0
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
            chunk = view[start : start + count * itemsize]
            if _LITTLE_ENDIAN:
                columns[name] = chunk.cast(typecode)
            else:  # pragma: no cover - exercised only on big-endian hosts
                col = array(typecode)
                col.frombytes(bytes(chunk))
                col.byteswap()
                columns[name] = col
        keep = buffer if _LITTLE_ENDIAN else None
        trace = cls(columns, count, buffer=keep, seq_base=seq_base)
        opcode_codes = set(bytes(columns["opcode"]))
        if not opcode_codes <= _VALID_CODES:
            bad = min(opcode_codes - _VALID_CODES)
            raise ColumnarTraceError(f"unknown opcode byte {bad:#x}")
        return trace

    # -- row views ---------------------------------------------------------

    def _materialize(self, index: int) -> TraceRecord:
        info = _ROW_INFO[self.opcode[index]]
        if info is None:
            raise ColumnarTraceError(
                f"unknown opcode byte {self.opcode[index]:#x} at row {index}"
            )
        rec = TraceRecord.__new__(TraceRecord)
        rec.seq = self._seq_base + index
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
        packed = self.srcs[index]
        nsrcs = packed & 0xFF
        if nsrcs == 0:
            rec.src_regs = _EMPTY_SRCS
        elif nsrcs == 1:
            rec.src_regs = ((packed >> 8) & 0xFF,)
        elif nsrcs == 2:
            rec.src_regs = ((packed >> 8) & 0xFF, (packed >> 16) & 0xFF)
        else:
            rec.src_regs = (
                (packed >> 8) & 0xFF,
                (packed >> 16) & 0xFF,
                (packed >> 24) & 0xFF,
            )
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
        rec.branch_taken = (
            bool(flags & FLAG_BRANCH_TAKEN) if flags & FLAG_HAS_BRANCH else None
        )
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
            rows = self._rows
            materialize = self._materialize
            for index in range(self._count):
                if rows[index] is None:
                    rows[index] = materialize(index)
        return self._rows  # fully populated from here on

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


class ChunkedTrace:
    """A long dynamic trace served one fixed-size chunk at a time.

    Duck-types the ``list[TraceRecord]`` interface the engine consumes —
    ``len``, integer/slice indexing, iteration, equality — while keeping
    only a bounded number of chunks (default 2: the engine walks mostly
    forward, but value-misspeculation recovery can step back across a
    chunk boundary) materialized at any moment.  Peak memory is
    O(chunk size), independent of trace length.

    The chunk *source* is pluggable: anything with ``counts`` (records
    per chunk), ``chunk_size`` (nominal records per chunk — every chunk
    but the last holds exactly this many), ``load_chunk(i, seq_base)``
    returning a :class:`ColumnarTrace`, and ``bbvs`` (per-chunk
    basic-block-vector fingerprints, tuples of ints).  The file and
    in-memory VSRT v4 sources live in :mod:`repro.trace.binary`.
    """

    __slots__ = ("_source", "_counts", "_starts", "_chunk_size", "_total",
                 "_loaded", "_keep")

    def __init__(self, source, keep_chunks: int = 2):
        if keep_chunks < 1:
            raise ValueError("keep_chunks must be >= 1")
        self._source = source
        self._counts = tuple(source.counts)
        self._chunk_size = source.chunk_size
        starts = []
        pos = 0
        for count in self._counts:
            starts.append(pos)
            pos += count
        self._starts = tuple(starts)
        self._total = pos
        #: chunk index -> ColumnarTrace, insertion-ordered LRU.
        self._loaded: dict[int, ColumnarTrace] = {}
        self._keep = keep_chunks

    # -- chunk access ------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        return len(self._counts)

    @property
    def chunk_size(self) -> int:
        """Nominal records per chunk (the last chunk may be shorter)."""
        return self._chunk_size

    @property
    def counts(self) -> tuple[int, ...]:
        """Records per chunk."""
        return self._counts

    @property
    def loaded_chunks(self) -> tuple[int, ...]:
        """Indices of the chunks currently materialized (bounded)."""
        return tuple(self._loaded)

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        """``(start, end)`` global record positions of chunk ``index``."""
        start = self._starts[index]
        return start, start + self._counts[index]

    def chunk(self, index: int) -> ColumnarTrace:
        """Chunk ``index`` as a :class:`ColumnarTrace` (LRU-cached)."""
        loaded = self._loaded
        trace = loaded.get(index)
        if trace is not None:
            if next(reversed(loaded)) != index:  # move to LRU tail
                del loaded[index]
                loaded[index] = trace
            return trace
        if not 0 <= index < len(self._counts):
            raise IndexError("chunk index out of range")
        trace = self._source.load_chunk(index, self._starts[index])
        while len(loaded) >= self._keep:
            del loaded[next(iter(loaded))]
        loaded[index] = trace
        return trace

    def collapse(self) -> "ColumnarTrace | ChunkedTrace":
        """This trace as its only chunk when it has at most one — a
        :class:`ColumnarTrace`, which the engine replays at list speed —
        and ``self`` otherwise."""
        if len(self._counts) > 1:
            return self
        if not self._counts:
            return ColumnarTrace.from_records(())
        return self.chunk(0)

    def bbvs(self) -> tuple[tuple[int, ...], ...]:
        """Per-chunk basic-block-vector fingerprints (capture-time)."""
        return tuple(self._source.bbvs)

    def chunk_crcs(self) -> tuple[int, ...]:
        """Per-chunk payload CRCs from the index (no chunk is loaded).

        Two captures of the same workload are bit-identical exactly when
        these sequences match — the cheap determinism check the 10M-
        record regression uses.
        """
        return tuple(self._source.crcs)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError("trace row out of range")
        chunk_index = index // self._chunk_size
        return self.chunk(chunk_index).row(index - self._starts[chunk_index])

    def __iter__(self) -> Iterator[TraceRecord]:
        for chunk_index in range(len(self._counts)):
            yield from self.chunk(chunk_index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ChunkedTrace, ColumnarTrace, list, tuple)):
            if self._total != len(other):
                return False
            other_iter = iter(other)
            return all(a == b for a, b in zip(self, other_iter))
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"ChunkedTrace({self._total} records, "
            f"{len(self._counts)} chunks of {self._chunk_size})"
        )

    # -- introspection -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total column payload size in bytes (all chunks)."""
        itemsize = sum(size for _n, _tc, size in COLUMN_SPEC)
        return self._total * itemsize

    def to_records(self) -> list[TraceRecord]:
        """A plain ``list[TraceRecord]`` copy (materializes everything —
        test/convenience API, not for long traces)."""
        return list(self)


def as_columnar(trace) -> ColumnarTrace:
    """``trace`` as a :class:`ColumnarTrace` (identity when it already is).

    A :class:`ChunkedTrace` is materialized in full — callers that need
    bounded memory should consume chunks directly instead.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    if isinstance(trace, ChunkedTrace):
        return ColumnarTrace.from_records(iter(trace))
    return ColumnarTrace.from_records(trace)
