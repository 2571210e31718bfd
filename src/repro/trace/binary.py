"""VSRT v5, the binary trace format: one CRC-guarded column block.

An entry is a small header followed by one column block laid out
exactly like the in-memory columns of a
:class:`~repro.trace.columnar.ColumnarTrace`
(:data:`~repro.trace.columnar.COLUMN_SPEC`), so loading an entry is one
read, one CRC pass and a handful of ``memoryview.cast`` calls — no
per-record decode, no per-record allocation.  Every kernel of the suite
runs to completion in at most 127,519 records (about 5 MB of columns),
so a whole trace is always one block.

Layout (all integers little-endian)::

    magic   b"VSRT\\x05"
    pad     3 bytes (zero)
    count   u64    record count
    crc     u32    CRC32 of the column block
    pad     4 bytes (zero)
    block: columns in COLUMN_SPEC order, each 8-byte aligned from the
      block start:
        pc u64 | next_pc u64 | dest_value u64 | mem_addr u64 |
        srcs u32 (count | r0<<8 | r1<<16 | r2<<24) | dest_fold u16 |
        opcode u8 | flags u8 (bit0 has_dest, bit1 has_mem,
        bit2 branch_taken, bit3 has_branch_outcome) | mem_size u8 |
        dest_reg u8 (0xFF = none)

The file size must equal the header plus ``block_layout(count)``'s
size — the truncation check — and the block's CRC is checked once, when
the entry is loaded, so a torn or corrupt entry is rejected at load,
never mid-simulation.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

from repro.trace.columnar import (
    COLUMN_SPEC,
    ColumnarTrace,
    ColumnarTraceError,
    as_columnar,
    column_bytes,
    new_columns,
    row_appender,
)

MAGIC = b"VSRT\x05"

#: Header: magic(5) pad(3) count u64 crc u32 pad(4).
_HEADER = struct.Struct("<5s3xQI4x")

#: Byte offset of the column block (8-aligned, so every column sits on
#: a natural boundary).
HEADER_SIZE = _HEADER.size  # 24


class BinaryTraceError(ValueError):
    """Raised when binary trace data is malformed."""


def block_layout(count: int) -> tuple[dict[str, int], int]:
    """Column byte offsets (relative to the block start) and block size
    for ``count`` records."""
    offsets: dict[str, int] = {}
    pos = 0
    for name, _typecode, itemsize in COLUMN_SPEC:
        pos = (pos + 7) & ~7
        offsets[name] = pos
        pos += count * itemsize
    return offsets, pos


def _entry(columns, count: int) -> bytes:
    """The VSRT v5 bytes of ``count`` records held in ``columns`` (name
    -> column)."""
    offsets, size = block_layout(count)
    entry = bytearray(HEADER_SIZE + size)
    for name, _typecode, itemsize in COLUMN_SPEC:
        start = HEADER_SIZE + offsets[name]
        entry[start : start + count * itemsize] = column_bytes(columns[name])
    crc = zlib.crc32(memoryview(entry)[HEADER_SIZE:])
    _HEADER.pack_into(entry, 0, MAGIC, count, crc)
    return bytes(entry)


class TraceWriter:
    """A capture's row sink.

    ``row(pc, next_pc, dest_reg, dest_value, mem_addr, mem_size,
    branch_taken, srcs, opcode_code)`` appends one record given as its
    fields (see :func:`~repro.trace.columnar.row_appender`, whose
    function it is) to in-memory columns; the functional machine's
    capture calls it directly, so no per-instruction object is built.
    :meth:`getvalue` returns the VSRT v5 entry of every row so far.
    """

    def __init__(self):
        self._columns = new_columns()
        self.row = row_appender(self._columns)

    def getvalue(self) -> bytes:
        return _entry(self._columns, len(self._columns["opcode"]))


def dumps_trace(trace) -> bytes:
    """Serialize a trace (a :class:`ColumnarTrace`, copied column by
    column without building a row, or any iterable of records) to VSRT
    v5 bytes."""
    trace = as_columnar(trace)
    columns = {name: getattr(trace, name) for name, _t, _s in COLUMN_SPEC}
    return _entry(columns, len(trace))


def _header(header) -> tuple[int, int, int]:
    """``(count, crc, expected file size)`` of a VSRT v5 header."""
    if len(header) < HEADER_SIZE:
        raise BinaryTraceError("truncated VSRT v5 header")
    magic, count, crc = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise BinaryTraceError("bad magic (not a VSRT v5 trace)")
    return count, crc, HEADER_SIZE + block_layout(count)[1]


def loads_trace(buffer) -> ColumnarTrace:
    """The trace in VSRT v5 ``buffer`` (bytes, bytearray, mmap), its
    columns viewing the buffer without a copy.  The size and the block's
    CRC are checked here; a failure raises :class:`BinaryTraceError`."""
    view = memoryview(buffer)
    count, crc, size = _header(view)
    if len(view) != size:
        raise BinaryTraceError(
            f"VSRT v5 size mismatch: expected {size} bytes, got {len(view)}"
        )
    block = view[HEADER_SIZE:]
    if zlib.crc32(block) != crc:
        raise BinaryTraceError("VSRT v5 block CRC mismatch")
    try:
        return ColumnarTrace.from_buffer(block, count, block_layout(count)[0])
    except ColumnarTraceError as exc:
        raise BinaryTraceError(str(exc)) from None


def open_trace(path: str | Path) -> ColumnarTrace:
    """The trace in the VSRT v5 file at ``path``: one read, CRC-checked
    once, now.  This is the cache's warm-load path: a corrupt entry
    raises :class:`BinaryTraceError` here, never mid-simulation."""
    with open(path, "rb") as file:
        return loads_trace(file.read())


def entry_records(path: str | Path) -> int:
    """The record count of the VSRT v5 file at ``path``, from its header
    and size alone (the block is neither read nor CRC-checked)."""
    with open(path, "rb") as file:
        count, _crc, size = _header(file.read(HEADER_SIZE))
    actual = Path(path).stat().st_size
    if actual != size:
        raise BinaryTraceError(
            f"VSRT v5 size mismatch: expected {size} bytes, file has {actual}"
        )
    return count
