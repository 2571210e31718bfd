"""VSRT v4, the binary trace format: chunked columns with a CRC per chunk.

The body is a sequence of fixed-size windowed chunks (default 1M
records, ``REPRO_TRACE_CHUNK``), each one column block laid out exactly
like the in-memory columns of a :class:`~repro.trace.columnar.ColumnarTrace`
(:data:`~repro.trace.columnar.COLUMN_SPEC`), so loading a chunk is a
bounded read plus a handful of ``memoryview.cast`` calls — no
per-record decode, no per-record allocation.  :class:`ChunkWriter`
writes chunks *incrementally* as the functional simulator produces
records, so peak writer memory is O(chunk) regardless of trace length.
Readers get a :class:`~repro.trace.columnar.ChunkedTrace` that loads one
chunk at a time (CRC-checked), so replaying a 10M-instruction trace
holds at most two chunks of rows; a file of one chunk — every trace up
to the chunk size — is served as that chunk's ``ColumnarTrace``
(:meth:`~repro.trace.columnar.ChunkedTrace.collapse`).  Each chunk's
index entry also carries a basic-block-vector fingerprint (instruction
counts bucketed by basic-block leader PC) computed during the write.
Only :func:`dumps_trace_chunked` reads it back, to copy it through; it
stays because it is part of every entry's bytes.

Layout (all integers little-endian)::

    magic        b"VSRT\\x04"
    pad          3 bytes (zero)
    total        u64    record count over all chunks
    chunk_size   u64    nominal records per chunk (last may be shorter)
    chunk_count  u64
    index_offset u64    byte offset of the chunk index
    bbv_dim      u32    fingerprint buckets per chunk
    index_crc    u32    CRC32 of the index block
    chunks, each 8-byte aligned:
      columns in COLUMN_SPEC order, each 8-byte aligned from chunk start:
        pc u64 | next_pc u64 | dest_value u64 | mem_addr u64 |
        srcs u32 (count | r0<<8 | r1<<16 | r2<<24) | dest_fold u16 |
        opcode u8 | flags u8 (bit0 has_dest, bit1 has_mem,
        bit2 branch_taken, bit3 has_branch_outcome) | mem_size u8 |
        dest_reg u8 (0xFF = none)
    index, one entry per chunk:
      offset u64 | count u64 | crc u32 (chunk payload CRC32) | pad u32 |
      bbv    bbv_dim x u32

The file size must equal ``index_offset + chunk_count * entry_size`` —
the truncation check — and the index itself is CRC-guarded, so a torn
write is rejected at open and a corrupt chunk is rejected the first time
it is loaded.  Each chunk's CRC is checked once per opened trace.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path

from repro.isa.opcodes import OPCODE_BY_CODE
from repro.trace.columnar import (
    COLUMN_SPEC,
    ChunkedTrace,
    ColumnarTrace,
    ColumnarTraceError,
    column_bytes,
    new_columns,
    record_row,
    row_appender,
)
from repro.trace.record import TraceRecord

MAGIC = b"VSRT\x04"

#: Default records per chunk (overridable per writer; the cache layer
#: reads ``REPRO_TRACE_CHUNK`` — see :mod:`repro.trace.cache`).
DEFAULT_CHUNK_RECORDS = 1_000_000

#: Basic-block-vector fingerprint buckets per chunk.
BBV_DIM = 32

#: Header: magic(5) pad(3) total u64 chunk_size u64 chunk_count u64
#: index_offset u64 bbv_dim u32 index_crc u32.
_HEADER = struct.Struct("<5s3xQQQQII")
_HEADER_SIZE = _HEADER.size  # 48

_MASK64 = (1 << 64) - 1

#: opcode code -> 1 for control-flow instructions (basic-block ends).
_BLOCK_END_CODES = bytes(
    1 if code in OPCODE_BY_CODE and OPCODE_BY_CODE[code].opclass.is_control
    else 0
    for code in range(256)
)


class BinaryTraceError(ValueError):
    """Raised when binary trace data is malformed."""


def _entry_struct(bbv_dim: int) -> struct.Struct:
    return struct.Struct(f"<QQI4x{bbv_dim}I")


def chunk_layout(count: int) -> tuple[dict[str, int], int]:
    """Column byte offsets (relative to the chunk start) and payload
    size for a chunk of ``count`` records.  Chunk starts are themselves
    8-byte aligned, so every column sits on a natural boundary."""
    offsets: dict[str, int] = {}
    pos = 0
    for name, _typecode, itemsize in COLUMN_SPEC:
        pos = (pos + 7) & ~7
        offsets[name] = pos
        pos += count * itemsize
    return offsets, pos


def _bbv_bucket(leader_pc: int, dim: int) -> int:
    """Fingerprint bucket for the basic block led by ``leader_pc``."""
    mixed = (leader_pc ^ (leader_pc >> 33)) * 0x9E3779B97F4A7C15 & _MASK64
    return (mixed >> 32) % dim


def _column_bbv(pc, opcode, dim: int) -> tuple[int, ...]:
    """A chunk's fingerprint from its ``pc`` and ``opcode`` columns: the
    instructions of each basic block (ended by a control-flow
    instruction or the chunk's end) counted under its leader's bucket.
    A block straddling a chunk boundary counts under its first PC in
    each chunk, so every chunk's fingerprint is its own."""
    bbv = [0] * dim
    ends = bytes(opcode).translate(_BLOCK_END_CODES)
    count = len(ends)
    start = 0
    while start < count:
        end = ends.find(1, start) + 1 or count
        bbv[_bbv_bucket(pc[start], dim)] += end - start
        start = end
    return tuple(bbv)


def _chunk_payload(columns, count: int) -> bytearray:
    """One chunk's payload from ``columns`` (name -> column)."""
    offsets, size = chunk_layout(count)
    payload = bytearray(size)
    for name, _typecode, itemsize in COLUMN_SPEC:
        start = offsets[name]
        payload[start : start + count * itemsize] = column_bytes(columns[name])
    return payload


class ChunkWriter:
    """Incremental VSRT v4 writer with O(chunk) memory.

    Feed it rows (``row``), records one at a time (:meth:`append`) or
    in bulk (:meth:`extend`); every ``chunk_records`` records it flushes
    one self-contained column block (with CRC and basic-block-vector
    fingerprint) to the output and empties its buffers.  ``close`` (or
    leaving the context manager) seals the file: tail chunk, index, and
    the header patched in place.

    ``out`` is a path or a seekable binary file object (``BytesIO``
    works, which is how uncached captures serialize a trace).

    ``row(pc, next_pc, dest_reg, dest_value, mem_addr, mem_size,
    branch_taken, srcs, opcode_code)`` is the writer's one entry point:
    it buffers one record given as its fields (see
    :func:`~repro.trace.columnar.row_appender`, whose function it is),
    flushing a chunk when the window fills.  The functional machine's
    capture calls it directly; :meth:`append` adapts a
    :class:`TraceRecord` onto it.  A chunk's fingerprint is taken from
    its columns when it is flushed.
    """

    def __init__(
        self,
        out,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        *,
        bbv_dim: int = BBV_DIM,
    ):
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        if bbv_dim < 1:
            raise ValueError("bbv_dim must be >= 1")
        self._chunk_records = chunk_records
        self._bbv_dim = bbv_dim
        if hasattr(out, "write"):
            self._file = out
            self._owns_file = False
        else:
            self._file = open(out, "wb")
            self._owns_file = True
        self._file.write(b"\x00" * _HEADER_SIZE)
        self._pos = _HEADER_SIZE
        self._index: list[tuple[int, int, int, tuple[int, ...]]] = []
        #: Records in chunks already written.
        self._written = 0
        self._closed = False
        self._cols = new_columns()
        self.row = row_appender(self._cols, chunk_records, self._flush_chunk)

    @property
    def total(self) -> int:
        """Records written or buffered so far."""
        return self._written + self.buffered

    @property
    def chunk_count(self) -> int:
        return len(self._index) + (1 if self.buffered else 0)

    @property
    def buffered(self) -> int:
        """Records currently held in memory (never exceeds the chunk
        size — the writer's O(chunk) memory bound)."""
        return len(self._cols["opcode"])

    def append(self, rec: TraceRecord) -> None:
        """Buffer one record."""
        self.row(*record_row(rec))

    def extend(self, records) -> None:
        append = self.append
        for rec in records:
            append(rec)

    def _flush_chunk(self) -> None:
        count = self.buffered
        if not count:
            return
        columns = self._cols
        bbv = _column_bbv(columns["pc"], columns["opcode"], self._bbv_dim)
        self._write_payload(_chunk_payload(columns, count), count, bbv)
        for column in columns.values():
            del column[:]
        self._written += count

    def _write_chunk(self, chunk: ColumnarTrace, bbv=None) -> None:
        """Write ``chunk`` as one whole chunk straight from its column
        bytes; ``bbv`` is its fingerprint when already known.  The
        caller keeps the layout valid: nothing buffered, and only the
        last chunk may hold fewer than ``chunk_records`` records."""
        count = len(chunk)
        if not count:
            return
        columns = {name: getattr(chunk, name) for name, _t, _s in COLUMN_SPEC}
        if bbv is None:
            bbv = _column_bbv(chunk.pc, chunk.opcode, self._bbv_dim)
        self._write_payload(_chunk_payload(columns, count), count, bbv)
        self._written += count

    def _write_payload(self, payload: bytearray, count: int, bbv) -> None:
        # 8-align the chunk start so column views sit on natural
        # boundaries in buffer-backed consumers.
        pad = (-self._pos) % 8
        if pad:
            self._file.write(b"\x00" * pad)
            self._pos += pad
        self._file.write(payload)
        self._index.append((self._pos, count, zlib.crc32(payload), tuple(bbv)))
        self._pos += len(payload)

    def close(self) -> int:
        """Seal the file (tail chunk + index + header); returns the
        total record count."""
        if self._closed:
            return self.total
        self._flush_chunk()
        self._closed = True
        pad = (-self._pos) % 8
        if pad:
            self._file.write(b"\x00" * pad)
            self._pos += pad
        index_offset = self._pos
        entry = _entry_struct(self._bbv_dim)
        index = bytearray()
        for offset, count, crc, bbv in self._index:
            index += entry.pack(offset, count, crc, *bbv)
        self._file.write(index)
        header = _HEADER.pack(
            MAGIC,
            self.total,
            self._chunk_records,
            len(self._index),
            index_offset,
            self._bbv_dim,
            zlib.crc32(bytes(index)),
        )
        self._file.seek(0)
        self._file.write(header)
        self._file.flush()
        if self._owns_file:
            self._file.close()
        else:
            self._file.seek(0, io.SEEK_END)
        return self.total

    def __enter__(self) -> "ChunkWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self._owns_file:
            self._file.close()


def _parse_header(header: bytes):
    magic, total, chunk_size, chunk_count, index_offset, bbv_dim, index_crc = (
        _HEADER.unpack(header)
    )
    if magic != MAGIC:
        raise BinaryTraceError("bad magic (not a v4 chunked trace)")
    if chunk_size < 1 or bbv_dim < 1:
        raise BinaryTraceError("corrupt v4 header (zero chunk size)")
    return total, chunk_size, chunk_count, index_offset, bbv_dim, index_crc


def _parse_index(
    index_bytes: bytes, chunk_count: int, bbv_dim: int, index_crc: int,
    total: int, chunk_size: int, file_size: int, index_offset: int,
):
    entry = _entry_struct(bbv_dim)
    if len(index_bytes) != chunk_count * entry.size:
        raise BinaryTraceError("truncated v4 index")
    if file_size != index_offset + chunk_count * entry.size:
        raise BinaryTraceError(
            f"v4 size mismatch: expected "
            f"{index_offset + chunk_count * entry.size} bytes, "
            f"file has {file_size}"
        )
    if zlib.crc32(index_bytes) != index_crc:
        raise BinaryTraceError("v4 index CRC mismatch")
    offsets: list[int] = []
    counts: list[int] = []
    crcs: list[int] = []
    bbvs: list[tuple[int, ...]] = []
    for i in range(chunk_count):
        fields = entry.unpack_from(index_bytes, i * entry.size)
        offsets.append(fields[0])
        counts.append(fields[1])
        crcs.append(fields[2])
        bbvs.append(fields[3:])
    if sum(counts) != total:
        raise BinaryTraceError("v4 chunk counts do not sum to the total")
    for i, count in enumerate(counts):
        expected = chunk_size if i + 1 < chunk_count else None
        if count < 1 or (expected is not None and count != expected):
            raise BinaryTraceError(f"v4 chunk {i} has invalid count {count}")
        _coffsets, csize = chunk_layout(count)
        if offsets[i] + csize > index_offset:
            raise BinaryTraceError(f"v4 chunk {i} overruns the index")
    return offsets, counts, crcs, bbvs


class _ChunkSource:
    """Shared chunk-source state (offsets/counts/CRCs/fingerprints).

    Subclasses supply ``_read(offset, size)``; each chunk's CRC is
    checked once, the first time its payload is read."""

    def _open(self, file_size: int) -> None:
        if file_size < _HEADER_SIZE:
            raise BinaryTraceError("truncated v4 header")
        (total, chunk_size, chunk_count, index_offset, bbv_dim, index_crc) = (
            _parse_header(bytes(self._read(0, _HEADER_SIZE)))
        )
        if index_offset > file_size:
            raise BinaryTraceError("v4 index offset beyond end of file")
        index_bytes = bytes(self._read(index_offset, file_size - index_offset))
        self.total = total
        self.chunk_size = chunk_size
        self.offsets, self.counts, self.crcs, self.bbvs = _parse_index(
            index_bytes, chunk_count, bbv_dim, index_crc,
            total, chunk_size, file_size, index_offset,
        )
        self._verified = [False] * chunk_count

    def _payload(self, index: int):
        _coffsets, size = chunk_layout(self.counts[index])
        payload = self._read(self.offsets[index], size)
        if len(payload) != size:
            raise BinaryTraceError(f"v4 chunk {index} truncated")
        if not self._verified[index]:
            if zlib.crc32(payload) != self.crcs[index]:
                raise BinaryTraceError(f"v4 chunk {index} CRC mismatch")
            self._verified[index] = True
        return payload

    def load_chunk(self, index: int, seq_base: int) -> ColumnarTrace:
        count = self.counts[index]
        offsets, _size = chunk_layout(count)
        try:
            return ColumnarTrace.from_buffer(
                self._payload(index), count, offsets, seq_base=seq_base
            )
        except ColumnarTraceError as exc:
            raise BinaryTraceError(str(exc)) from None

    def verify(self) -> None:
        """CRC-check every chunk in one streaming pass (bounded memory);
        later loads of the chunks skip the CRC."""
        for index in range(len(self.counts)):
            self._payload(index)


class _FileChunkSource(_ChunkSource):
    """Chunks served by positional reads from a v4 file — loading a
    chunk costs one bounded read, never a whole-file map, so resident
    memory tracks the LRU window, not the trace.  Reads use ``os.pread``
    so the file offset is never shared state: forked pool workers
    inherit the parent's open file description, and seek+read pairs
    from sibling processes would race on its offset and return
    scrambled payloads."""

    def __init__(self, path: str | Path):
        self._file = open(path, "rb")
        try:
            self._open(self._file.seek(0, io.SEEK_END))
        except BaseException:
            self._file.close()
            raise

    def _read(self, offset: int, size: int) -> bytes:
        return os.pread(self._file.fileno(), size, offset)

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self._file.close()
        except Exception:
            pass


class _BufferChunkSource(_ChunkSource):
    """Chunks served zero-copy from one in-memory buffer."""

    def __init__(self, buffer):
        self._view = memoryview(buffer)
        self._open(len(self._view))

    def _read(self, offset: int, size: int) -> memoryview:
        return self._view[offset : offset + size]


def read_trace_chunked(
    path: str | Path, *, keep_chunks: int = 2
) -> ChunkedTrace:
    """Open a v4 trace from ``path``.

    Opening validates the header and CRC-guarded index only — O(1) in
    trace length; each chunk's CRC is checked when it is first loaded.
    """
    return ChunkedTrace(_FileChunkSource(path), keep_chunks=keep_chunks)


def open_trace(path: str | Path) -> ColumnarTrace | ChunkedTrace:
    """Open a v4 trace for replay with every chunk CRC-checked exactly
    once, now.

    A file of at most one chunk is returned as that chunk's
    :class:`ColumnarTrace` (read and checked in one pass); a longer one
    as a verified :class:`ChunkedTrace`.  This is the cache's warm-load
    path: a corrupt entry raises :class:`BinaryTraceError` here, never
    mid-simulation.
    """
    source = _FileChunkSource(path)
    if len(source.counts) > 1:
        source.verify()
    return ChunkedTrace(source).collapse()


def loads_trace_chunked(buffer, *, keep_chunks: int = 2) -> ChunkedTrace:
    """Wrap v4 ``buffer`` (bytes, mmap) without copying."""
    return ChunkedTrace(_BufferChunkSource(buffer), keep_chunks=keep_chunks)


def write_trace_chunked(
    records,
    path: str | Path,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> int:
    """Stream ``records`` (any iterable) to ``path`` in v4; returns the
    record count.  Peak memory is O(chunk_records)."""
    with ChunkWriter(path, chunk_records) as writer:
        writer.extend(records)
    return writer.total


def dumps_trace_chunked(
    trace, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> bytes:
    """Serialize a trace to v4 bytes in memory.

    Column-backed traces are copied column by column, never
    materializing a row: a :class:`ColumnarTrace` is written as one
    chunk, and a :class:`ChunkedTrace` keeps its chunk geometry and its
    capture-time fingerprints.  Either way the bytes equal those of the
    same records streamed through :class:`ChunkWriter`.
    """
    out = io.BytesIO()
    if isinstance(trace, ChunkedTrace):
        with ChunkWriter(out, trace.chunk_size) as writer:
            for index, bbv in enumerate(trace.bbvs()):
                writer._write_chunk(trace.chunk(index), bbv)
    elif isinstance(trace, ColumnarTrace):
        with ChunkWriter(out, max(chunk_records, len(trace))) as writer:
            writer._write_chunk(trace)
    else:
        with ChunkWriter(out, chunk_records) as writer:
            writer.extend(trace)
    return out.getvalue()


def chunked_entry_info(path: str | Path) -> dict:
    """Header/index summary of a v4 file without loading any chunk."""
    source = _FileChunkSource(path)
    sizes = [chunk_layout(count)[1] for count in source.counts]
    return {
        "records": source.total,
        "chunk_size": source.chunk_size,
        "chunks": len(source.counts),
        "chunk_records": list(source.counts),
        "chunk_bytes": sizes,
    }
