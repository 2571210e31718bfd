"""Sparse byte-addressable memory for the functional simulator."""

from __future__ import annotations

import struct

_CHUNK_BITS = 12
_CHUNK_SIZE = 1 << _CHUNK_BITS

#: Little-endian unsigned codecs for the access widths the ISA uses: an
#: access inside one chunk is a single ``unpack_from``/``pack_into`` on
#: the chunk itself, with no intermediate ``bytes``.
_UINT = {size: struct.Struct(f"<{code}") for size, code in
         ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


def _one_chunk_codec(address: int, size: int) -> struct.Struct | None:
    """The codec for a ``size``-byte access at ``address`` when it lies
    inside one chunk; ``None`` sends it down the general byte path."""
    codec = _UINT.get(size)
    if (
        codec is not None
        and address >= 0
        and (address & (_CHUNK_SIZE - 1)) + size <= _CHUNK_SIZE
    ):
        return codec
    return None


class MemoryImage:
    """Sparse memory image backed by fixed-size bytearray chunks.

    Reads of untouched memory return zero, so ``.space`` regions and the
    stack need no explicit initialization.
    """

    def __init__(self) -> None:
        self._chunks: dict[int, bytearray] = {}

    def _chunk_for(self, address: int) -> tuple[bytearray, int]:
        base = address >> _CHUNK_BITS
        chunk = self._chunks.get(base)
        if chunk is None:
            chunk = bytearray(_CHUNK_SIZE)
            self._chunks[base] = chunk
        return chunk, address & (_CHUNK_SIZE - 1)

    def load_bytes(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address``."""
        if address < 0 or size < 0:
            raise ValueError(f"bad memory read: addr={address:#x} size={size}")
        out = bytearray(size)
        pos = 0
        while pos < size:
            chunk, offset = self._chunk_for(address + pos)
            take = min(size - pos, _CHUNK_SIZE - offset)
            out[pos : pos + take] = chunk[offset : offset + take]
            pos += take
        return bytes(out)

    def store_bytes(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        if address < 0:
            raise ValueError(f"bad memory write: addr={address:#x}")
        pos = 0
        while pos < len(data):
            chunk, offset = self._chunk_for(address + pos)
            take = min(len(data) - pos, _CHUNK_SIZE - offset)
            chunk[offset : offset + take] = data[pos : pos + take]
            pos += take

    def load_uint(self, address: int, size: int) -> int:
        """Read a ``size``-byte little-endian unsigned integer."""
        codec = _one_chunk_codec(address, size)
        if codec is not None:
            chunk, offset = self._chunk_for(address)
            return codec.unpack_from(chunk, offset)[0]
        return int.from_bytes(self.load_bytes(address, size), "little")

    def store_uint(self, address: int, value: int, size: int) -> None:
        """Write a ``size``-byte little-endian unsigned integer."""
        value &= (1 << (8 * size)) - 1
        codec = _one_chunk_codec(address, size)
        if codec is not None:
            chunk, offset = self._chunk_for(address)
            codec.pack_into(chunk, offset, value)
            return
        self.store_bytes(address, value.to_bytes(size, "little"))

    def load_cstring(self, address: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string (debug/inspection helper)."""
        raw = bytearray()
        for i in range(limit):
            byte = self.load_uint(address + i, 1)
            if byte == 0:
                break
            raw.append(byte)
        return raw.decode("latin-1")

    def touched_chunks(self) -> int:
        """Number of backing chunks allocated (memory-footprint metric)."""
        return len(self._chunks)
