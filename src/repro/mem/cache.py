"""Set-associative cache timing model with true-LRU replacement.

The model tracks tags only (latency simulation does not need data) and
reports the total latency of each access, recursing into the next level on
a miss.  The innermost level's ``miss_latency`` stands in for main memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0


class Cache:
    """One level of a cache hierarchy.

    Parameters
    ----------
    size_bytes / block_bytes / assoc:
        Geometry.  ``size_bytes`` must be an exact multiple of
        ``block_bytes * assoc``.
    hit_latency:
        Cycles for a hit in this level.
    miss_latency:
        Cycles added by a miss when there is no ``next_level`` (i.e. the
        cost of going to memory from this level).
    next_level:
        Optional backing cache; on a miss the access recurses and the
        backing level's latency is added.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        block_bytes: int,
        assoc: int,
        hit_latency: int,
        miss_latency: int = 0,
        next_level: "Cache | None" = None,
    ):
        if block_bytes <= 0 or (block_bytes & (block_bytes - 1)):
            raise ValueError("block_bytes must be a positive power of two")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        if size_bytes % (block_bytes * assoc):
            raise ValueError("size must be a multiple of block_bytes * assoc")
        if hit_latency < 0 or miss_latency < 0:
            raise ValueError("latencies must be non-negative")
        self.name = name
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.assoc = assoc
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.next_level = next_level
        self.num_sets = size_bytes // (block_bytes * assoc)
        self._block_shift = block_bytes.bit_length() - 1
        # Per-set list of tags in LRU order (index 0 = most recent), keyed
        # by set index and materialized on first touch: short runs visit a
        # tiny fraction of a 4K-set cache, and hierarchies are rebuilt per
        # simulation run, so eagerly allocating every set costs more than
        # the simulation's accesses to it.
        self._sets: dict[int, list[int]] = {}
        self.stats = CacheStats()

    def _set_tag(self, address: int) -> tuple[list[int], int]:
        block = address >> self._block_shift
        index = block % self.num_sets
        tags = self._sets.get(index)
        if tags is None:
            tags = self._sets[index] = []
        return tags, block // self.num_sets

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        tags, tag = self._set_tag(address)
        return tag in tags

    def access(self, address: int, is_write: bool = False) -> int:
        """Access the block containing ``address``; returns total latency.

        Write misses allocate (write-allocate policy) and writes are
        modeled as write-back (a dirty eviction counts a writeback but
        adds no latency: writeback buffers are assumed).
        """
        stats = self.stats
        stats.accesses += 1
        # _set_tag inlined: access() dominates simulation time and the
        # helper call was pure overhead on every memory reference.
        block = address >> self._block_shift
        index = block % self.num_sets
        tags = self._sets.get(index)
        if tags is None:
            tags = self._sets[index] = []
        tag = block // self.num_sets
        if tag in tags:
            stats.hits += 1
            if tags[0] != tag:  # moving the MRU block is a no-op
                tags.remove(tag)
                tags.insert(0, tag)
            return self.hit_latency
        stats.misses += 1
        if len(tags) >= self.assoc:
            tags.pop()
            if is_write:
                stats.writebacks += 1
        tags.insert(0, tag)
        if self.next_level is not None:
            return self.hit_latency + self.next_level.access(address, is_write)
        return self.hit_latency + self.miss_latency

    def flush(self) -> None:
        """Invalidate all blocks (statistics are preserved)."""
        self._sets.clear()
