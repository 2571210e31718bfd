"""Assembled cache hierarchy matching the paper's Section 5.1 parameters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import Cache


@dataclass
class MemoryHierarchy:
    """L1I and L1D sharing a unified L2."""

    l1i: Cache
    l1d: Cache
    l2: Cache

    def data_access(self, address: int, is_write: bool) -> int:
        """Latency for a data access to ``address``."""
        return self.l1d.access(address, is_write)

    def flush(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()


class PerfectCache(Cache):
    """A cache that always hits at its hit latency (limit-study runs)."""

    def access(self, address: int, is_write: bool = False) -> int:
        self.stats.accesses += 1
        self.stats.hits += 1
        return self.hit_latency


def make_paper_hierarchy(perfect: bool = False) -> MemoryHierarchy:
    """Build the hierarchy from the paper.

    * L1I: 64KB, 32B blocks, 4-way, 1-cycle hit.
    * L1D: 64KB, 32B blocks, 4-way, 2-cycle hit.
    * L2: unified, 1MB, 64B blocks, 4-way, 12-cycle hit; an L2 miss costs
      36 cycles total from the L2's perspective (12-cycle lookup + 24 to
      memory), matching "12 cycle hit and 36 cycle miss time".

    ``perfect=True`` swaps in always-hitting caches with the same hit
    latencies (for idealized limit-style runs).
    """
    if perfect:
        l2p = PerfectCache("L2", 1 << 20, 64, 4, hit_latency=12)
        return MemoryHierarchy(
            l1i=PerfectCache("L1I", 64 << 10, 32, 4, hit_latency=1),
            l1d=PerfectCache("L1D", 64 << 10, 32, 4, hit_latency=2),
            l2=l2p,
        )
    l2 = Cache(
        "L2",
        size_bytes=1 << 20,
        block_bytes=64,
        assoc=4,
        hit_latency=12,
        miss_latency=24,
    )
    l1i = Cache(
        "L1I",
        size_bytes=64 << 10,
        block_bytes=32,
        assoc=4,
        hit_latency=1,
        next_level=l2,
    )
    l1d = Cache(
        "L1D",
        size_bytes=64 << 10,
        block_bytes=32,
        assoc=4,
        hit_latency=2,
        next_level=l2,
    )
    return MemoryHierarchy(l1i=l1i, l1d=l1d, l2=l2)
