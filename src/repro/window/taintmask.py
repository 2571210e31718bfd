"""Recycled sid→bit allocation for taint bitmasks.

The engine tracks *taints* — the unresolved speculation sources a held
value transitively depends on — as plain Python integers used as bitsets.
Union, subset, membership and clearing become single int operations with
zero allocation, which is what makes the broadcast/verify/invalidate hot
paths cheap (see docs/PERFORMANCE.md).

Station ids grow without bound over a run, so taint bits cannot simply be
``1 << sid``: a long trace would produce multi-kilobyte integers.  Instead
every *speculation source* (a confident prediction actually broadcast to
consumers) is assigned a small bit index from this allocator, and the bit
is recycled once the source can no longer appear in any live taint set.

Recycling is lazy: freeing eagerly would require reference-counting every
mask in the machine.  Instead the allocator hands out bits from a free
list (or fresh indices up to ``soft_limit``), and when it runs dry the
engine passes in the union of every *live* mask — window operands, station
outputs, in-flight transaction sources — and :meth:`sweep` reclaims every
bit whose owning station has retired and which no live mask contains.
The window bounds the number of concurrently unresolved sources, so masks
stay ``soft_limit`` bits wide regardless of trace length.
"""

from __future__ import annotations


class TaintBitAllocator:
    """Allocates and recycles the bit index backing each speculation source."""

    def __init__(self, soft_limit: int = 128):
        if soft_limit <= 0:
            raise ValueError("soft_limit must be positive")
        self.soft_limit = soft_limit
        self._free: list[int] = []
        self._next = 0
        #: bit index -> owning station (an object with ``retired``).
        self._owners: dict[int, object] = {}

    def __len__(self) -> int:
        """Number of bits currently allocated."""
        return len(self._owners)

    def alloc(self, owner) -> int:
        """Allocate a bit for ``owner`` and return its mask (``1 << bit``).

        Returns 0 when the allocator is at its soft limit with nothing on
        the free list — the caller should :meth:`sweep` and retry (and
        :meth:`grow` if the sweep reclaimed nothing).
        """
        if self._free:
            bit = self._free.pop()
        elif self._next < self.soft_limit:
            bit = self._next
            self._next += 1
        else:
            return 0
        self._owners[bit] = owner
        return 1 << bit

    def sweep(self, live_mask: int) -> int:
        """Reclaim every bit with a retired owner not present in
        ``live_mask``; returns the mask of freed bits.

        ``live_mask`` must be the union of every reachable taint mask —
        any bit missing from it that a live consumer still carries would
        be recycled into a *different* source and corrupt taint tracking.
        """
        freed = 0
        dead = [
            bit
            for bit, owner in self._owners.items()
            if owner.retired and not (live_mask >> bit) & 1
        ]
        for bit in dead:
            del self._owners[bit]
            self._free.append(bit)
            freed |= 1 << bit
        return freed

    def grow(self) -> None:
        """Double the soft limit (sweep reclaimed nothing: every bit is
        genuinely live, so wider masks are the only option)."""
        self.soft_limit *= 2
