"""Two-level context-based (FCM) value predictor [Sazeides & Smith 1997].

Structure (Section 5.2 of the paper):

* **History table** (level 1): direct-mapped, indexed by instruction PC,
  untagged — every lookup produces a context, so every register-writing
  instruction receives a prediction.  Each entry maintains the most recent
  ``order`` (=4) values produced by the instructions mapping to it.  The
  *context* is a hash folding those values into ``context_bits`` (=16) bits.
* **Prediction table** (level 2): indexed by the context alone (so static
  instructions producing identical sequences share prediction state);
  each entry holds a 64-bit value and a one-bit counter guiding
  replacement — a mismatching outcome first clears the counter, and only
  a second consecutive mismatch replaces the stored value.

Update timing (Section 5.2).  Under *immediate* (I) timing the history
advances with the correct value and the prediction table trains right
after each prediction.  Under *delayed* (D) timing the history table is
updated **speculatively with the prediction**: each level-1 entry keeps a
committed history plus a queue of outstanding speculative values; the
prediction context hashes both.  At retirement the prediction table is
trained against the committed context, the retiring instance's own
speculative entry is removed (identified by the token handed out at
prediction time), and — because every younger speculative value was
chained from it — a mispredicted entry squashes the rest of the queue.

The consequence, visible in the paper's Figure 4, is that delayed update
predicts correctly only while the speculative chain stays correct: the
chain re-seeds from the committed history whenever the pipeline drains
(branch mispredictions, long-latency stalls), so accuracy degrades as
windows get deeper and drains get rarer.

Storage layout (see docs/PERFORMANCE.md).  Both levels live in flat
columns rather than per-entry objects with attribute access:

* A level-1 entry is one plain list of ``3 + 2 * order`` slots —
  ``[live_ctx, committed_ctx, ring_head, fold ring..., value ring...]``
  — materialized on first touch (a direct-mapped 64K-entry table would
  cost milliseconds to preallocate per run while a trace touches only a
  few hundred entries).  The two leading slots are running context
  accumulators: the *committed* context and the *live* (committed +
  speculative) context, both kept **unmasked** so they can be advanced
  incrementally.  Because the FCM hash is an XOR of position-shifted
  folds, appending a value to a full window is
  ``ctx' = ((ctx ^ oldest_fold) >> 1) ^ (new_fold << (order-1))`` — two
  XORs and two shifts, independent of ``order``.  The ``context_bits``
  mask is applied only at level-2 lookup, which makes the running value
  bit-identical to hashing the window from scratch.
* Level 2 is preallocated flat columns — a value list, a parallel list
  of each value's fold (so the fused predict+speculate path never
  re-folds the predicted value), and a ``bytearray`` of one-bit
  replacement counters.
* Outstanding speculative chains are kept only for entries that have
  them, in a dict of ``(token, value, fold)`` lists; the live context is
  advanced in O(1) on speculation and re-walked only at retirement when
  a chain is reconciled.
"""

from __future__ import annotations

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.trace.record import FOLD_BITS
from repro.vp.base import ValuePredictor

_MASK64 = (1 << 64) - 1

#: PC -> table-index shift (instructions are fixed-size and aligned).
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES

#: Level-1 entry layout: ``[live_ctx, committed_ctx, head, folds..., values...]``.
_LIVE = 0
_COMMITTED = 1
_HEAD = 2
_RING = 3


def fold_value(value: int, bits: int) -> int:
    """Fold a 64-bit value into ``bits`` bits by XORing chunks."""
    value &= _MASK64
    if bits == 16:
        return (value ^ (value >> 16) ^ (value >> 32) ^ (value >> 48)) & 0xFFFF
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class ContextValuePredictor(ValuePredictor):
    """The paper's context-based predictor."""

    def __init__(
        self,
        history_bits: int = 16,
        context_bits: int = 16,
        order: int = 4,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if history_bits <= 0 or context_bits <= 0:
            raise ValueError("history_bits and context_bits must be positive")
        self.history_bits = history_bits
        self.context_bits = context_bits
        self.order = order
        self._l1_mask = (1 << history_bits) - 1
        self._ctx_mask = (1 << context_bits) - 1
        self._next_token = 0
        #: Precomputed: the trace-supplied 16-bit fold is usable directly.
        self._fold16_ok = context_bits == FOLD_BITS
        #: Level-1 column table, materialized per entry on first touch.
        self._entries: dict[int, list[int]] = {}
        #: Zero-entry template; ``list.copy`` beats rebuilding from parts.
        self._fresh = [0] * (_RING + order + order)
        #: Outstanding speculative chains, only for entries that have any:
        #: l1 index -> [(token, value, fold), ...] oldest first.
        self._spec: dict[int, list[tuple[int, int, int]]] = {}
        l2_size = 1 << context_bits
        self._values = [0] * l2_size
        self._value_folds = [0] * l2_size
        self._counters = bytearray(l2_size)

    # -- level-1 helpers ----------------------------------------------------

    def _walk_live(self, entry: list[int], spec: list[tuple[int, int, int]]) -> int:
        """Recompute the (unmasked) live context for an entry from the
        committed fold ring plus the outstanding speculative chain.  Only
        runs when a chain is reconciled at retirement or trained past —
        the predict path reads the running accumulator instead."""
        order = self.order
        depth = len(spec)
        ctx = 0
        position = 0
        if depth < order:
            head = entry[_HEAD]
            for i in range(depth, order):
                ctx ^= entry[_RING + (head + i) % order] << position
                position += 1
            for __, __, fold in spec:
                ctx ^= fold << position
                position += 1
        else:
            for __, __, fold in spec[depth - order :]:
                ctx ^= fold << position
                position += 1
        return ctx

    # -- ValuePredictor interface --------------------------------------------

    def predict(self, pc: int) -> int:
        entry = self._entries.get((pc >> _PC_SHIFT) & self._l1_mask)
        if entry is None:
            return self._values[0]
        return self._values[entry[_LIVE] & self._ctx_mask]

    def predict_speculate(self, pc: int) -> tuple[int, int]:
        """Fused predict + speculate sharing one level-1 entry lookup; the
        predicted value's fold is read back from the level-2 fold column,
        so the whole call performs no value folding at all.  The O(1)
        live-context advance is inlined — this is the hottest
        delayed-timing entry point."""
        index = (pc >> _PC_SHIFT) & self._l1_mask
        entries = self._entries
        entry = entries.get(index)
        if entry is None:
            entry = entries[index] = self._fresh.copy()
        unmasked = entry[0]
        ctx = unmasked & self._ctx_mask
        predicted = self._values[ctx]
        fold = self._value_folds[ctx]
        token = self._next_token
        self._next_token = token + 1
        spec = self._spec.get(index)
        if spec is None:
            spec = self._spec[index] = []
        order = self.order
        depth = len(spec)
        if depth < order:
            oldest = entry[_RING + (entry[_HEAD] + depth) % order]
        else:
            oldest = spec[depth - order][2]
        entry[0] = ((unmasked ^ oldest) >> 1) ^ (fold << (order - 1))
        spec.append((token, predicted, fold))
        return predicted, token

    def speculate(self, pc: int, predicted: int) -> int:
        """Delayed timing: push the prediction onto the speculative history
        and return the token identifying this instance's entry."""
        token = self._next_token
        self._next_token = token + 1
        predicted &= _MASK64
        fold = fold_value(predicted, self.context_bits)
        index = (pc >> _PC_SHIFT) & self._l1_mask
        entries = self._entries
        entry = entries.get(index)
        if entry is None:
            entry = entries[index] = self._fresh.copy()
        spec = self._spec.get(index)
        if spec is None:
            spec = self._spec[index] = []
        order = self.order
        depth = len(spec)
        if depth < order:
            oldest = entry[_RING + (entry[_HEAD] + depth) % order]
        else:
            oldest = spec[depth - order][2]
        entry[_LIVE] = ((entry[_LIVE] ^ oldest) >> 1) ^ (fold << (order - 1))
        spec.append((token, predicted, fold))
        return token

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        actual &= _MASK64
        if fold16 is not None and self._fold16_ok:
            fold = fold16
        else:
            fold = fold_value(actual, self.context_bits)
        index = (pc >> _PC_SHIFT) & self._l1_mask
        entries = self._entries
        entry = entries.get(index)
        if entry is None:
            entry = entries[index] = self._fresh.copy()
        # The training context is the committed one — the context this
        # instance would have predicted from had the pipeline been empty.
        committed = entry[1]
        ctx = committed & self._ctx_mask
        values = self._values
        counters = self._counters
        if values[ctx] == actual:
            counters[ctx] = 1
        elif counters[ctx]:
            counters[ctx] = 0
        else:
            values[ctx] = actual
            self._value_folds[ctx] = fold
        # Advance the committed ring: the slot at the head holds the oldest
        # value, which ages out of the running context as ``actual`` enters.
        order = self.order
        head = entry[2]
        slot = 3 + head
        committed = ((committed ^ entry[slot]) >> 1) ^ (fold << (order - 1))
        entry[1] = committed
        entry[slot] = fold
        entry[slot + order] = actual
        head += 1
        entry[2] = 0 if head == order else head
        spec_map = self._spec
        if spec_map:
            spec = spec_map.get(index)
            if spec:
                if token is not None:
                    self._consume_speculative(spec, token, actual)
                    if not spec:
                        del spec_map[index]
                        entry[0] = committed
                        return
                entry[0] = self._walk_live(entry, spec)
                return
        entry[0] = committed

    @staticmethod
    def _consume_speculative(
        spec: list[tuple[int, int, int]], token: int, actual: int
    ) -> None:
        for position, (spec_token, spec_value, __) in enumerate(spec):
            if spec_token == token:
                if spec_value == actual:
                    del spec[position]
                else:
                    # Every younger speculative value chained from a wrong
                    # one; the chain re-seeds from committed history.
                    del spec[position:]
                return
            if spec_token > token:
                break
        # Token already squashed by an earlier chain clear: nothing to do.

    def flush_speculative(self, pc: int) -> None:
        index = (pc >> _PC_SHIFT) & self._l1_mask
        if self._spec.pop(index, None):
            entry = self._entries.get(index)
            if entry is not None:
                entry[_LIVE] = entry[_COMMITTED]

    # -- introspection --------------------------------------------------------

    def committed_history(self, pc: int) -> tuple[int, ...]:
        """The committed value history for ``pc`` (tests/debugging)."""
        index = (pc >> _PC_SHIFT) & self._l1_mask
        order = self.order
        entry = self._entries.get(index)
        if entry is None:
            return (0,) * order
        head = entry[_HEAD]
        base = _RING + order
        return tuple(entry[base + (head + i) % order] for i in range(order))

    def speculative_depth(self, pc: int) -> int:
        """Number of outstanding speculative history values for ``pc``."""
        return len(self._spec.get((pc >> _PC_SHIFT) & self._l1_mask, ()))

    def context_of(self, pc: int) -> int:
        """The context the next prediction for ``pc`` would use."""
        entry = self._entries.get((pc >> _PC_SHIFT) & self._l1_mask)
        if entry is None:
            return 0
        return entry[_LIVE] & self._ctx_mask
