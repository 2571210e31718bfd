"""Tagged, set-associative context predictor tables.

The paper defers "tables configuration, number of ports, hash functions
and replacement"; this variant explores the replacement/tagging corner:
both levels are set-associative with partial tags and LRU replacement, so
small tables degrade by *missing* (no prediction is made) rather than by
silently aliasing onto another instruction's state like the untagged
direct-mapped baseline.

A miss returns ``None`` from :meth:`lookup`; the engine wrapper
:meth:`predict` returns 0 in that case (an always-wrong prediction the
confidence estimator quickly learns to gate), keeping the
:class:`~repro.vp.base.ValuePredictor` interface unchanged.

Storage: each level is a pair of flat preallocated columns (tags and
payloads) of ``sets * assoc`` slots.  A set is the ``assoc`` consecutive
slots starting at ``set_index * assoc``, kept in LRU order with the most
recent at the slice head; invalid slots carry tag ``-1`` (real tags are
masked non-negative) and gravitate to the slice tail, so fill and
eviction are the same head-insert shift.  Level-1 payloads carry the
value history *and* its precomputed folds, so context hashing is a few
shift-XORs instead of re-folding ``order`` 64-bit values per touch.
"""

from __future__ import annotations

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.trace.record import FOLD_BITS
from repro.vp.base import ValuePredictor
from repro.vp.context import fold_value

_MASK64 = (1 << 64) - 1
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES


class TaggedContextPredictor(ValuePredictor):
    """Set-associative, tagged two-level context predictor.

    Level 1 maps PC -> value history (order values); level 2 maps the
    context hash -> (value, 1-bit counter).  Both levels carry partial
    tags so cross-instruction aliasing is detected instead of silently
    polluting state.
    """

    def __init__(
        self,
        l1_sets_bits: int = 10,
        l2_sets_bits: int = 12,
        assoc: int = 2,
        order: int = 4,
        tag_bits: int = 16,
        context_bits: int = 16,
    ):
        if min(l1_sets_bits, l2_sets_bits, assoc, order, tag_bits) <= 0:
            raise ValueError("all geometry parameters must be positive")
        self.assoc = assoc
        self.order = order
        self.context_bits = context_bits
        self._l1_bits = l1_sets_bits
        self._l2_bits = l2_sets_bits
        self._l1_mask = (1 << l1_sets_bits) - 1
        self._l2_mask = (1 << l2_sets_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        # Flat slot columns; tag -1 marks an invalid (never-matching) slot.
        self._l1_tags = [-1] * ((1 << l1_sets_bits) * assoc)
        self._l1_payloads: list = [None] * ((1 << l1_sets_bits) * assoc)
        self._l2_tags = [-1] * ((1 << l2_sets_bits) * assoc)
        self._l2_payloads: list = [None] * ((1 << l2_sets_bits) * assoc)
        self.l1_misses = 0
        self.l2_misses = 0

    # -- set primitives ------------------------------------------------------

    def _set_get(self, tags: list, payloads: list, start: int, tag: int):
        """Payload for ``tag`` within the set at ``start`` (MRU reorder on
        hit), or None.  The hit slot's contents shift to the slice head,
        sliding everything more recent one slot toward the tail."""
        for slot in range(start, start + self.assoc):
            if tags[slot] == tag:
                payload = payloads[slot]
                while slot > start:
                    tags[slot] = tags[slot - 1]
                    payloads[slot] = payloads[slot - 1]
                    slot -= 1
                tags[start] = tag
                payloads[start] = payload
                return payload
        return None

    def _set_put(self, tags: list, payloads: list, start: int, tag: int, payload) -> None:
        """Insert/refresh ``tag`` at the set's MRU position.  An existing
        slot is reused; otherwise the LRU slot (slice tail — which is an
        invalid slot while the set is not yet full) is evicted."""
        slot = start + self.assoc - 1
        for offset in range(self.assoc):
            if tags[start + offset] == tag:
                slot = start + offset
                break
        while slot > start:
            tags[slot] = tags[slot - 1]
            payloads[slot] = payloads[slot - 1]
            slot -= 1
        tags[start] = tag
        payloads[start] = payload

    # -- indexing -----------------------------------------------------------

    def _l1_slot(self, pc: int) -> tuple[int, int]:
        word = pc >> _PC_SHIFT
        # the tag covers the bits above the index, so set-mates with
        # different PCs always have distinct tags
        return (
            (word & self._l1_mask) * self.assoc,
            (word >> self._l1_bits) & self._tag_mask,
        )

    def _context(self, folds: tuple[int, ...]) -> int:
        ctx = 0
        for position, fold in enumerate(folds[-self.order :]):
            ctx ^= fold << position
        return ctx

    def _l2_slot(self, ctx: int) -> tuple[int, int]:
        return (
            (ctx & self._l2_mask) * self.assoc,
            (ctx >> self._l2_bits) & self._tag_mask,
        )

    # -- prediction ------------------------------------------------------------

    def lookup(self, pc: int) -> int | None:
        """Predicted value, or None on a table miss."""
        start, tag = self._l1_slot(pc)
        history = self._set_get(self._l1_tags, self._l1_payloads, start, tag)
        if history is None:
            self.l1_misses += 1
            return None
        l2_start, l2_tag = self._l2_slot(self._context(history[1]))
        payload = self._set_get(self._l2_tags, self._l2_payloads, l2_start, l2_tag)
        if payload is None:
            self.l2_misses += 1
            return None
        return payload[0]

    def predict(self, pc: int) -> int:
        value = self.lookup(pc)
        return 0 if value is None else value

    def speculate(self, pc: int, predicted: int) -> None:
        """Delayed-timing speculative history is not modelled for the
        tagged variant (it exists for table-geometry studies, which run
        under immediate update)."""
        return None

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        actual &= _MASK64
        if fold16 is None or self.context_bits != FOLD_BITS:
            fold = fold_value(actual, self.context_bits)
        else:
            fold = fold16
        start, tag = self._l1_slot(pc)
        entry = self._set_get(self._l1_tags, self._l1_payloads, start, tag)
        if entry is None:
            history = (0,) * self.order
            folds = (0,) * self.order
        else:
            history, folds = entry
        l2_start, l2_tag = self._l2_slot(self._context(folds))
        payload = self._set_get(self._l2_tags, self._l2_payloads, l2_start, l2_tag)
        if payload is None:
            new_payload = (actual, 1)
        else:
            value, counter = payload
            if value == actual:
                new_payload = (value, 1)
            elif counter:
                new_payload = (value, 0)
            else:
                new_payload = (actual, 1)
        self._set_put(self._l2_tags, self._l2_payloads, l2_start, l2_tag, new_payload)
        self._set_put(
            self._l1_tags,
            self._l1_payloads,
            start,
            tag,
            (
                (history + (actual,))[-self.order :],
                (folds + (fold,))[-self.order :],
            ),
        )
