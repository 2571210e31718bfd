"""Static/dynamic trace characteristics (the raw material of Table 1)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.opcodes import OPCODE_BY_CODE, OpClass
from repro.trace.columnar import (
    FLAG_BRANCH_TAKEN,
    FLAG_HAS_BRANCH,
    FLAG_HAS_DEST,
    KIND_BRANCH,
    ColumnarTrace,
)
from repro.trace.record import TraceRecord


@dataclass
class TraceStats:
    """Aggregate characteristics of a dynamic instruction trace."""

    total: int = 0
    by_class: dict[OpClass, int] = field(default_factory=dict)
    register_writers: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    indirect_jumps: int = 0
    unique_pcs: int = 0

    @property
    def prediction_eligible_fraction(self) -> float:
        """Fraction of dynamic instructions that produce a register value.

        These are the instructions that receive a value prediction; the
        paper's Table 1 "Instructions Predicted (%)" column is this
        quantity for the SPECint95 runs (61.7%–82.0%).
        """
        return self.register_writers / self.total if self.total else 0.0

    @property
    def branch_fraction(self) -> float:
        return self.branches / self.total if self.total else 0.0

    @property
    def load_fraction(self) -> float:
        return self.loads / self.total if self.total else 0.0

    @property
    def store_fraction(self) -> float:
        return self.stores / self.total if self.total else 0.0


# 256-entry translate tables mapping a column byte to 0x01/0x00, so a
# whole column collapses to a 0/1 bytestring in one C-speed call; two
# such bytestrings AND together as big integers and ``bit_count`` gives
# the joint count without a per-record Python loop.
_TAKEN_BITS = FLAG_HAS_BRANCH | FLAG_BRANCH_TAKEN
_FLAGS_TAKEN01 = bytes(
    1 if (value & _TAKEN_BITS) == _TAKEN_BITS else 0 for value in range(256)
)
_FLAGS_DEST01 = bytes(
    1 if value & FLAG_HAS_DEST else 0 for value in range(256)
)
_KIND_BRANCH01 = bytes(1 if value & KIND_BRANCH else 0 for value in range(256))
_NONZERO01 = bytes(1 if value else 0 for value in range(256))


def _joint_count(ones_a: bytes, ones_b: bytes) -> int:
    """How many positions hold 1 in *both* 0/1 bytestrings."""
    return (
        int.from_bytes(ones_a, "little") & int.from_bytes(ones_b, "little")
    ).bit_count()


def _accumulate_columnar(
    stats: TraceStats, pcs: set[int], block: ColumnarTrace
) -> None:
    """Fold one columnar trace into ``stats`` without materializing rows.

    Everything is derived straight from the column bytes: per-opcode
    counts classify instructions, flag/kind bytes give taken branches
    and register writers.
    """
    count = len(block)
    if not count:
        return
    stats.total += count
    pcs.update(block.pc)
    for code, n in Counter(block.column_bytes("opcode")).items():
        opclass = OPCODE_BY_CODE[code].opclass
        stats.by_class[opclass] = stats.by_class.get(opclass, 0) + n
        if opclass is OpClass.LOAD:
            stats.loads += n
        elif opclass is OpClass.STORE:
            stats.stores += n
        elif opclass is OpClass.BRANCH:
            stats.branches += n
        elif opclass is OpClass.IJUMP:
            stats.indirect_jumps += n
    flags = block.column_bytes("flags")
    stats.taken_branches += _joint_count(
        flags.translate(_FLAGS_TAKEN01),
        bytes(block.kind).translate(_KIND_BRANCH01),
    )
    stats.register_writers += _joint_count(
        flags.translate(_FLAGS_DEST01),
        block.column_bytes("dest_reg").translate(_NONZERO01),
    )


def compute_stats(trace: list[TraceRecord]) -> TraceStats:
    """Compute aggregate statistics over a trace.

    Single-pass on either trace representation: a
    :class:`ColumnarTrace` is folded columnwise (no row materialization,
    whose memoization would pin every record object), and a plain record
    list falls back to the record loop.  Both produce identical
    statistics — pinned by the regression tests.
    """
    stats = TraceStats()
    pcs: set[int] = set()
    if isinstance(trace, ColumnarTrace):
        _accumulate_columnar(stats, pcs, trace)
    else:
        for rec in trace:
            stats.total += 1
            stats.by_class[rec.opclass] = (
                stats.by_class.get(rec.opclass, 0) + 1
            )
            pcs.add(rec.pc)
            if rec.writes_register:
                stats.register_writers += 1
            if rec.is_load:
                stats.loads += 1
            elif rec.is_store:
                stats.stores += 1
            elif rec.is_branch:
                stats.branches += 1
                if rec.branch_taken:
                    stats.taken_branches += 1
            elif rec.is_indirect:
                stats.indirect_jumps += 1
    stats.unique_pcs = len(pcs)
    return stats
