"""Synthetic trace generation for controlled experiments.

Kernel traces (from :mod:`repro.programs`) drive the headline reproduction;
synthetic traces let the test suite and the ablation benches dial individual
workload properties — value predictability, dependence-chain depth, branch
bias, load fraction — independently, which no real program allows.

Value streams per static "instruction" follow one of four generators:

* ``constant`` — always the same value (perfectly predictable),
* ``stride``   — arithmetic sequence (predictable by a context predictor
  once the deltas enter its history),
* ``periodic`` — repeating cycle of ``period`` values (the home turf of
  context-based prediction),
* ``random``   — LCG noise (unpredictable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Opcode
from repro.trace.record import TraceRecord

_TEXT_BASE = 0x1000
_DATA_BASE = 0x200000
_MASK64 = (1 << 64) - 1


def _lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) & _MASK64


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs for the synthetic workload generator.

    ``chain_length``: number of back-to-back dependent ALU instructions per
    loop body — the longer the chain, the more value prediction can help.
    ``predictable_fraction``: share of producer instructions whose output
    stream is predictable (periodic) rather than random.
    ``load_every``: one load per this many instructions (0 = no loads).
    ``branch_every``: one conditional branch per this many instructions
    (0 = no branches). ``branch_taken_bias`` sets its taken probability.
    """

    length: int = 10_000
    chain_length: int = 4
    predictable_fraction: float = 0.8
    value_period: int = 4
    load_every: int = 8
    branch_every: int = 16
    branch_taken_bias: float = 0.7
    seed: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.chain_length < 1:
            raise ValueError("chain_length must be >= 1")
        if not 0.0 <= self.predictable_fraction <= 1.0:
            raise ValueError("predictable_fraction must be in [0, 1]")
        if self.value_period < 1:
            raise ValueError("value_period must be >= 1")


class _ValueStream:
    """Deterministic per-PC output-value stream."""

    def __init__(self, kind: str, seed: int, period: int):
        self.kind = kind
        self.period = period
        self.count = 0
        self.state = seed | 1
        # Pre-built cycle for periodic streams.
        values = []
        state = self.state
        for _ in range(period):
            state = _lcg(state)
            values.append(state & 0xFFFF)
        self.cycle = values

    def next(self) -> int:
        self.count += 1
        if self.kind == "constant":
            return self.cycle[0]
        if self.kind == "stride":
            return (self.cycle[0] + 3 * self.count) & _MASK64
        if self.kind == "periodic":
            return self.cycle[self.count % self.period]
        self.state = _lcg(self.state)
        return self.state & _MASK64


def generate_synthetic_trace(config: SyntheticTraceConfig) -> list[TraceRecord]:
    """Generate a deterministic synthetic trace.

    The trace models a loop whose body is ``chain_length`` dependent ALU
    instructions (r8 -> r9 -> ... chained), sprinkled with loads and a
    conditional branch, matching the dependence structure the paper's
    Figure 1 example reasons about.
    """
    return list(iter_synthetic_trace(config))


def iter_synthetic_trace(config: SyntheticTraceConfig):
    """Yield :func:`generate_synthetic_trace`'s records one at a time.

    This is the streaming form the 10M-record capture paths use: memory
    stays O(1) in trace length because nothing accumulates a record
    list.
    """
    cfg = config
    streams: dict[int, _ValueStream] = {}
    rng = cfg.seed | 1
    seq = 0
    pc_slots = max(cfg.chain_length + 2, 4)

    def stream_for(pc: int, slot: int) -> _ValueStream:
        stream = streams.get(pc)
        if stream is None:
            # Deterministic predictability assignment per static pc.
            h = _lcg(pc * 2654435761 + cfg.seed)
            predictable = (h >> 8) % 1000 < cfg.predictable_fraction * 1000
            kind = "periodic" if predictable else "random"
            stream = _ValueStream(kind, h, cfg.value_period)
            streams[pc] = stream
        return stream

    while seq < cfg.length:
        prev_dest: int | None = None
        for slot in range(pc_slots):
            if seq >= cfg.length:
                break
            pc = _TEXT_BASE + 8 * slot
            is_load = (
                cfg.load_every
                and slot > 0
                and seq % cfg.load_every == cfg.load_every - 1
            )
            is_branch = (
                cfg.branch_every
                and slot == pc_slots - 1
                and (seq // pc_slots) % max(cfg.branch_every // pc_slots, 1) == 0
            )
            if is_branch:
                rng = _lcg(rng)
                taken = (rng >> 16) % 1000 < cfg.branch_taken_bias * 1000
                yield TraceRecord(
                    seq=seq,
                    pc=pc,
                    opcode=Opcode.BNE,
                    src_regs=(8, 9) if prev_dest else (8,),
                    branch_taken=taken,
                    next_pc=_TEXT_BASE if taken else pc + 8,
                )
            elif is_load:
                dest = 8 + (slot % cfg.chain_length)
                stream = stream_for(pc, slot)
                value = stream.next()
                rng = _lcg(rng)
                addr = _DATA_BASE + ((rng >> 20) & 0x3FF) * 8
                yield TraceRecord(
                    seq=seq,
                    pc=pc,
                    opcode=Opcode.LD,
                    src_regs=(29,),
                    dest_reg=dest,
                    dest_value=value,
                    mem_addr=addr,
                    mem_size=8,
                    next_pc=pc + 8,
                )
                prev_dest = dest
            else:
                dest = 8 + (slot % cfg.chain_length)
                src: tuple[int, ...] = (prev_dest,) if prev_dest else (4,)
                stream = stream_for(pc, slot)
                value = stream.next()
                yield TraceRecord(
                    seq=seq,
                    pc=pc,
                    opcode=Opcode.ADD,
                    src_regs=src,
                    dest_reg=dest,
                    dest_value=value,
                    next_pc=pc + 8,
                )
                prev_dest = dest
            seq += 1
