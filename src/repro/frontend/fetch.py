"""The fetch engine.

Implements the paper's ideal fetch assumption: "provided instruction
references hit in the cache and branches are predicted correctly, the
fetch engine can read and align from multiple basic blocks in the same
cycle."  Fetch is therefore limited only by fetch width, I-cache misses,
and branch mispredictions.

On a conditional-branch direction misprediction the engine switches to
wrong-path mode: it synthesizes a deterministic stream of wrong-path
instructions ("Wrong path instructions are executed and their side effects
are modeled") that occupy window slots, issue bandwidth and D-cache ports
until the timing engine resolves the branch and calls :meth:`redirect`.
Wrong-path *data* side effects are approximated: wrong-path loads touch the
data cache (pollution), but wrong-path memory operations do not enter the
load/store queue (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.mem.cache import Cache
from repro.trace.record import TraceRecord
from repro.trace.columnar import ColumnarTrace

_MASK64 = (1 << 64) - 1
_WRONG_PATH_SEQ = -1


def _mix(state: int) -> int:
    state = (state ^ (state >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    return (state ^ (state >> 33)) & _MASK64


@dataclass(slots=True)
class FetchedInstruction:
    """One instruction leaving the fetch stage."""

    rec: TraceRecord
    wrong_path: bool = False
    #: True for a correct-path conditional branch whose direction the
    #: branch predictor got wrong — fetch goes wrong-path after it.
    mispredicted: bool = False


class _WrongPathGenerator:
    """Deterministic synthetic wrong-path instruction stream.

    The stream for a given (seed, start pc) is a pure function of its
    position, and a branch that mispredicts repeatedly replays the same
    stream from the top — so generated records are memoized in a shared
    ``[records, state, pc]`` cache (one per mispredicted branch, owned by
    the :class:`FetchEngine`) and the generator only runs the synthesis
    arithmetic when a replay walks past the longest previous one.
    ``TraceRecord`` instances are immutable to the engine, so sharing
    them across replays (and runs) is safe."""

    __slots__ = ("_cache", "_pos", "_data_base")

    def __init__(
        self,
        seed: int = 0,
        start_pc: int = 0,
        data_base: int = 0x600000,
        cache: list | None = None,
    ):
        if cache is None:
            cache = _wrong_path_cache(seed, start_pc)
        self._cache = cache
        self._pos = 0
        self._data_base = data_base

    def next(self) -> TraceRecord:
        cache = self._cache
        records = cache[0]
        pos = self._pos
        self._pos = pos + 1
        if pos < len(records):
            return records[pos]
        state = _mix(cache[1])
        cache[1] = state
        pc = cache[2]
        next_pc = pc + INSTRUCTION_BYTES
        cache[2] = next_pc
        roll = state % 100
        dest = 8 + (state >> 8) % 8
        src = 8 + (state >> 16) % 8
        if roll < 70:
            opcode, mem_addr, mem_size = Opcode.ADD, None, None
        elif roll < 85:
            opcode = Opcode.LD
            mem_addr = self._data_base + ((state >> 24) & 0xFFF) * 8
            mem_size = 8
        elif roll < 90:
            opcode, mem_addr, mem_size = Opcode.MUL, None, None
        else:
            # Wrong-path branch: executes but never redirects fetch.
            rec = TraceRecord(
                seq=_WRONG_PATH_SEQ,
                pc=pc,
                opcode=Opcode.BNE,
                src_regs=(src,),
                branch_taken=bool(state & 1),
                next_pc=next_pc,
            )
            records.append(rec)
            return rec
        rec = TraceRecord(
            seq=_WRONG_PATH_SEQ,
            pc=pc,
            opcode=opcode,
            src_regs=(src,),
            dest_reg=dest,
            dest_value=state & 0xFFFF,
            mem_addr=mem_addr,
            mem_size=mem_size,
            next_pc=next_pc,
        )
        records.append(rec)
        return rec


#: Process-wide wrong-path memo, keyed by ``(seed, start_pc)``.  A stream
#: is a pure function of its key, so the memo is shared across engines and
#: runs — repeated simulations of one trace (config sweeps, benchmark
#: repetitions) replay recorded streams instead of re-synthesizing them.
_WP_STREAMS: dict[tuple[int, int], list] = {}
_WP_STREAM_LIMIT = 1 << 16


def _wrong_path_cache(seed: int, start_pc: int) -> list:
    """The memoized ``[records, rng_state, next_pc]`` stream cache for
    ``(seed, start_pc)``, creating (and registering) it on first use.

    The memo is a bounded LRU: a hit reinserts its key at the dict tail
    (dicts preserve insertion order), so the head is always the coldest
    stream and reaching the cap evicts exactly one entry instead of
    dropping the whole memo.  The move-to-end runs once per wrong-path
    episode, not per fetched instruction, so it stays off the hot path.
    """
    key = (seed, start_pc)
    streams = _WP_STREAMS
    cache = streams.get(key)
    if cache is None:
        if len(streams) >= _WP_STREAM_LIMIT:
            del streams[next(iter(streams))]
        cache = streams[key] = [[], _mix(seed | 1), start_pc]
    else:
        del streams[key]
        streams[key] = cache
    return cache


class FetchEngine:
    """Trace replay with branch-prediction and I-cache timing."""

    def __init__(
        self,
        trace: list[TraceRecord],
        icache: Cache | None,
        branch_predictor,
        *,
        model_wrong_path: bool = True,
        ideal_branch_targets: bool = True,
        btb=None,
        ras=None,
        seed: int = 7,
    ):
        # A ColumnarTrace duck-types list[TraceRecord], but its
        # __getitem__ goes through a Python-level method; replaying
        # indexes the materialized row list directly at list speed.
        self.trace = trace.rows() if isinstance(trace, ColumnarTrace) else trace
        self.icache = icache
        self.branch_predictor = branch_predictor
        self.model_wrong_path = model_wrong_path
        self.ideal_branch_targets = ideal_branch_targets
        self.btb = btb
        self.ras = ras
        self._seed = seed
        self._index = 0
        self._stall_until = 0
        self._wrong_path_gen: _WrongPathGenerator | None = None
        self._last_block: int | None = None
        self.fetched_correct = 0
        self.fetched_wrong_path = 0
        self.icache_stall_cycles = 0

    @property
    def exhausted(self) -> bool:
        """Correct path fully delivered and not stuck on a wrong path."""
        return self._index >= len(self.trace) and self._wrong_path_gen is None

    @property
    def on_wrong_path(self) -> bool:
        return self._wrong_path_gen is not None

    def _icache_ready(self, pc: int, cycle: int) -> bool:
        """Model the I-cache access for the block holding ``pc``."""
        if self.icache is None:
            return True
        block = pc // self.icache.block_bytes
        if block == self._last_block:
            return True
        latency = self.icache.access(pc)
        self._last_block = block
        if latency > self.icache.hit_latency:
            self._stall_until = cycle + latency
            self.icache_stall_cycles += latency - self.icache.hit_latency
            return False
        return True

    def _target_correct(self, rec: TraceRecord) -> bool:
        """Target prediction under the configured frontend idealism."""
        if self.ideal_branch_targets:
            return True
        if rec.opcode in (Opcode.JR,):
            predicted = self.ras.pop() if self.ras is not None else None
            return predicted == rec.next_pc
        if self.btb is not None and (rec.branch_taken or rec.is_indirect):
            predicted = self.btb.lookup(rec.pc)
            self.btb.update(rec.pc, rec.next_pc)
            return predicted == rec.next_pc
        return True

    def fetch(self, cycle: int, max_count: int) -> list[FetchedInstruction]:
        """Fetch up to ``max_count`` instructions in ``cycle``."""
        return [
            FetchedInstruction(rec, wrong_path=wrong, mispredicted=mispred)
            for rec, wrong, mispred, __ in self.fetch_raw(cycle, max_count)
        ]

    def fetch_raw(
        self, cycle: int, max_count: int, ready: int = 0
    ) -> list[tuple[TraceRecord, bool, bool, int]]:
        """:meth:`fetch` as plain ``(rec, wrong_path, mispredicted,
        ready)`` tuples — the engine-facing hot path, which skips building
        a :class:`FetchedInstruction` per instruction.  ``ready`` is
        stamped into every tuple verbatim so the engine can extend its
        dispatch queue with the batch directly (the queue's entries carry
        the cycle the instruction becomes dispatchable)."""
        if cycle < self._stall_until or max_count <= 0:
            return []
        out: list[tuple[TraceRecord, bool, bool, int]] = []
        out_append = out.append
        trace = self.trace
        trace_len = len(trace)
        icache = self.icache
        # Same-block accesses are free; inline that fast path so the
        # I-cache model is only consulted on block boundaries.  The whole
        # of ``_icache_ready`` is inlined below (both call sites) with the
        # last-block/latency state held in locals for the duration of the
        # fetch group.
        block_bytes = icache.block_bytes if icache is not None else 0
        icache_hit = icache.hit_latency if icache is not None else 0
        last_block = self._last_block
        index = self._index
        wrong_gen = self._wrong_path_gen
        wrong_next = wrong_gen.next if wrong_gen is not None else None
        bpred = self.branch_predictor
        bp_update = bpred.update if bpred is not None else None
        ideal_targets = self.ideal_branch_targets
        ras = self.ras
        n_correct = 0
        n_wrong = 0
        count = 0
        while count < max_count:
            if wrong_next is not None:
                rec = wrong_next()
                if icache is not None:
                    block = rec.pc // block_bytes
                    if block != last_block:
                        latency = icache.access(rec.pc)
                        last_block = block
                        if latency > icache_hit:
                            self._stall_until = cycle + latency
                            self.icache_stall_cycles += latency - icache_hit
                            break
                out_append((rec, True, False, ready))
                n_wrong += 1
                count += 1
                continue
            if index >= trace_len:
                break
            rec = trace[index]
            if icache is not None:
                block = rec.pc // block_bytes
                if block != last_block:
                    latency = icache.access(rec.pc)
                    last_block = block
                    if latency > icache_hit:
                        self._stall_until = cycle + latency
                        self.icache_stall_cycles += latency - icache_hit
                        break
            index += 1
            mispredicted = False
            if rec.is_branch:
                direction_ok = (
                    bp_update(rec.pc, bool(rec.branch_taken))
                    if bp_update is not None
                    else True
                )
                mispredicted = not direction_ok or not (
                    ideal_targets or self._target_correct(rec)
                )
            elif rec.is_control:
                if ras is not None and rec.opcode in (Opcode.JAL, Opcode.JALR):
                    ras.push(rec.pc + INSTRUCTION_BYTES)
                mispredicted = not (ideal_targets or self._target_correct(rec))
            out_append((rec, False, mispredicted, ready))
            n_correct += 1
            count += 1
            if mispredicted:
                if self.model_wrong_path:
                    self._wrong_path_gen = _WrongPathGenerator(
                        cache=_wrong_path_cache(
                            self._seed ^ rec.seq, rec.next_pc + 0x4000
                        )
                    )
                else:
                    self._stall_until = 1 << 60  # wait for redirect
                break
        self._index = index
        self._last_block = last_block
        if n_correct:
            self.fetched_correct += n_correct
        if n_wrong:
            self.fetched_wrong_path += n_wrong
        return out

    def redirect(self, cycle: int, *, penalty: int = 1) -> None:
        """Resume correct-path fetch after a resolved misprediction.

        ``penalty`` cycles pass before the first correct-path fetch (the
        redirect bubble); correct-path state (``_index``) already points at
        the instruction after the branch because the trace is the correct
        path by construction.
        """
        self._wrong_path_gen = None
        self._stall_until = cycle + penalty
        self._last_block = None

    def rewind_to(self, seq: int, cycle: int, *, penalty: int = 1) -> None:
        """Restart correct-path fetch from trace position ``seq`` — used by
        complete value-misspeculation invalidation, which refetches like a
        branch misprediction."""
        self._index = seq
        self._wrong_path_gen = None
        self._stall_until = cycle + penalty
        self._last_block = None
