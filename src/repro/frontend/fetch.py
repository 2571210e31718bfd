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

A stream is a pure function of its key, the mispredicted branch's dynamic
``seq`` (mixed with the engine seed) and its fall-through PC, so it is
memoized process-wide: a later run of the same trace (another
configuration or model of a sweep point) replays it, and so does a
refetch after a complete-invalidation rewind.  Within one run a branch
occurrence mispredicts once, so a cold run synthesizes every record it
fetches on the wrong path (:attr:`FetchEngine.synthesized_wrong_path`
counts them).

A wrong-path record holds only what the engine reads of it: opcode
flags, registers and, for a load, the data address.  It has no ``pc``:
the I-cache is the one reader of wrong-path pcs, and the fetch engine
counts them itself, from the stream's start PC one instruction per
record drawn.  Without a pc or a value, the 144 possible non-load records (ADD
and MUL over 8 source × 8 destination registers, BNE over 8 sources ×
taken) are built once at import and shared by every draw; only loads,
about one draw in seven, are built per draw.  The memo thus holds
references, most of them to the shared records.

The memo is bounded by records, not streams: it admits streams, and lets
admitted streams grow, until it holds :data:`_WP_RECORD_BUDGET` records,
and then stops growing.  It evicts nothing, so the records a process
synthesized first stay replayable.  A stream the memo refuses — a new
one, or the unrecorded tail of an admitted one — is synthesized into a
stream its engine alone holds and drops at :meth:`FetchEngine.redirect`
or :meth:`FetchEngine.rewind_to`.  Every record is drawn from the same
key either way, so the budget moves no record and no cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.mem.cache import Cache
from repro.trace.record import OPCODE_ROWS, TraceRecord
from repro.trace.columnar import ColumnarTrace

_MASK64 = (1 << 64) - 1
_WRONG_PATH_SEQ = -1
_new_record = TraceRecord.__new__


def _mix(state: int) -> int:
    state = (state ^ (state >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    return state ^ (state >> 33)


@dataclass(slots=True)
class FetchedInstruction:
    """One instruction leaving the fetch stage."""

    rec: TraceRecord
    wrong_path: bool = False
    #: True for a correct-path conditional branch whose direction the
    #: branch predictor got wrong — fetch goes wrong-path after it.
    mispredicted: bool = False


#: Base address of the data wrong-path loads touch.
_WP_DATA_BASE = 0x600000

#: The flag-table row (:data:`~repro.trace.record.OPCODE_ROWS`) of a
#: wrong-path load.
_WP_LD = OPCODE_ROWS[Opcode.LD.code]

#: The eight ``src_regs`` tuples a wrong-path record can carry, shared
#: by every synthesized record.
_WP_SRCS = tuple((reg,) for reg in range(8, 16))

#: Every non-load record a stream can draw, built once: ADD and MUL
#: indexed by ``src * 8 + dest``, BNE by ``src * 2 + taken``.  They have
#: no ``pc``, ``next_pc`` or ``dest_value``.
_WP_ADDS, _WP_MULS = (
    tuple(
        TraceRecord(_WRONG_PATH_SEQ, None, opcode, src, 8 + dest, next_pc=None)
        for src in _WP_SRCS
        for dest in range(8)
    )
    for opcode in (Opcode.ADD, Opcode.MUL)
)
_WP_BNES = tuple(
    TraceRecord(
        _WRONG_PATH_SEQ, None, Opcode.BNE, src, branch_taken=taken, next_pc=None
    )
    for src in _WP_SRCS
    for taken in (False, True)
)


def _extend_stream(stream: list) -> TraceRecord:
    """Draw the next record of a wrong-path ``stream`` (``[records,
    rng_state]``), append it and return it.

    The record carries only what the engine reads of a wrong-path
    instruction: its opcode-row flags, ``src_regs``, ``dest_reg``,
    ``writes_register``, ``branch_taken`` and, for a load, the
    ``mem_addr``/``mem_size`` it pollutes the D-cache with.  Its ``seq``
    is -1 and its ``pc``, ``next_pc`` and ``dest_value`` are ``None``
    (:class:`FetchEngine` counts the wrong-path pcs itself).  A non-load
    draw returns one of the shared records of :data:`_WP_ADDS`,
    :data:`_WP_MULS` and :data:`_WP_BNES`; a load is built per draw.
    """
    state = _mix(stream[1])
    stream[1] = state
    roll = state % 100
    if roll < 70:
        rec = _WP_ADDS[((state >> 13) & 0x38) | ((state >> 8) & 7)]
    elif roll < 85:
        rec = _new_record(TraceRecord)
        rec.seq = _WRONG_PATH_SEQ
        rec.pc = rec.next_pc = rec.dest_value = rec.branch_taken = None
        rec.src_regs = _WP_SRCS[(state >> 16) & 7]
        rec.dest_reg = 8 + ((state >> 8) & 7)
        rec.dest_fold = 0
        rec.writes_register = True
        rec.mem_addr = _WP_DATA_BASE + ((state >> 24) & 0xFFF) * 8
        rec.mem_size = 8
        (
            rec.opcode,
            rec.opclass,
            rec.is_load,
            rec.is_store,
            rec.is_memory,
            rec.is_branch,
            rec.is_control,
            rec.is_indirect,
            rec.exec_latency,
            rec.sel_priority,
            rec.is_ctrl,
        ) = _WP_LD
    elif roll < 90:
        rec = _WP_MULS[((state >> 13) & 0x38) | ((state >> 8) & 7)]
    else:
        # Wrong-path branch: executes but never redirects fetch.
        rec = _WP_BNES[((state >> 15) & 0xE) | (state & 1)]
    stream[0].append(rec)
    return rec


#: Process-wide wrong-path memo, keyed by ``(seed, start_pc)``.  A stream
#: is a pure function of its key, so the memo is shared across engines and
#: runs — later simulations of one trace (config sweeps, benchmark
#: repetitions) replay recorded streams instead of re-synthesizing them.
#: ``TraceRecord`` instances are immutable to the engine, so sharing them
#: across replays and runs is safe.
_WP_STREAMS: dict[tuple[int, int], list] = {}
#: Records the memo grows to at most (plus the rest of the fetch group
#: that reaches it): 2^17 records are ~6 MB (a list slot per record plus
#: one ~240 B load in seven), about twice the largest memo a Figure 3,
#: sweep or service benchmark process builds.
_WP_RECORD_BUDGET = 1 << 17
#: Records the streams of :data:`_WP_STREAMS` hold.
_wp_held = 0


def _wrong_path_cache(seed: int, start_pc: int) -> tuple[list, bool]:
    """The ``[records, rng_state]`` stream for ``(seed, start_pc)`` and
    whether the memo holds it.

    A memoized stream is returned however full the memo is.  A new
    stream is registered while the memo holds fewer records than
    :data:`_WP_RECORD_BUDGET`; past the budget it is returned unregistered,
    for its engine alone.  Nothing is ever evicted.
    """
    key = (seed, start_pc)
    stream = _WP_STREAMS.get(key)
    if stream is not None:
        return stream, True
    stream = [[], _mix(seed | 1)]
    admitted = _wp_held < _WP_RECORD_BUDGET
    if admitted:
        _WP_STREAMS[key] = stream
    return stream, admitted


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
        #: The wrong-path stream being fetched (``None`` on the correct
        #: path), the position of its next record, the pc the I-cache
        #: sees for that record, and whether the memo holds the stream
        #: (else this engine alone does).
        self._wp_stream: list | None = None
        self._wp_pos = 0
        self._wp_pc = 0
        self._wp_shared = False
        self._last_block: int | None = None
        self.fetched_correct = 0
        self.fetched_wrong_path = 0
        #: Wrong-path records this engine synthesized, and those it
        #: replayed from the memo.  Together they count every record
        #: drawn, including one an I-cache miss consumed unfetched.  Kept
        #: off ``SimCounters``: the memo's warmth differs between runs of
        #: the same point.
        self.synthesized_wrong_path = 0
        self.replayed_wrong_path = 0
        self.icache_stall_cycles = 0

    @property
    def exhausted(self) -> bool:
        """Correct path fully delivered and not stuck on a wrong path."""
        return self._index >= len(self.trace) and self._wp_stream is None

    @property
    def on_wrong_path(self) -> bool:
        return self._wp_stream is not None

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
        global _wp_held
        if cycle < self._stall_until or max_count <= 0:
            return []
        out: list[tuple[TraceRecord, bool, bool, int]] = []
        out_append = out.append
        icache = self.icache
        # Same-block accesses are free; inline that fast path so the
        # I-cache model is only consulted on block boundaries.  The whole
        # of ``_icache_ready`` is inlined below (both call sites) with the
        # last-block/latency state held in locals for the duration of the
        # fetch group.
        block_bytes = icache.block_bytes if icache is not None else 0
        icache_hit = icache.hit_latency if icache is not None else 0
        last_block = self._last_block
        count = 0
        stream = self._wp_stream
        if stream is not None:
            # Wrong path until the redirect: replay the stream,
            # synthesizing past its recorded end.  A memo stream that
            # runs out in a group starting with the memo full goes on as
            # a private copy of its generator state, so the memo grows
            # only in groups that start under the budget.  A record is
            # consumed even when its I-cache miss ends the group.  The
            # records carry no pc: the stream's pcs run on from its
            # start pc one instruction per record drawn.
            records = stream[0]
            start = pos = self._wp_pos
            pc = self._wp_pc
            synthesized = 0
            full = self._wp_shared and _wp_held >= _WP_RECORD_BUDGET
            while count < max_count:
                if pos < len(records):
                    rec = records[pos]
                else:
                    if full:
                        stream = self._wp_stream = [[], stream[1]]
                        records = stream[0]
                        start -= pos  # pos - start still counts this group
                        pos = 0
                        full = self._wp_shared = False
                    rec = _extend_stream(stream)
                    synthesized += 1
                pos += 1
                if icache is not None:
                    block = pc // block_bytes
                    if block != last_block:
                        latency = icache.access(pc)
                        last_block = block
                        if latency > icache_hit:
                            pc += INSTRUCTION_BYTES
                            self._stall_until = cycle + latency
                            self.icache_stall_cycles += latency - icache_hit
                            break
                pc += INSTRUCTION_BYTES
                out_append((rec, True, False, ready))
                count += 1
            self._wp_pos = pos
            self._wp_pc = pc
            self._last_block = last_block
            self.fetched_wrong_path += count
            self.synthesized_wrong_path += synthesized
            self.replayed_wrong_path += pos - start - synthesized
            if self._wp_shared:
                _wp_held += synthesized
            return out
        trace = self.trace
        trace_len = len(trace)
        index = self._index
        bpred = self.branch_predictor
        bp_update = bpred.update if bpred is not None else None
        ideal_targets = self.ideal_branch_targets
        ras = self.ras
        while count < max_count:
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
            count += 1
            if mispredicted:
                if self.model_wrong_path:
                    start_pc = self._wp_pc = rec.next_pc + 0x4000
                    self._wp_stream, self._wp_shared = _wrong_path_cache(
                        self._seed ^ rec.seq, start_pc
                    )
                    self._wp_pos = 0
                else:
                    self._stall_until = 1 << 60  # wait for redirect
                break
        self._index = index
        self._last_block = last_block
        self.fetched_correct += count
        return out

    def redirect(self, cycle: int, *, penalty: int = 1) -> None:
        """Resume correct-path fetch after a resolved misprediction.

        ``penalty`` cycles pass before the first correct-path fetch (the
        redirect bubble); correct-path state (``_index``) already points at
        the instruction after the branch because the trace is the correct
        path by construction.
        """
        self._wp_stream = None
        self._stall_until = cycle + penalty
        self._last_block = None

    def rewind_to(self, seq: int, cycle: int, *, penalty: int = 1) -> None:
        """Restart correct-path fetch from trace position ``seq`` — used by
        complete value-misspeculation invalidation, which refetches like a
        branch misprediction."""
        self._index = seq
        self._wp_stream = None
        self._stall_until = cycle + penalty
        self._last_block = None
