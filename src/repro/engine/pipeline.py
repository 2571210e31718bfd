"""The cycle-level out-of-order pipeline with value speculation.

Each simulated cycle advances through five phases — retire, speculation
events, issue, dispatch, fetch — so that an event effective in cycle *c*
(a result becoming usable, a verification or invalidation transaction) is
visible to the issue stage of the same cycle, matching the paper's event
timing convention: a latency of zero between two events means they complete
within the same cycle (Figure 1's *super* model packs detection,
invalidation and reissue into cycle t+1).

Event timestamps follow one rule: the cycle recorded for an event is the
first cycle in which its effect is actionable.  An instruction issued at
``t`` with execution latency ``L`` has its result usable in ``t + L``
(dependents may issue in ``t + L``); its equality outcome is actionable in
``t + L + exec_to_equality``; verification and invalidation transactions
are actionable ``equality_to_*`` cycles after that; and so on through the
:class:`~repro.core.latency.LatencyModel` variables.

Value speculation is simulated through *taint tracking*: every unresolved
prediction is a speculation source, and every value broadcast carries the
set of sources it transitively depends on.  An operand is VALID exactly
when its taint set is empty.  Verification removes a source from all taint
sets (the flattened network does this for a whole dependence closure in one
transaction, resolving chained predictions whose speculative equality
comparisons already succeeded); invalidation delivers the correct value to
direct consumers, resets (nullifies) every transitively affected
instruction, and lets dataflow re-execution repair the rest.

Two engine-level optimizations keep the hot loop cheap without changing a
single cycle of behaviour (the golden-counter tests pin this):

* Taint sets are integer **bitmasks** over recycled source bits (see
  :mod:`repro.window.taintmask` and docs/PERFORMANCE.md) — broadcast,
  verification and invalidation transactions do single int ops instead of
  allocating/copying ``set`` objects.
* Issue is **event-driven**: instead of rescanning the whole window every
  cycle, a ready pool holds only the stations whose operands are usable,
  fed by a wake heap of cycle-gated entries and re-armed by the broadcast
  / taint-clear / nullify paths that actually change operand state.
  Selection stays O(ready), not O(window).
"""

from __future__ import annotations

import gc
import weakref
from collections import deque
from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from itertools import islice as _islice

from repro.core.latency import LatencyModel
from repro.core.model import SpeculativeExecutionModel
from repro.core.variables import (
    BranchResolution,
    InvalidationScheme,
    MemoryResolution,
    ModelVariables,
    VerificationScheme,
    WakeupPolicy,
)
from repro.core.events import LatencyEventKind
from repro.engine.config import ProcessorConfig
from repro.isa.opcodes import OpClass
from repro.frontend.fetch import FetchEngine
from repro.frontend.gshare import GsharePredictor
from repro.mem.hierarchy import MemoryHierarchy, make_paper_hierarchy
from repro.mem.lsq import LoadStoreQueue
from repro.mem.ports import PortPool
from repro.metrics.counters import SimCounters
from repro.trace.record import TraceRecord
from repro.vp.base import ValuePredictor
from repro.vp.confidence import ConfidenceEstimator, ResettingConfidenceEstimator
from repro.vp.context import ContextValuePredictor
from repro.vp.update_timing import UpdateTiming
from repro.window.ruu import InstructionWindow
from repro.window.selection import SELECTION_TERMS
from repro.window.station import Operand, Station
from repro.window.taintmask import TaintBitAllocator
from repro.window.wakeup import operand_state_labels

# Event kinds on the timing heap.
_RESULT = 0
_EQUALITY = 1
_VERIFY = 2
_INVALIDATE = 3
_WAVE_VERIFY = 4
_WAVE_INVALIDATE = 5
_ADDRGEN = 6
_PROV_INVALIDATE = 7


def _make_bpred(config: ProcessorConfig):
    """Build the configured branch direction predictor."""
    if config.branch_predictor == "gshare":
        return GsharePredictor(
            config.branch_history_bits, config.branch_table_bits
        )
    if config.branch_predictor == "bimodal":
        from repro.frontend.bimodal import BimodalPredictor

        return BimodalPredictor(config.branch_table_bits)
    if config.branch_predictor == "local":
        from repro.frontend.local import LocalHistoryPredictor

        return LocalHistoryPredictor()
    from repro.frontend.tournament import TournamentPredictor

    return TournamentPredictor()


class SimulationError(RuntimeError):
    """Raised when a simulation cannot make progress."""


class PipelineSimulator:
    """One simulation run: a trace replayed on one configuration."""

    def __init__(
        self,
        trace: list[TraceRecord],
        config: ProcessorConfig,
        model: SpeculativeExecutionModel | None = None,
        *,
        predictor: ValuePredictor | None = None,
        confidence: ConfidenceEstimator | None = None,
        update_timing: UpdateTiming = UpdateTiming.DELAYED,
        hierarchy: MemoryHierarchy | None = None,
        tracer=None,
    ):
        self.trace = trace
        self.config = config
        self.model = model
        self.vp_enabled = model is not None
        self.latencies: LatencyModel = (
            model.latencies if model is not None else LatencyModel()
        )
        self.variables: ModelVariables = (
            model.variables if model is not None else ModelVariables()
        )
        self.predictor = predictor or (
            ContextValuePredictor() if self.vp_enabled else None
        )
        self.confidence = confidence or (
            ResettingConfidenceEstimator() if self.vp_enabled else None
        )
        self.update_timing = update_timing
        self.hierarchy = hierarchy or make_paper_hierarchy(
            perfect=config.perfect_caches
        )
        self.bpred = None if config.perfect_branches else _make_bpred(config)
        btb = ras = None
        if not config.ideal_branch_targets:
            from repro.frontend.btb import BranchTargetBuffer
            from repro.frontend.ras import ReturnAddressStack

            btb = BranchTargetBuffer()
            ras = ReturnAddressStack()
        self.fetch_engine = FetchEngine(
            trace,
            self.hierarchy.l1i,
            self.bpred,
            model_wrong_path=config.model_wrong_path,
            ideal_branch_targets=config.ideal_branch_targets,
            btb=btb,
            ras=ras,
        )
        self.window = InstructionWindow(config.window_size)
        #: The window's backing ordered dict, accessed directly on the hot
        #: paths (sid → Station lookups happen on every broadcast).
        self._win = self.window._stations
        #: Shared immutable VALID operands, one per architectural register.
        #: A register-file read at dispatch never changes state (ready,
        #: untainted, correct, cycle 0), so all stations can share one
        #: Operand instance per register instead of allocating a fresh one.
        #: Shared always-VALID operand singletons, one per architected
        #: register (never mutated — no producer means no deliver/clear/
        #: reset can reach them).  Pre-built so dispatch reads are a plain
        #: list index.
        self._regfile_operands: list[Operand] = [
            Operand(reg, None) for reg in range(256)
        ]
        self.lsq = LoadStoreQueue(config.window_size)
        self.dports = PortPool(config.dcache_ports)
        self.counters = SimCounters()
        #: Observability tracer (see :mod:`repro.obs`).  ``None`` or a
        #: NullTracer keeps every instrumentation site at one falsy check;
        #: a PipelineTracer records lifecycle marks and latency events.
        #: The duck type is deliberately untyped here so the engine never
        #: imports repro.obs (which imports the engine back).
        self.tracer = tracer
        self._obs_on = tracer is not None and tracer.enabled
        if tracer is not None:
            tracer.bind(config)
        if self._obs_on:
            self._trc_mark = tracer.mark
            self._trc_lat = tracer.latency
            # Bound to a weak proxy: a bound method would make the
            # simulator reference itself through its own LSQ.
            self.lsq.on_event = partial(
                type(self)._obs_lsq_event, weakref.proxy(self)
            )
        else:
            self._trc_mark = self._trc_lat = None
        #: Cached latency constants (hot-path attribute chains collapsed
        #: to single loads).
        latencies = self.latencies
        self._lat_exec_eq = latencies.exec_to_equality
        self._lat_eq_verify = latencies.equality_to_verification
        self._lat_eq_inval = latencies.equality_to_invalidation
        self._lat_inval_reissue = latencies.invalidation_to_reissue
        self._lat_verify_branch = latencies.verification_to_branch
        self._lat_verify_mem = latencies.verification_addr_to_mem_access
        #: Resource-release delay applied to speculation-involved
        #: retirements (the base rule — one cycle after completion —
        #: applies otherwise).
        self._lat_release_spec = max(
            latencies.verification_to_free_issue,
            latencies.verification_to_free_retirement,
        )
        self._rb_validate = self.variables.verification in (
            VerificationScheme.RETIREMENT_BASED,
            VerificationScheme.HYBRID,
        )
        #: Non-flattened verification chains equality events through
        #: ``_maybe_chain_equality``; False (the default scheme) lets
        #: ``_clear_taints`` skip that helper entirely.
        scheme = self.variables.verification
        self._chain_equality = scheme is not VerificationScheme.PARALLEL_NETWORK
        #: Scheme dispatch for ``_on_verify``, resolved once per run to a
        #: plain function of the class (never a bound method: the
        #: simulator holds no reference to itself, so dropping the last
        #: caller reference frees it without waiting for the cycle
        #: collector).
        cls = type(self)
        if scheme is VerificationScheme.PARALLEL_NETWORK:
            self._verify_impl = cls._verify_parallel
        elif scheme is VerificationScheme.HIERARCHICAL:
            self._verify_impl = cls._verify_hierarchical
        else:  # RETIREMENT_BASED and HYBRID
            self._verify_impl = cls._verify_retirement_based
        #: VP-gate fast flags: with the default config every register
        #: writer is prediction-eligible and ports are unlimited, so the
        #: per-dispatch gate collapses to two truthy attribute loads.
        self._predict_all = config.predict_classes == "all"
        self._vp_unlimited = not config.vp_ports
        #: Selection-key masks (branch/load priority, speculative
        #: inputs) of the run's policy: issue sorts native key tuples
        #: instead of calling a key function per candidate.
        self._prio_term, self._spec_term = SELECTION_TERMS[self.variables.selection]
        #: Per-call constants, hoisted for the per-cycle stage methods.
        self._wakeup_valid_only = self.variables.wakeup is WakeupPolicy.VALID_ONLY
        self._branch_valid_only = (
            self.variables.branch_resolution is BranchResolution.VALID_ONLY
        )
        self._mem_valid_only = (
            self.variables.memory_resolution is MemoryResolution.VALID_ONLY
        )
        self._issue_width = config.issue_width
        self._dispatch_width = config.dispatch_width
        self._retire_width = config.retire_width
        self._fetch_width = config.fetch_width
        self._dispatch_latency = config.dispatch_latency
        self._model_on = model is not None
        #: Value-prediction hot-path hoists: the update-timing branch flag,
        #: the approximate-equality shift, and bound predictor/confidence
        #: methods (``_predict_value`` runs once per register-writing
        #: dispatch, so each saved attribute chain counts).
        self._vp_delayed = update_timing is not UpdateTiming.IMMEDIATE
        self._eq_shift = config.equality_ignore_low_bits
        if self.predictor is not None:
            self._vp_predict = self.predictor.predict
            self._vp_predict_speculate = self.predictor.predict_speculate
            self._vp_train = self.predictor.train
        else:
            self._vp_predict = self._vp_predict_speculate = None
            self._vp_train = None
        if self.confidence is not None:
            self._conf_confident = self.confidence.confident
            self._conf_update = self.confidence.update
        else:
            self._conf_confident = self._conf_update = None

        self.cycle = 0
        self._next_sid = 0
        #: Timing events bucketed by cycle (``cycle -> [entry, ...]``).
        #: Latencies are non-negative, so no event is ever scheduled into
        #: the past and a plain dict beats a heap: scheduling is an append,
        #: the per-cycle poll is one membership test, and within a bucket
        #: append order is exactly the old heap's tiebreak order.  An entry
        #: is ``(kind, station, epoch)`` plus a trailing consumer frontier
        #: for wave transactions.
        self._events: dict[int, list[tuple]] = {}
        #: kind -> handler function (called as ``handler(self, station,
        #: cycle)``) for the point-event kinds; wave and
        #: provisional-invalidate entries carry extra state and keep
        #: their explicit dispatch in ``_process_events``.  Plain class
        #: functions, like ``_verify_impl``, keep the simulator acyclic.
        self._event_handlers = (
            cls._on_result,
            cls._on_equality,
            cls._on_verify,
            cls._on_invalidate,
            None,
            None,
            cls._on_addrgen,
            None,
        )
        #: Fetched instructions awaiting dispatch as raw
        #: ``(rec, wrong_path, mispredicted, ready_cycle)`` tuples — the
        #: :class:`FetchedInstruction` wrapper is public-API only.
        self._fetch_queue: deque[tuple[TraceRecord, bool, bool, int]] = deque()
        self._fetch_limit = config.fetch_width * (config.dispatch_latency + 2)
        #: Last-writer table: register -> sid of the newest station
        #: writing it (-1 = none in flight).  Dispatch resolves sources
        #: with one list index instead of a dict-of-lists lookup; each
        #: station records the previous entry (``prev_writer``) so a
        #: squash can unwind the table youngest-first.  Stale (retired)
        #: sids are harmless — the window lookup filters them.
        self._last_writer: list[int] = [-1] * 256
        #: Closure-walk visit stamp (see ``_consumer_closure``).
        self._stamp = 0
        self._pending_branch: Station | None = None
        #: Loads whose address generation finished and whose memory access
        #: is pending (valid-address gate / prior stores / ports), as
        #: (station, epoch) pairs retried every cycle.
        self._waiting_access: list[tuple[Station, int]] = []
        self._last_retire_cycle = 0
        #: Cycle before which no retirement can succeed: set when the head
        #: is complete and merely waiting out its release delay (its
        #: finality inputs are frozen at that point), letting the run loop
        #: skip ``_retire`` calls entirely.  Never set under
        #: retirement-based validation, which must run every cycle.
        self._retire_gate = 0
        #: Bitmask of sources resolved correct, awaiting retirement-based
        #: propagation (RETIREMENT_BASED / HYBRID verification only).
        self._retire_verified = 0
        #: Recycling allocator for speculation-source taint bits.
        self._taint_bits = TaintBitAllocator()
        #: Event-driven wakeup state: the ready pool holds stations whose
        #: operands were usable at last look (issue re-checks the full
        #: predicate); the wake heap holds (cycle, tiebreak, station,
        #: epoch) entries for stations waiting on a known future cycle.
        self._ready_pool: dict[int, Station] = {}
        self._wake_heap: list[tuple[int, int, Station, int]] = []
        self._wake_counter = 0
        self._vp_port_cycle = -1
        self._vp_ports_used = 0

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int, kind: int, station: Station) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            bucket = self._events[cycle] = []
        bucket.append((kind, station, station.epoch))

    def _schedule_wave(
        self, cycle: int, kind: int, source: Station, wave: list[int]
    ) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            bucket = self._events[cycle] = []
        bucket.append((kind, source, source.epoch, wave))

    # -- wakeup plumbing ------------------------------------------------

    def _mark_wakeup(self, station: Station) -> None:
        """Re-arm ``station`` for issue consideration after an operand or
        pipeline-state change (cheap and idempotent; the issue stage
        re-evaluates the full wakeup predicate)."""
        if not station.issued and not station.retired:
            self._ready_pool[station.sid] = station

    def _gate_wakeup(self, cycle: int, station: Station) -> None:
        """Park ``station`` until ``cycle`` (a known future issue gate)."""
        self._wake_counter += 1
        _heappush(
            self._wake_heap, (cycle, self._wake_counter, station, station.epoch)
        )

    # -- observability plumbing (all callers guard on self._obs_on) ------

    def _obs_lsq_event(self, sid: int, what: str) -> None:
        """LSQ ``on_event`` callback: address/forward activity marks."""
        station = self._win.get(sid)
        seq = station.rec.seq if station is not None else -1
        self._trc_mark(self.cycle, seq, sid, "lsq", what)

    def _obs_issue(self, station: Station, cycle: int) -> None:
        """Issue-side recording: the issue/reissue mark, plus the
        Invalidation–Reissue and Verification–Branch latency events this
        issue closes."""
        rec = station.rec
        op = rec.opcode.mnemonic
        if station.exec_count > 0:
            self._trc_mark(cycle, rec.seq, station.sid, "reissue")
            if station.invalidate_cycle >= 0:
                self._trc_lat(
                    LatencyEventKind.INVALIDATION_REISSUE,
                    rec.seq,
                    station.sid,
                    station.invalidate_cycle,
                    cycle,
                    op,
                )
                station.invalidate_cycle = -1
        else:
            self._trc_mark(cycle, rec.seq, station.sid, "issue")
        if station.is_ctrl:
            start = -1
            for operand in station.operands:
                if operand.via_network and operand.valid_cycle > start:
                    start = operand.valid_cycle
            if start >= 0:
                self._trc_lat(
                    LatencyEventKind.VERIFICATION_BRANCH,
                    rec.seq,
                    station.sid,
                    start,
                    cycle,
                    op,
                )

    def _obs_mem_access(self, station: Station, cycle: int) -> None:
        """Memory-access recording: the access mark, plus the
        Verification-Address–Memory-Access latency event when the access
        was gated on a network-verified operand."""
        rec = station.rec
        self._trc_mark(cycle, rec.seq, station.sid, "mem-access")
        start = -1
        for operand in station.operands:
            if operand.via_network and operand.valid_cycle > start:
                start = operand.valid_cycle
        if start >= 0:
            self._trc_lat(
                LatencyEventKind.VERIFICATION_ADDR_MEM_ACCESS,
                rec.seq,
                station.sid,
                start,
                cycle,
                rec.opcode.mnemonic,
            )

    def _obs_retire(self, station: Station, cycle: int, final: int, spec: bool) -> None:
        """Retire-side recording: the retire mark, plus the unified
        Verification–Free-Issue/Retirement-Resource release window when
        speculation was involved (the engine releases both resources with
        one ``max(free_issue, free_retirement)`` delay, so both events
        share the measured span)."""
        rec = station.rec
        self._trc_mark(cycle, rec.seq, station.sid, "retire")
        if spec and self._model_on:
            op = rec.opcode.mnemonic
            self._trc_lat(
                LatencyEventKind.VERIFICATION_FREE_ISSUE,
                rec.seq, station.sid, final, cycle, op,
            )
            self._trc_lat(
                LatencyEventKind.VERIFICATION_FREE_RETIREMENT,
                rec.seq, station.sid, final, cycle, op,
            )

    def _obs_invalidated(self, station: Station, cycle: int) -> None:
        """A consumer was nullified by an invalidation transaction."""
        station.invalidate_cycle = cycle
        self._trc_mark(
            cycle, station.rec.seq, station.sid, "invalidate", "nullified"
        )

    # -- taint-bit plumbing ---------------------------------------------

    def _live_taint_union(self) -> int:
        """Union of every reachable taint mask: window state plus the
        sources of still-pending transactions (waves may outlive their
        source's retirement)."""
        union = 0
        for station in self.window:
            union |= station.out_taints | station.exec_taints
            for operand in station.operands:
                union |= operand.taints
        for bucket in self._events.values():
            for entry in bucket:
                source = entry[1]
                union |= (
                    source.taint_mask | source.out_taints | source.exec_taints
                )
                for operand in source.operands:
                    union |= operand.taints
        return union

    def _alloc_taint_mask(self, station: Station) -> int:
        """Assign ``station`` its speculation-source bit, sweeping (and as
        a last resort growing) the allocator when it runs dry."""
        mask = self._taint_bits.alloc(station)
        if not mask:
            freed = self._taint_bits.sweep(self._live_taint_union())
            # A freed bit must stop counting as retirement-verified, or
            # its next owner would be born pre-verified.
            self._retire_verified &= ~freed
            mask = self._taint_bits.alloc(station)
            if not mask:
                self._taint_bits.grow()
                mask = self._taint_bits.alloc(station)
        return mask

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimCounters:
        """Simulate until every correct-path instruction has retired.

        Each phase is guarded by a cheap no-work test (its own first
        early-out, hoisted) so quiet cycles cost a handful of branch
        checks instead of five function calls.
        """
        total = len(self.trace)
        if total == 0:
            return self.counters
        counters = self.counters
        win = self._win
        events = self._events
        pool = self._ready_pool
        wake_heap = self._wake_heap
        rb_validate = self._rb_validate
        fetch_queue = self._fetch_queue
        fetch_engine = self.fetch_engine
        trace_len = len(fetch_engine.trace)
        fetch_limit = self._fetch_limit
        max_cycles = self.config.max_cycles
        cycle = self.cycle
        # Only _retire advances the gate, so run() mirrors it in a local
        # and refreshes after each _retire call.
        retire_gate = self._retire_gate
        # Stations and operands form an acyclic graph (no owner
        # backrefs), so everything the loop drops is reclaimed by
        # reference counting; pausing the cycle detector for the run
        # removes its periodic full-heap sweeps from the hot loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # Per-cycle counters accumulate in locals and flush once — an
        # attribute read-modify-write per cycle is pure loop overhead.
        occupancy_sum = 0
        stall_fetch_empty = 0
        try:
            while counters.retired < total:
                if cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded {max_cycles} cycles with "
                        f"{counters.retired}/{total} retired — deadlock?"
                    )
                self.cycle = cycle
                if win and cycle >= retire_gate:
                    # The _retire head early-out, inlined: most cycles the
                    # head is wrong-path or still in flight, which three
                    # attribute reads establish without a call (rb schemes
                    # always call — their validation runs every cycle).
                    head = next(iter(win.values()))
                    if rb_validate or not (
                        head.wrong_path or not head.executed or head.executing
                    ):
                        self._retire()
                        retire_gate = self._retire_gate
                if cycle in events:
                    self._process_events()
                if pool or self._waiting_access or (
                    wake_heap and wake_heap[0][0] <= cycle
                ):
                    self._issue()
                if fetch_queue:
                    # The queue is FIFO on ready cycles, so a not-yet-ready
                    # head means dispatch would break on its first
                    # iteration without touching a counter.
                    if fetch_queue[0][3] <= cycle:
                        self._dispatch()
                elif (
                    fetch_engine._index < trace_len
                    or fetch_engine._wp_stream is not None
                ):
                    stall_fetch_empty += 1
                if cycle >= fetch_engine._stall_until and len(fetch_queue) < fetch_limit:
                    self._fetch()
                occupancy_sum += len(win)
                cycle += 1
        finally:
            if gc_was_enabled:
                gc.enable()
            counters.window_occupancy_sum += occupancy_sum
            counters.stall_fetch_empty += stall_fetch_empty
        self.cycle = cycle
        counters.cycles = self._last_retire_cycle + 1
        counters.window_peak = self.window.peak_occupancy
        return counters

    # ------------------------------------------------------------------
    # fetch & dispatch
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        room = self._fetch_limit - len(self._fetch_queue)
        if room <= 0:
            return
        cycle = self.cycle
        batch = self.fetch_engine.fetch_raw(
            cycle, min(self._fetch_width, room), cycle + self._dispatch_latency
        )
        if not batch:
            return
        # fetch_raw already stamped the dispatch-ready cycle into each
        # tuple, so the whole batch lands in the queue in one C-level
        # extend.
        self._fetch_queue.extend(batch)
        if self._obs_on:
            for rec, wrong_path, __, __ready in batch:
                if not wrong_path:
                    self._trc_mark(cycle, rec.seq, -1, "fetch")

    def _dispatch(self) -> None:
        """Dispatch up to ``dispatch_width`` instructions into the window
        (the seed's per-instruction ``_dispatch_one`` body is inlined with
        every ``self`` lookup hoisted out of the loop)."""
        dispatched = 0
        fetch_queue = self._fetch_queue
        win = self._win
        win_get = win.get
        capacity = self.window.capacity
        counters = self.counters
        cycle = self.cycle
        width = self._dispatch_width
        last_writer = self._last_writer
        regfile_operands = self._regfile_operands
        lsq = self.lsq
        lsq_entries = lsq._entries  # lsq.full, inlined below
        lsq_capacity = lsq.capacity
        pool = self._ready_pool
        window = self.window
        obs_on = self._obs_on
        vp_on = self.vp_enabled
        predict_all = self._predict_all
        vp_unlimited = self._vp_unlimited
        next_sid = self._next_sid
        new_station = Station.__new__
        new_operand = Operand.__new__
        peak = window.peak_occupancy
        # A station with an un-ready operand never enters the ready pool
        # at dispatch: it cannot pass the wakeup predicate until a
        # producer broadcast arrives, and _broadcast re-pools it at that
        # moment.  (Every policy's selection key is total, so the order
        # stations enter the pool never matters.)
        # Per-instruction counters accumulate in locals and flush once
        # after the loop (an attribute RMW per instruction is overhead).
        n_wrong = n_branches = n_mispred = n_loads = n_stores = 0
        # run() calls this only when the queue head is ready, so an empty
        # queue here always follows at least one dispatch.
        while dispatched < width and fetch_queue:
            rec, wrong_path, mispredicted, ready = fetch_queue[0]
            if ready > cycle:
                break
            if len(win) >= capacity:
                if dispatched == 0:
                    counters.stall_window_full += 1
                break
            is_memory = rec.is_memory
            if (
                is_memory
                and not wrong_path
                and len(lsq_entries) >= lsq_capacity
            ):
                if dispatched == 0:
                    counters.stall_lsq_full += 1
                break
            fetch_queue.popleft()
            sid = next_sid
            next_sid += 1
            # Station.__init__, inlined (kept in lockstep with
            # window/station.py — the golden-counter tests pin the
            # behaviour): constructing ~1 station per instruction through
            # a Python-level __init__ frame is pure dispatch overhead.
            station = new_station(Station)
            station.sid = sid
            station.rec = rec
            station.wrong_path = wrong_path
            operands = station.operands = []
            station.consumers = []
            station.prev_writer = -1
            station.stamp = 0
            station.predicted = False
            station.predicted_confident = False
            station.pred_correct = False
            station.prediction_resolved = False
            station.prediction_muted = False
            station.pending_train = None
            station.spec_equal = False
            station.issued = False
            station.executing = False
            station.executed = False
            station.exec_count = 0
            station.out_ready = False
            station.out_taints = 0
            station.out_correct = False
            station.exec_taints = 0
            station.taint_mask = 0
            station.out_valid_cycle = 0
            station.result_cycle = 0
            station.equality_cycle = 0
            station.verify_cycle = 0
            station.min_issue_cycle = cycle + 1
            station.epoch = 0
            station.sel_priority = rec.sel_priority
            station.is_ctrl = rec.is_ctrl
            station.branch_mispredicted = False
            station.retired = False
            station.misspeculations = 0
            station.in_dirty = True
            station.in_usable = True
            station.in_taint_union = 0
            station.in_correct = True
            station.in_spec = False
            station.wakeup_cycle = -1
            station.invalidate_cycle = -1
            operands_append = operands.append
            pool_ready = True
            op_index = -1
            for reg in rec.src_regs:
                op_index += 1
                producer_sid = last_writer[reg]
                producer = None
                if producer_sid >= 0:
                    producer = win_get(producer_sid)
                    if producer is not None and producer.retired:
                        producer = None
                if producer is None:
                    # Architected register-file read: permanently VALID —
                    # the shared pre-built per-register singleton stands in.
                    operands_append(regfile_operands[reg])
                    continue
                # Operand.__init__, inlined (same lockstep note).
                operand = new_operand(Operand)
                operand.reg = reg
                operand.producer_sid = producer_sid
                operand.from_prediction = False
                operand.valid_cycle = 0
                operand.via_network = False
                producer.consumers.append((station, op_index))
                if producer.out_ready:
                    # Dispatch-time capture reads the producer's RS
                    # field directly — no network transaction involved,
                    # so no Verification–Branch/Memory surcharge.
                    operand.ready = True
                    taints = operand.taints = producer.out_taints
                    operand.correct = producer.out_correct
                    operand.from_prediction = (
                        producer.predicted
                        and not producer.prediction_resolved
                        and not producer.prediction_muted
                    )
                    if not taints:
                        operand.valid_cycle = cycle
                else:
                    operand.ready = False
                    operand.taints = 0
                    operand.correct = False
                    pool_ready = False
                operands_append(operand)

            writes = rec.writes_register
            if (
                vp_on
                and writes
                and not wrong_path
                and (predict_all or self._prediction_eligible(rec))
                and (vp_unlimited or self._vp_port_available())
            ):
                self._predict_value(station)

            if rec.is_branch and not wrong_path:
                n_branches += 1
            if mispredicted:
                station.branch_mispredicted = True
                self._pending_branch = station
                n_mispred += 1
            if is_memory and not wrong_path:
                is_store = rec.is_store
                lsq.allocate(sid, is_store)
                if is_store:
                    n_stores += 1
                else:
                    n_loads += 1
            if writes:
                dest = rec.dest_reg
                station.prev_writer = last_writer[dest]
                last_writer[dest] = sid

            # InstructionWindow.insert, inlined (the full/ordering checks
            # are guaranteed by the window gate above and the monotonic
            # sid).
            win[sid] = station
            occ = len(win)
            if occ > peak:
                peak = occ
            if pool_ready:
                pool[sid] = station
            if wrong_path:
                n_wrong += 1
            if obs_on and not wrong_path:
                self._trc_mark(cycle, rec.seq, sid, "dispatch")
            dispatched += 1
        self._next_sid = next_sid
        window.peak_occupancy = peak
        if dispatched:
            counters.dispatched += dispatched
            counters.dispatched_wrong_path += n_wrong
            counters.branches += n_branches
            counters.branch_mispredictions += n_mispred
            counters.loads += n_loads
            counters.stores += n_stores

    _LONG_LATENCY_CLASSES = frozenset(
        (
            OpClass.LOAD,
            OpClass.IMUL,
            OpClass.IDIV,
            OpClass.FADD,
            OpClass.FMUL,
            OpClass.FDIV,
        )
    )

    def _prediction_eligible(self, rec: TraceRecord) -> bool:
        """Selective value prediction (Calder et al. [8]): restrict which
        instruction classes are predicted at all."""
        policy = self.config.predict_classes
        if policy == "all":
            return True
        if policy == "loads":
            return rec.is_load
        if policy == "long-latency":
            return rec.opclass in self._LONG_LATENCY_CLASSES
        return rec.opclass is OpClass.IALU  # "alu"

    def _vp_port_available(self) -> bool:
        """Grant one of the per-cycle predictor ports (0 = unlimited)."""
        if not self.config.vp_ports:
            return True
        if self._vp_port_cycle != self.cycle:
            self._vp_port_cycle = self.cycle
            self._vp_ports_used = 0
        if self._vp_ports_used < self.config.vp_ports:
            self._vp_ports_used += 1
            return True
        return False

    def _predict_value(self, station: Station) -> None:
        rec = station.rec
        actual = rec.dest_value
        delayed = self._vp_delayed
        if delayed:
            predicted, token = self._vp_predict_speculate(rec.pc)
        else:
            predicted = self._vp_predict(rec.pc)
        pred_correct = predicted == actual
        if not pred_correct and self._eq_shift:
            # Approximate equality (Section 3.3 extension): the comparators
            # ignore the low bits, accepting near-miss predictions.  Timing
            # treats the prediction as correct; architectural results are
            # unaffected (the trace carries the true value).
            shift = self._eq_shift
            if (predicted >> shift) == ((actual or 0) >> shift):
                pred_correct = True
                self.counters.approximate_matches += 1
        confident = self._conf_confident(rec.pc, pred_correct)

        counters = self.counters
        counters.predictions += 1
        if pred_correct:
            counters.predictions_correct += 1
            if confident:
                counters.correct_high += 1
            else:
                counters.correct_low += 1
        elif confident:
            counters.incorrect_high += 1
        else:
            counters.incorrect_low += 1

        if delayed:
            station.pending_train = (
                rec.pc, actual, pred_correct, token, rec.dest_fold,
            )
        else:
            self._vp_train(rec.pc, actual, None, rec.dest_fold)
            self._conf_update(rec.pc, pred_correct)

        if confident:
            station.predicted = True
            station.predicted_confident = True
            station.pred_correct = pred_correct
            station.out_ready = True
            station.taint_mask = self._alloc_taint_mask(station)
            station.out_taints = station.taint_mask
            station.out_correct = pred_correct
            counters.speculated += 1
            if not pred_correct:
                counters.misspeculations += 1
            if self._obs_on:
                self._trc_mark(
                    self.cycle, rec.seq, station.sid, "predict",
                    "correct" if pred_correct else "incorrect",
                )

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        """Event-driven wakeup + selection.

        The ready pool and wake heap together hold every station that
        could possibly pass the wakeup predicate this cycle (dispatch,
        broadcast, taint-clear and nullify paths re-arm stations); issue
        evaluates the exact same predicate the full-window scan used to,
        so the candidate set — and therefore every simulated cycle — is
        identical, just computed over O(ready) stations.
        """
        if self._waiting_access:
            self._drain_waiting_access()
        cycle = self.cycle
        pool = self._ready_pool
        heap = self._wake_heap
        while heap and heap[0][0] <= cycle:
            __, __, station, epoch = _heappop(heap)
            if station.epoch == epoch and not station.issued and not station.retired:
                pool[station.sid] = station
        if not pool:
            return
        valid_only = self._wakeup_valid_only
        branch_valid_only = self._branch_valid_only
        obs_on = self._obs_on
        width = self._issue_width
        # Verification–Branch gate, inlined: with the latency at zero
        # (base/great models) no operand term can exceed the current cycle
        # (valid_cycle is always a past or present cycle), so the gate
        # reduces to min_issue_cycle and the operand walk is skipped.
        lat_vb = self._lat_verify_branch
        prio_term = self._prio_term
        spec_term = self._spec_term
        candidates: list = []
        # Pool order is irrelevant (every policy's candidate sort key is
        # total), so the walk rebuilds the pool in place: parking an
        # entry is simply not re-adding it, which replaces a list append
        # plus a keyed delete per parked station.  Selected candidates
        # were never re-added; overflow candidates go back at the end.
        stations = list(pool.values())
        pool.clear()
        for station in stations:
            if station.issued or station.retired:
                continue
            if station.in_dirty:
                # Station.refresh_inputs, inlined (kept in lockstep
                # with window/station.py): the wakeup walk is the
                # hottest consumer of the cached operand summary.
                usable = correct = True
                union = 0
                spec = False
                for op in station.operands:
                    if op.ready:
                        t = op.taints
                        if t:
                            union |= t
                            spec = True
                        if not op.correct:
                            correct = False
                    else:
                        usable = False
                        correct = False
                station.in_usable = usable
                station.in_taint_union = union
                station.in_correct = correct
                station.in_spec = spec
                station.in_dirty = False
            if not station.in_usable:
                # Waiting on a producer broadcast; deliver() re-arms.
                continue
            tainted = station.in_taint_union
            is_ctrl = station.is_ctrl
            if tainted and (valid_only or (is_ctrl and branch_valid_only)):
                # Waiting on verification; taint clears re-arm.
                continue
            gate = station.min_issue_cycle
            if lat_vb and is_ctrl and not tainted:
                # Only network-verified operands can push the gate past
                # the current cycle.
                for operand in station.operands:
                    if operand.via_network:
                        g = operand.valid_cycle + lat_vb
                        if g > gate:
                            gate = g
            if gate > cycle:
                self._gate_wakeup(gate, station)
                continue
            if obs_on and station.wakeup_cycle < 0:
                station.wakeup_cycle = cycle
                self._trc_mark(
                    cycle, station.rec.seq, station.sid, "wakeup",
                    operand_state_labels(station),
                )
            # Native-comparing key tuple (sid is unique, so the
            # trailing station is never compared) — same total order
            # as selection_key without a key-function call per sort
            # comparison; a zero term mask drops that term for the
            # policy.
            candidates.append((
                station.sel_priority & prio_term,
                station.in_spec & spec_term,
                station.sid,
                station,
            ))
        if not candidates:
            return
        candidates.sort()
        for entry in candidates[width:]:
            overflow = entry[3]
            pool[overflow.sid] = overflow
        del candidates[width:]
        # Start execution for the selected group: the events dict and
        # counters are hoisted across the whole group and the issued/
        # speculative/reissue counters flush once.  (The walk above left
        # every candidate's operand summary fresh.)
        events = self._events
        counters = self.counters
        n_spec = 0
        n_reissue = 0
        for entry in candidates:
            station = entry[3]
            rec = station.rec
            station.issued = True
            station.executing = True
            if station.in_spec:
                n_spec += 1
            if station.exec_count > 0:
                n_reissue += 1
            when = cycle + rec.exec_latency
            bucket = events.get(when)
            if bucket is None:
                bucket = events[when] = []
            if rec.is_load:
                # Two-phase memory operation: address generation now; the
                # access starts when the address is valid (and
                # disambiguated).
                bucket.append((_ADDRGEN, station, station.epoch))
            else:
                bucket.append((_RESULT, station, station.epoch))
            if obs_on and not station.wrong_path:
                self._obs_issue(station, cycle)
        counters.issued += len(candidates)
        if n_spec:
            counters.issued_speculative += n_spec
        if n_reissue:
            counters.reissues += n_reissue

    def _drain_waiting_access(self) -> None:
        """Retry pending load accesses (they issued already; only cache
        ports, the valid-address gate and store disambiguation hold them)."""
        if not self._waiting_access:
            return
        still_waiting: list[tuple[Station, int]] = []
        for station, epoch in self._waiting_access:
            if station.epoch != epoch or station.retired:
                continue
            if not self._try_load_access(station):
                still_waiting.append((station, epoch))
        self._waiting_access = still_waiting

    def _try_load_access(self, station: Station) -> bool:
        """Attempt the memory-access half of a load; True when started."""
        rec = station.rec
        cycle = self.cycle
        if self._mem_valid_only:
            # station.inputs_valid, decomposed (property call avoided on
            # the per-cycle load-retry path).
            if station.in_dirty:
                station.refresh_inputs()
            if not station.in_usable or station.in_taint_union:
                return False
            # Verification-Address–Memory-Access gate: the issue gate and
            # each network-verified operand's valid cycle plus the
            # latency (zero-latency terms can never fire because
            # valid_cycle is always a past or present cycle).
            if cycle < station.min_issue_cycle:
                return False
            lat_vm = self._lat_verify_mem
            if lat_vm:
                for operand in station.operands:
                    if (
                        operand.via_network
                        and cycle < operand.valid_cycle + lat_vm
                    ):
                        return False
        elif not station.inputs_usable:
            return False
        if not station.wrong_path:
            if not self.lsq.prior_store_addresses_known(station.sid):
                return False
            if self.lsq.overlapping_older_store(
                station.sid, rec.mem_addr, rec.mem_size
            ):
                return False
        if not self.dports.try_acquire(cycle):
            self.counters.dcache_port_conflicts += 1
            return False
        when = cycle + self._load_access_latency(station)
        events = self._events
        bucket = events.get(when)
        if bucket is None:
            bucket = events[when] = []
        bucket.append((_RESULT, station, station.epoch))
        if self._obs_on and not station.wrong_path:
            self._obs_mem_access(station, cycle)
        return True

    def _on_addrgen(self, station: Station, cycle: int) -> None:
        """A load's address generation completed; start (or queue) the
        memory access."""
        if not self._try_load_access(station):
            self._waiting_access.append((station, station.epoch))

    def _load_access_latency(self, station: Station) -> int:
        rec = station.rec
        if station.wrong_path:
            return self.hierarchy.data_access(rec.mem_addr, is_write=False)
        forwarder = self.lsq.find_forwarder(station.sid, rec.mem_addr, rec.mem_size)
        if forwarder is not None:
            self.counters.store_forwards += 1
            return 1  # single-cycle store-to-load forwarding
        return self.hierarchy.data_access(rec.mem_addr, is_write=False)

    # ------------------------------------------------------------------
    # event processing
    # ------------------------------------------------------------------

    def _process_events(self) -> None:
        """Drain this cycle's event bucket (repeatedly: a zero-latency
        chain may schedule follow-up events into the same cycle, which
        land in a fresh bucket and fire after the current batch — the
        order the heap's schedule-counter tiebreak used to produce)."""
        events = self._events
        cycle = self.cycle
        handlers = self._event_handlers
        while True:
            bucket = events.pop(cycle, None)
            if bucket is None:
                return
            for entry in bucket:
                kind, station = entry[0], entry[1]
                epoch = entry[2]
                if kind < _WAVE_VERIFY or kind == _ADDRGEN:
                    if station.epoch != epoch or station.retired:
                        continue
                    handlers[kind](self, station, cycle)
                else:
                    # Wave / provisional-invalidate transactions outlive
                    # nullification of their source: waves may ripple after
                    # the source retires, and a provisional invalidation
                    # must fire even if the source was itself just
                    # invalidated (the paper's Figure 1 packs both into one
                    # cycle).  A squash still kills them: squashed stations
                    # are marked retired with a bumped epoch, and their
                    # consumers died with them.
                    if station.retired and station.epoch != epoch:
                        continue
                    if kind == _PROV_INVALIDATE:
                        self._on_provisional_invalidate(station, cycle)
                    else:
                        self._on_wave(
                            station,
                            cycle,
                            entry[3],
                            invalidate=kind == _WAVE_INVALIDATE,
                        )

    def _on_result(self, station: Station, cycle: int) -> None:
        # Operand *status* may have improved during execution (verification
        # transactions clear taints in place); operand *values* cannot have
        # changed without a nullification, which bumps the epoch and voids
        # this event.  The result's speculation state is therefore the
        # operands' current state.
        if station.in_dirty:
            # Station.refresh_inputs, inlined (kept in lockstep with
            # window/station.py) — every result event reads the summary.
            usable = correct = True
            union = 0
            spec = False
            for op in station.operands:
                if op.ready:
                    t = op.taints
                    if t:
                        union |= t
                        spec = True
                    if not op.correct:
                        correct = False
                else:
                    usable = False
                    correct = False
            station.in_usable = usable
            station.in_taint_union = union
            station.in_correct = correct
            station.in_spec = spec
            station.in_dirty = False
            taints = union
            valid = usable and not taints
        else:
            # Unready operands always carry an empty taint mask, so the
            # cached ready-operand taint union is the full input union.
            taints = station.in_taint_union
            valid = station.in_usable and not taints
            correct = station.in_correct
        station.executing = False
        station.executed = True
        station.exec_count += 1
        station.result_cycle = cycle
        rec = station.rec

        live_prediction = (
            station.predicted
            and not station.prediction_resolved
            and not station.prediction_muted
        )
        if live_prediction:
            # Consumers keep the prediction broadcast (tainted only by this
            # station's own unresolved prediction).  The equality comparator
            # fires on every writeback: with valid inputs the outcome is
            # final; with speculative inputs a mismatch provisionally mutes
            # the prediction and invalidates its consumers (the paper's
            # Figure 1 detects instruction 2's misprediction from its
            # wrong-input execution).
            station.spec_equal = correct and station.pred_correct
            station.exec_taints = taints
            if valid:
                when = cycle + self._lat_exec_eq
                events = self._events
                bucket = events.get(when)
                if bucket is None:
                    bucket = events[when] = []
                bucket.append((_EQUALITY, station, station.epoch))
            elif not station.spec_equal:
                self._schedule(
                    cycle
                    + self._lat_exec_eq
                    + self._lat_eq_inval,
                    _PROV_INVALIDATE,
                    station,
                )
        else:
            station.out_ready = True
            station.out_taints = taints
            station.out_correct = correct
            station.exec_taints = taints
            if not taints:
                station.out_valid_cycle = cycle
            self._broadcast(station, cycle)
            if (
                station.predicted
                and not station.prediction_resolved
                and valid
            ):
                # Muted prediction: final equality still needed for the
                # retirement gate and predictor bookkeeping.
                when = cycle + self._lat_exec_eq
                events = self._events
                bucket = events.get(when)
                if bucket is None:
                    bucket = events[when] = []
                bucket.append((_EQUALITY, station, station.epoch))

        if rec.is_store and not station.wrong_path and valid:
            self.lsq.set_address(station.sid, rec.mem_addr, rec.mem_size)
            self.lsq.set_store_data_ready(station.sid)
        if (
            station.branch_mispredicted
            and not station.wrong_path
            and valid
        ):
            self._resolve_mispredicted_branch(station, cycle)
        if self._obs_on and not station.wrong_path:
            self._trc_mark(
                cycle, rec.seq, station.sid, "result",
                "valid" if valid else "speculative",
            )

    def _broadcast(self, station: Station, cycle: int) -> None:
        """Deliver the current (non-prediction) output to all consumers."""
        out_taints = station.out_taints
        out_correct = station.out_correct
        pool = self._ready_pool
        for consumer, op_index in station.consumers:
            if consumer.retired:
                continue
            # Operand.deliver(via_network=False), inlined: broadcast is the
            # hottest transaction in the machine.
            operand = consumer.operands[op_index]
            operand.ready = True
            operand.taints = out_taints
            operand.correct = out_correct
            operand.from_prediction = False
            if not out_taints:
                operand.valid_cycle = cycle
                operand.via_network = False
            consumer.in_dirty = True
            if not consumer.issued:
                pool[consumer.sid] = consumer

    # -- equality / verification / invalidation -------------------------

    def _on_equality(self, station: Station, cycle: int) -> None:
        if station.prediction_resolved:
            return
        station.equality_cycle = cycle
        if self._obs_on:
            rec = station.rec
            self._trc_mark(
                cycle, rec.seq, station.sid, "equality",
                "match" if station.pred_correct else "mismatch",
            )
            self._trc_lat(
                LatencyEventKind.EXEC_EQUALITY,
                rec.seq,
                station.sid,
                station.result_cycle,
                cycle,
                rec.opcode.mnemonic,
            )
        if station.pred_correct:
            self._schedule(
                cycle + self._lat_eq_verify, _VERIFY, station
            )
        else:
            self._schedule(
                cycle + self._lat_eq_inval, _INVALIDATE, station
            )

    def _consumer_closure(self, roots: list[Station]) -> list[Station]:
        """All in-flight stations reachable through consumer edges.

        Dedup is by visit stamp — one int compare/store per edge against
        a monotonically increasing walk id — instead of a ``set`` of
        sids, so a closure walk allocates nothing but its output list.
        """
        stamp = self._stamp + 1
        self._stamp = stamp
        out: list[Station] = []
        frontier = list(roots)
        for station in frontier:
            station.stamp = stamp
        frontier_pop = frontier.pop
        frontier_append = frontier.append
        while frontier:
            current = frontier_pop()
            for consumer, __ in current.consumers:
                if consumer.stamp == stamp:
                    continue
                consumer.stamp = stamp
                if consumer.retired:
                    continue
                out.append(consumer)
                frontier_append(consumer)
        return out

    def _on_verify(self, source: Station, cycle: int) -> None:
        if source.prediction_resolved:
            return
        self._verify_impl(self, source, cycle)

    def _resolve_correct(self, station: Station, cycle: int) -> None:
        station.prediction_resolved = True
        station.verify_cycle = cycle
        station.out_taints &= ~station.taint_mask
        station.out_correct = True
        if not station.out_taints:
            station.out_valid_cycle = cycle
        self.counters.verification_events += 1
        if self._obs_on:
            rec = station.rec
            self._trc_mark(cycle, rec.seq, station.sid, "verify")
            # Chain-resolved predictions fold into the source's
            # transaction (equality_cycle 0 → a same-cycle sample).
            self._trc_lat(
                LatencyEventKind.EQUALITY_VERIFICATION,
                rec.seq,
                station.sid,
                station.equality_cycle or cycle,
                cycle,
                rec.opcode.mnemonic,
            )

    def _verify_parallel(self, source: Station, cycle: int) -> None:
        """Flattened-hierarchical verification: one transaction validates
        the full dependence closure, folding in chained predictions whose
        speculative equality comparisons already succeeded."""
        resolved: list[Station] = [source]
        resolved_mask = source.taint_mask
        self._resolve_correct(source, cycle)
        # Transitively resolve chained predictions.  The closure is only
        # recomputed after a pass that grew the resolved set, and the final
        # one (always computed for the final root set) is handed to
        # ``_clear_taints`` so it is walked, not rebuilt.
        closure = self._consumer_closure(resolved)
        changed = True
        while changed:
            changed = False
            for candidate in closure:
                if (
                    candidate.predicted
                    and not candidate.prediction_resolved
                    and candidate.executed
                    and not candidate.executing
                ):
                    exec_taints = candidate.exec_taints
                    if exec_taints and not (exec_taints & ~resolved_mask):
                        if candidate.spec_equal:
                            self._resolve_correct(candidate, cycle)
                            resolved.append(candidate)
                            resolved_mask |= candidate.taint_mask
                            changed = True
                        else:
                            candidate.equality_cycle = cycle
                            self._schedule(
                                cycle + self._lat_eq_inval,
                                _INVALIDATE,
                                candidate,
                            )
                            # Guard double scheduling.
                            candidate.prediction_resolved = True
                            candidate.verify_cycle = (
                                cycle + self._lat_eq_inval
                            )
            if changed:
                closure = self._consumer_closure(resolved)
        self._clear_taints(resolved, resolved_mask, cycle, closure)

    def _clear_taints(
        self,
        resolved: list[Station],
        resolved_mask: int,
        cycle: int,
        closure: list[Station] | None = None,
    ) -> None:
        """Remove resolved sources from every reachable taint set (the
        resolved stations themselves included: a chain-resolved station's
        operands are tainted by its resolved predecessors).  ``closure``
        lets callers that already walked ``_consumer_closure(resolved)``
        pass it in instead of having it recomputed."""
        if closure is None:
            closure = self._consumer_closure(resolved)
        keep = ~resolved_mask
        chain_eq = self._chain_equality
        ready_pool = self._ready_pool
        for station in resolved + closure:
            touched = False
            for operand in station.operands:
                if operand.taints & resolved_mask:
                    operand.taints &= keep
                    touched = True
                    if operand.ready and not operand.taints:
                        operand.valid_cycle = cycle
                        operand.via_network = True
            if station.out_taints & resolved_mask:
                station.out_taints &= keep
                if (
                    station.out_ready
                    and not station.out_taints
                    and not (
                        station.predicted
                        and not station.prediction_resolved
                        and not station.prediction_muted
                    )
                ):
                    station.out_valid_cycle = cycle
            if station.exec_taints:
                station.exec_taints &= keep
            if touched:
                station.in_dirty = True
                # _mark_wakeup, inlined (hot re-arm path).
                if not station.issued and not station.retired:
                    ready_pool[station.sid] = station
            # Each ``_maybe_*`` helper opens with a cheap attribute test
            # that fails for almost every closure station; run those tests
            # inline so the common case costs a branch, not a call.
            if station.rec.is_store:
                self._maybe_publish_store_address(station)
            if station.branch_mispredicted:
                self._maybe_resolve_branch(station, cycle)
            if chain_eq and station.predicted and not station.prediction_resolved:
                self._maybe_chain_equality(station, cycle)

    def _maybe_resolve_branch(self, station: Station, cycle: int) -> None:
        """A mispredicted branch that executed speculatively (resolution
        policy permitting) resolves once its operands prove valid — the
        computed outcome is then trustworthy and fetch can redirect."""
        if (
            station.branch_mispredicted
            and not station.wrong_path
            and station.executed
            and not station.executing
            and station.inputs_valid
        ):
            self._resolve_mispredicted_branch(station, cycle)

    def _maybe_publish_store_address(self, station: Station) -> None:
        """A store whose address generation ran speculatively publishes its
        address to the LSQ once the operands prove valid."""
        if (
            station.rec.is_store
            and not station.wrong_path
            and station.executed
            and station.inputs_valid
        ):
            entry = self.lsq.get(station.sid)
            if entry is not None and entry.address is None:
                self.lsq.set_address(
                    station.sid, station.rec.mem_addr, station.rec.mem_size
                )
                self.lsq.set_store_data_ready(station.sid)

    def _maybe_chain_equality(self, station: Station, cycle: int) -> None:
        """Under non-flattened schemes a predicted instruction whose inputs
        just became valid resolves through a fresh equality event."""
        if (
            self.variables.verification is not VerificationScheme.PARALLEL_NETWORK
            and station.predicted
            and not station.prediction_resolved
            and station.executed
            and not station.executing
            and station.inputs_valid
        ):
            self._schedule(
                cycle + self._lat_exec_eq, _EQUALITY, station
            )

    def _verify_hierarchical(self, source: Station, cycle: int) -> None:
        """One dependence level per transaction (per cycle).  Frontiers are
        recomputed when each wave fires so consumers that captured a
        tainted value after the transaction started are still reached."""
        self._resolve_correct(source, cycle)
        self._schedule_wave(
            cycle, _WAVE_VERIFY, source, [s for s, __ in source.consumers]
        )

    def _on_wave(
        self, source: Station, cycle: int, wave: list[Station], *, invalidate: bool
    ) -> None:
        """One hierarchical (in)validation transaction: handle the current
        frontier, then schedule the next dependence level one cycle later.
        The next frontier is the frontier's current consumers, computed at
        fire time so late captures of tainted values are still covered."""
        stations = [s for s in wave if not s.retired]
        mask = source.taint_mask
        keep = ~mask
        next_frontier: set[Station] = set()

        def extend_frontier(station: Station) -> None:
            for consumer, __ in station.consumers:
                next_frontier.add(consumer)

        if invalidate:
            affected = []
            for station in stations:
                carried = (
                    any(mask & op.taints for op in station.operands)
                    or mask & station.out_taints
                    or mask & station.exec_taints
                )
                if carried:
                    affected.append(station)
                    extend_frontier(station)
            self._apply_invalidation(source, affected, cycle)
        else:
            for station in stations:
                touched = False
                for operand in station.operands:
                    if operand.taints & mask:
                        operand.taints &= keep
                        touched = True
                        if operand.ready and not operand.taints:
                            operand.valid_cycle = cycle
                            operand.via_network = True
                if station.out_taints & mask:
                    station.out_taints &= keep
                    touched = True
                    if (
                        station.out_ready
                        and not station.out_taints
                        and not (
                            station.predicted
                            and not station.prediction_resolved
                            and not station.prediction_muted
                        )
                    ):
                        station.out_valid_cycle = cycle
                if station.exec_taints & mask:
                    station.exec_taints &= keep
                    touched = True
                if touched:
                    station.in_dirty = True
                    self._mark_wakeup(station)
                    extend_frontier(station)
                    self._maybe_publish_store_address(station)
                    self._maybe_resolve_branch(station, cycle)
                    self._maybe_chain_equality(station, cycle)
        if next_frontier:
            kind = _WAVE_INVALIDATE if invalidate else _WAVE_VERIFY
            self._schedule_wave(
                cycle + 1,
                kind,
                source,
                sorted(next_frontier, key=lambda s: s.sid),
            )

    def _verify_retirement_based(self, source: Station, cycle: int) -> None:
        """Resolution is known (EQ comparator fired); propagation to
        successors happens only through the retirement window (and, for
        HYBRID, additionally through hierarchical broadcast)."""
        self._resolve_correct(source, cycle)
        self._retire_verified |= source.taint_mask
        if self.variables.verification is VerificationScheme.HYBRID:
            self._schedule_wave(
                cycle + 1, _WAVE_VERIFY, source, [s for s, __ in source.consumers]
            )

    def _retirement_based_validate(self) -> None:
        """Per-cycle retirement-window validation pass (Section 3.2's
        retirement-based scheme: only the w oldest instructions can be
        validated each cycle)."""
        unverified = ~self._retire_verified
        for station in self.window.oldest(self.config.retire_width):
            changed = False
            for operand in station.operands:
                if operand.ready and operand.taints:
                    if not (operand.taints & unverified):
                        operand.taints = 0
                        operand.valid_cycle = self.cycle
                        operand.via_network = True
                        changed = True
            if (
                station.out_taints
                and (station.prediction_resolved or not station.predicted)
                and not (station.out_taints & unverified)
            ):
                station.out_taints = 0
                if station.out_ready:
                    station.out_valid_cycle = self.cycle
            if changed:
                station.in_dirty = True
                self._mark_wakeup(station)
                self._maybe_publish_store_address(station)
                self._maybe_resolve_branch(station, self.cycle)
                self._maybe_chain_equality(station, self.cycle)

    def _on_provisional_invalidate(self, source: Station, cycle: int) -> None:
        """A speculative-input execution of a predicted instruction
        mismatched its prediction.  The outcome is not final (the inputs
        were themselves unverified), but the paper's design acts on it:
        the prediction is muted, its consumers are invalidated, and the
        station broadcasts computed results from now on.  Final equality
        still happens at the first valid-input execution (or through chain
        resolution), restoring correctness bookkeeping either way."""
        if source.prediction_resolved or source.prediction_muted:
            return
        if source.retired:
            return
        source.prediction_muted = True
        self.counters.provisional_invalidations += 1
        obs_on = self._obs_on
        if obs_on:
            self._trc_mark(
                cycle, source.rec.seq, source.sid, "invalidate", "provisional"
            )
        reissue_at = cycle + self._lat_inval_reissue
        mask = source.taint_mask
        for station in self._consumer_closure([source]):
            touched = False
            for operand in station.operands:
                if mask & operand.taints:
                    operand.reset_pending()
                    touched = True
            if not touched:
                continue
            station.in_dirty = True
            if station.issued or station.executing or station.executed:
                station.nullify(reissue_at)
                if station.rec.is_memory and not station.wrong_path:
                    if self.lsq.get(station.sid) is not None:
                        self.lsq.clear_address(station.sid)
                if obs_on and not station.wrong_path:
                    self._obs_invalidated(station, cycle)
            self._mark_wakeup(station)
        # Re-expose the station's latest computed result (if any still
        # stands) so consumers wait on real dataflow from here on.
        if source.executed and not source.executing:
            source.out_ready = True
            source.out_taints = source.exec_taints
            source.out_correct = source.inputs_correct
            self._broadcast(source, cycle)
        else:
            source.out_ready = False
            source.out_taints = 0

    def _on_invalidate(self, source: Station, cycle: int) -> None:
        source.prediction_resolved = True
        source.verify_cycle = cycle
        # The source executed with valid inputs: its exec result is the
        # architecturally correct value, delivered with the invalidation.
        source.out_ready = True
        source.out_taints = 0
        source.out_correct = True
        source.out_valid_cycle = cycle
        self.counters.invalidation_events += 1
        if self._obs_on:
            rec = source.rec
            self._trc_mark(cycle, rec.seq, source.sid, "invalidate", "source")
            self._trc_lat(
                LatencyEventKind.EQUALITY_INVALIDATION,
                rec.seq,
                source.sid,
                source.equality_cycle or cycle,
                cycle,
                rec.opcode.mnemonic,
            )

        if self.variables.invalidation is InvalidationScheme.COMPLETE:
            self._complete_invalidation(source, cycle)
            return
        if self.variables.invalidation is InvalidationScheme.SELECTIVE_PARALLEL:
            closure = self._consumer_closure([source])
            self._apply_invalidation(source, closure, cycle)
        else:  # SELECTIVE_HIERARCHICAL
            self._schedule_wave(
                cycle, _WAVE_INVALIDATE, source, [s for s, __ in source.consumers]
            )

    def _apply_invalidation(
        self, source: Station, affected: list[Station], cycle: int
    ) -> None:
        """Selective invalidation of everything tainted by ``source``."""
        sid = source.sid
        mask = source.taint_mask
        reissue_at = cycle + self._lat_inval_reissue
        obs_on = self._obs_on
        for station in affected:
            touched = False
            for operand in station.operands:
                if mask & operand.taints:
                    if operand.producer_sid == sid:
                        operand.deliver(
                            taints=source.out_taints,
                            correct=True,
                            cycle=cycle,
                            from_prediction=False,
                            via_network=True,
                        )
                    else:
                        operand.reset_pending()
                    touched = True
            if not touched:
                continue
            station.in_dirty = True
            if station.issued or station.executing or station.executed:
                station.nullify(reissue_at)
                if station.rec.is_memory and not station.wrong_path:
                    entry = self.lsq.get(station.sid)
                    if entry is not None:
                        self.lsq.clear_address(station.sid)
                if obs_on and not station.wrong_path:
                    self._obs_invalidated(station, cycle)
            self._mark_wakeup(station)

    def _complete_invalidation(self, source: Station, cycle: int) -> None:
        """Treat the value misprediction like a branch misprediction
        (Section 3.1): squash everything younger and refetch."""
        self._squash_younger(source.sid)
        self._fetch_queue.clear()
        self.fetch_engine.rewind_to(
            source.rec.seq + 1, cycle, penalty=self.config.redirect_penalty
        )
        self._pending_branch = None

    # ------------------------------------------------------------------
    # branches
    # ------------------------------------------------------------------

    def _resolve_mispredicted_branch(self, branch: Station, cycle: int) -> None:
        self._squash_younger(branch.sid)
        self._fetch_queue.clear()
        self.fetch_engine.redirect(cycle, penalty=self.config.redirect_penalty)
        if self._pending_branch is branch:
            self._pending_branch = None
        branch.branch_mispredicted = False  # resolved; don't squash again

    def _squash_younger(self, sid: int) -> None:
        removed = self.window.squash_younger_than(sid)
        pool = self._ready_pool
        obs_on = self._obs_on
        last_writer = self._last_writer
        # ``removed`` is youngest-first, so unwinding the last-writer
        # table cascades correctly through runs of squashed writers: each
        # entry restores its predecessor, which (if also squashed) is
        # restored in a later iteration.
        for station in removed:
            station.epoch += 1
            station.retired = True  # dead: events and broadcasts skip it
            pool.pop(station.sid, None)
            rec = station.rec
            if obs_on and not station.wrong_path:
                self._trc_mark(self.cycle, rec.seq, station.sid, "squash")
            if rec.writes_register and last_writer[rec.dest_reg] == station.sid:
                last_writer[rec.dest_reg] = station.prev_writer
            pending = station.pending_train
            if pending is not None:
                station.pending_train = None
                # The speculative history entry for this prediction will
                # never be reconciled at retirement; drop the PC's
                # speculative history wholesale.
                self.predictor.flush_speculative(pending[0])
        self.lsq.squash_after(sid)
        self.counters.squashed += len(removed)
        if self._pending_branch is not None and self._pending_branch.sid > sid:
            self._pending_branch = None

    # ------------------------------------------------------------------
    # retire
    # ------------------------------------------------------------------

    def _retire(self) -> None:
        """Retire completed head instructions (helpers inlined: the
        finality/release-delay computation and the per-station release
        bookkeeping run once per retirement attempt, so they live in the
        loop body with every ``self`` lookup hoisted)."""
        if self._rb_validate:
            self._retirement_based_validate()
        win = self._win
        # Most calls retire nothing (the head is wrong-path or still in
        # flight); bail on those three attribute reads before hoisting the
        # dozen locals the retirement loop wants.
        head = next(iter(win.values()))
        if head.wrong_path or not head.executed or head.executing:
            return
        retired = 0
        cycle = self.cycle
        retire_width = self._retire_width
        model_on = self._model_on
        release_spec = self._lat_release_spec
        pool = self._ready_pool
        counters = self.counters
        obs_on = self._obs_on
        lsq = self.lsq
        # One bounded snapshot of the window head replaces a fresh
        # ``next(iter(...))`` per retirement (we delete exactly the heads
        # we iterate, in order, so the snapshot stays the live head run).
        for head in list(_islice(win.values(), retire_width)):
            if head.wrong_path:
                break
            if not head.executed or head.executing:
                break
            if head.in_dirty:
                head.refresh_inputs()
            if not head.in_usable or head.in_taint_union:
                break
            predicted = head.predicted
            if predicted and not head.prediction_resolved:
                break
            rec = head.rec
            writes = rec.writes_register
            if writes and head.out_taints:
                break
            # Finality cycle and speculation involvement, one operand walk.
            final = head.result_cycle
            spec_involved = predicted
            for operand in head.operands:
                if operand.valid_cycle > final:
                    final = operand.valid_cycle
                if operand.via_network:
                    spec_involved = True
            if predicted and head.verify_cycle > final:
                final = head.verify_cycle
            if writes and head.out_valid_cycle > final:
                final = head.out_valid_cycle
            delay = release_spec if (model_on and spec_involved) else 1
            if cycle < final + delay:
                # The head is done and waiting out its delay; nothing can
                # move ``final`` any more (its operands are valid, so taint
                # clears no longer touch them), so retirement attempts
                # before then are pure overhead.
                if not self._rb_validate:
                    self._retire_gate = final + delay
                break
            # Release the head (the seed's _retire_one, inlined).
            sid = head.sid
            del win[sid]
            head.retired = True
            pool.pop(sid, None)
            if rec.is_memory:
                # Only correct-path memory instructions ever allocate an
                # LSQ entry (and the head is never wrong-path here).
                if rec.is_store:
                    self.hierarchy.data_access(rec.mem_addr, is_write=True)
                lsq.release(sid)
            # The last-writer table needs no retire-side maintenance: a
            # stale entry is filtered by dispatch's window lookup, and a
            # retired newest writer implies every older writer of that
            # register retired before it (retirement is in order).
            pending = head.pending_train
            if pending is not None:
                pc, actual, pred_correct, token, fold16 = pending
                self._vp_train(pc, actual, token, fold16)
                self._conf_update(pc, pred_correct)
            if obs_on:
                self._obs_retire(head, cycle, final, spec_involved)
            retired += 1
        if retired:
            counters.retired += retired
            self._last_retire_cycle = cycle
