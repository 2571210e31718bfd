"""Batched multi-config execution: N sweep points per trace pass.

A sweep grid is many configurations of one machine over one instruction
stream.  The scalar path pays the whole front end — trace walk, branch
predictor training, misprediction discovery — once per point.  This
module pays it once per *batch*: the correct-path fetch stream (which
record is fetched, and whether it mispredicts) is a pure function of
(trace, frontend configuration) and independent of per-lane timing, so
one recorded stream feeds every lane that shares the frontend key.

Why that is sound (the bit-identity argument, pinned by
``tests/test_batched.py`` against every golden snapshot):

* The branch predictor, BTB and RAS are trained only on correct-path
  records, in trace order — ``fetch_raw`` never shows them a wrong-path
  record, and wrong-path branches never redirect.  Their state evolution
  is therefore identical for every lane, whatever each lane's timing.
* The I-cache affects *when* fetch stalls, never *which* correct-path
  record comes next — so I-cache state stays per-lane while the stream
  is shared.
* The one exception is ``InvalidationScheme.COMPLETE``, whose
  value-misprediction recovery rewinds fetch and re-trains the branch
  predictor on re-walked records; the batch planner routes such jobs to
  the scalar path (:func:`batch_compatible`).

On top of the shared stream, immediate-update-timing lanes replay
recorded value-prediction columns (:mod:`repro.vp.replay`): under I
timing with unlimited predictor ports the predict/train interleaving is
also trace-pure, so the (predicted value, confident) columns are
recorded once per predictor/confidence key and shared.

State layout is struct-of-arrays at the batch level: the shared columns
(trace rows, mispredict flags as a compact byte column, predicted-value
lists, confidence byte columns) are read-only and shared across lanes;
everything mutable (window, taint masks, caches, event buckets) lives in
the ordinary per-lane :class:`~repro.engine.pipeline.PipelineSimulator`,
which is what keeps lanes bit-identical to scalar runs by construction.
"""

from __future__ import annotations

import weakref
from functools import partial

from repro.core.variables import InvalidationScheme
from repro.engine.pipeline import _make_bpred
from repro.engine.sim import (
    SimulationResult,
    make_confidence,
    run_baseline,
    run_trace,
)
from repro.frontend.fetch import FetchEngine, _WrongPathGenerator, _wrong_path_cache
from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.mem.hierarchy import make_paper_hierarchy
from repro.vp.oracle import OracleConfidence
from repro.vp.replay import (
    ReplayConfidence,
    ReplayValuePredictor,
    eligible_records,
    record_confidence,
    record_predictions,
)


def frontend_key(config) -> tuple:
    """The configuration fields that determine the correct-path fetch
    stream.  Two lanes with equal keys share one recorded stream; the
    I-cache and wrong-path settings are deliberately absent (both are
    per-lane timing, not stream content)."""
    return (
        config.branch_predictor,
        config.branch_history_bits,
        config.branch_table_bits,
        config.perfect_branches,
        config.ideal_branch_targets,
    )


def build_fetch_stream(rows, config) -> bytearray:
    """Record the mispredict flag per correct-path record.

    Replays exactly the correct-path half of
    :meth:`~repro.frontend.fetch.FetchEngine.fetch_raw` — including its
    short-circuits, which matter: a direction-mispredicted branch never
    consults (or trains) the BTB, and under ideal targets the BTB/RAS
    are never consulted at all.  The golden bit-identity suite pins the
    lockstep.
    """
    bpred = None if config.perfect_branches else _make_bpred(config)
    btb = ras = None
    if not config.ideal_branch_targets:
        from repro.frontend.btb import BranchTargetBuffer
        from repro.frontend.ras import ReturnAddressStack

        btb = BranchTargetBuffer()
        ras = ReturnAddressStack()
    # Borrow FetchEngine's own _target_correct so the target-prediction
    # path has exactly one implementation.
    probe = FetchEngine(
        [],
        None,
        bpred,
        model_wrong_path=config.model_wrong_path,
        ideal_branch_targets=config.ideal_branch_targets,
        btb=btb,
        ras=ras,
    )
    target_correct = probe._target_correct
    ideal_targets = config.ideal_branch_targets
    bp_update = bpred.update if bpred is not None else None
    stream = bytearray(len(rows))
    for i, rec in enumerate(rows):
        if rec.is_branch:
            direction_ok = (
                bp_update(rec.pc, bool(rec.branch_taken))
                if bp_update is not None
                else True
            )
            mispredicted = not direction_ok or not (
                ideal_targets or target_correct(rec)
            )
        elif rec.is_control:
            if ras is not None and rec.opcode in (Opcode.JAL, Opcode.JALR):
                ras.push(rec.pc + INSTRUCTION_BYTES)
            mispredicted = not (ideal_targets or target_correct(rec))
        else:
            continue
        if mispredicted:
            stream[i] = 1
    return stream


def build_fetch_columns(rows, stream, block_bytes: int):
    """The derived shared columns the segmented fetch replay runs on.

    ``run_end[i]`` — end of the I-cache block run starting at ``i``: the
    first index past ``i`` whose record lives in a different block (the
    whole trace when caches are absent, ``block_bytes == 0``).
    ``next_mis[i]`` — the first index ``>= i`` whose record mispredicts
    (``len(rows)`` when none does).  Both are pure functions of the rows
    and the recorded stream, so every lane sharing the stream shares
    them.
    """
    n = len(rows)
    run_end = [n] * n
    if block_bytes:
        run_end = [0] * n
        blocks = [rec.pc // block_bytes for rec in rows]
        j = 0
        while j < n:
            block = blocks[j]
            k = j + 1
            while k < n and blocks[k] == block:
                k += 1
            run_end[j:k] = [k] * (k - j)
            j = k
    next_mis = [n] * n
    nm = n
    for i in range(n - 1, -1, -1):
        if stream[i]:
            nm = i
        next_mis[i] = nm
    return run_end, next_mis


class StreamFetchEngine(FetchEngine):
    """A :class:`FetchEngine` that replays a recorded mispredict stream
    instead of consulting live branch-prediction state.

    Per-lane timing state — I-cache, stall cycles, wrong-path synthesis,
    redirects — is inherited unchanged; only the prediction *content*
    comes from the shared columns.  Replay consumes the trace in
    I-cache-block runs: one icache probe per block run, then a C-level
    slice for the records inside it (the per-record Python loop the
    scalar engine pays is exactly the cost batching amortizes away).
    ``rewind_to`` is forbidden (complete invalidation re-trains the
    branch predictor on re-walked records, which a shared stream cannot
    express); the batch planner keeps such models on the scalar path.
    """

    def __init__(
        self,
        rows,
        stream,
        icache,
        *,
        model_wrong_path=True,
        seed=7,
        columns=None,
    ):
        super().__init__(
            rows,
            icache,
            None,
            model_wrong_path=model_wrong_path,
            ideal_branch_targets=True,
            btb=None,
            ras=None,
            seed=seed,
        )
        self._stream = stream
        block_bytes = icache.block_bytes if icache is not None else 0
        if columns is None:
            columns = build_fetch_columns(self.trace, stream, block_bytes)
        self._run_end, self._next_mis = columns

    def fetch_raw(self, cycle, max_count, ready=0):
        # Kept in lockstep with FetchEngine.fetch_raw (the golden
        # bit-identity suite pins it): identical per-record decisions,
        # taken a block run at a time.
        if cycle < self._stall_until or max_count <= 0:
            return []
        out = []
        trace = self.trace
        trace_len = len(trace)
        stream = self._stream
        run_end = self._run_end
        next_mis = self._next_mis
        icache = self.icache
        block_bytes = icache.block_bytes if icache is not None else 0
        icache_hit = icache.hit_latency if icache is not None else 0
        last_block = self._last_block
        index = self._index
        wrong_gen = self._wrong_path_gen
        n_correct = 0
        n_wrong = 0
        count = 0
        while count < max_count:
            if wrong_gen is not None:
                # Wrong-path replay: synthetic pcs are sequential, so the
                # block-run length is pure arithmetic; records already
                # memoized by the shared stream cache are delivered as a
                # slice, and only stream growth runs the generator.
                cache = wrong_gen._cache
                records = cache[0]
                pos = wrong_gen._pos
                if pos >= len(records):
                    rec = wrong_gen.next()
                    if icache is not None:
                        block = rec.pc // block_bytes
                        if block != last_block:
                            latency = icache.access(rec.pc)
                            last_block = block
                            if latency > icache_hit:
                                # The generator already consumed the
                                # record; the scalar engine drops it on a
                                # stall (never refetched) — same here.
                                self._stall_until = cycle + latency
                                self.icache_stall_cycles += (
                                    latency - icache_hit
                                )
                                break
                    out.append((rec, True, False, ready))
                    n_wrong += 1
                    count += 1
                    continue
                rec = records[pos]
                pc = rec.pc
                if icache is not None:
                    block = pc // block_bytes
                    if block != last_block:
                        latency = icache.access(pc)
                        last_block = block
                        if latency > icache_hit:
                            self._stall_until = cycle + latency
                            self.icache_stall_cycles += latency - icache_hit
                            # Match the scalar engine: the stalled record
                            # counts as consumed by the generator and is
                            # dropped, never refetched.
                            wrong_gen._pos = pos + 1
                            break
                    take = (
                        block_bytes - pc % block_bytes + INSTRUCTION_BYTES - 1
                    ) // INSTRUCTION_BYTES
                else:
                    take = max_count
                room = max_count - count
                if take > room:
                    take = room
                avail = len(records) - pos
                if take > avail:
                    take = avail
                if take == 1:
                    out.append((rec, True, False, ready))
                else:
                    out.extend(
                        [(r, True, False, ready)
                         for r in records[pos : pos + take]]
                    )
                wrong_gen._pos = pos + take
                n_wrong += take
                count += take
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
            # Consume the rest of this block run (or up to width /
            # the next mispredicting record) in one slice.
            end = run_end[index]
            limit = index + (max_count - count)
            if limit < end:
                end = limit
            nm = next_mis[index]
            if nm < end:
                end = nm
            if end > index:
                out.extend(
                    [(r, False, False, ready) for r in trace[index:end]]
                )
                n_correct += end - index
                count += end - index
                index = end
                continue
            # index is a mispredicting record inside the current run.
            index += 1
            out.append((rec, False, True, ready))
            n_correct += 1
            count += 1
            if self.model_wrong_path:
                wrong_gen = self._wrong_path_gen = _WrongPathGenerator(
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

    def rewind_to(self, seq, cycle, *, penalty=1):
        raise RuntimeError(
            "StreamFetchEngine cannot rewind: complete invalidation "
            "re-trains branch prediction and must run on the scalar path "
            "(the batch planner enforces this)"
        )


def batch_compatible(job) -> tuple[bool, str | None]:
    """Whether a job may join a shared-stream batch, and if not, why.

    Jobs that fail this check are executed on the scalar path by the
    planner (:func:`repro.harness.parallel.plan_units`), never errored.
    """
    model = job.model
    if (
        model is not None
        and model.variables.invalidation is InvalidationScheme.COMPLETE
    ):
        return False, "complete invalidation rewinds the shared fetch stream"
    return True, None


def _spec_key(obj) -> str:
    """A stable identity for a predictor/confidence factory spec, so two
    jobs carrying equal factories share one recorded column."""
    if obj is None:
        return "default"
    if isinstance(obj, str):
        return f"kind:{obj.strip().upper()}"
    if isinstance(obj, partial):
        inner = _spec_key(obj.func)
        kwargs = ",".join(f"{k}={v!r}" for k, v in sorted(obj.keywords.items()))
        return f"partial({inner},{obj.args!r},{kwargs})"
    name = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", None)
    if name is not None:
        return f"{getattr(obj, '__module__', '?')}.{name}"
    return None  # a pre-built instance: not shareable


def _timing_label(update_timing) -> str:
    return getattr(update_timing, "value", update_timing).strip().upper()


def _build_confidence(spec):
    return spec() if callable(spec) else make_confidence(spec)


class BatchPlan:
    """Shared read-only columns for one (trace, job group) batch."""

    def __init__(self, rows):
        self.rows = rows
        self._fetch_streams: dict[tuple, bytearray] = {}
        self._fetch_columns: dict[tuple, tuple] = {}
        self._eligibles: dict[str, list] = {}
        self._vp_values: dict[tuple, list] = {}
        self._conf_flags: dict[tuple, tuple[bytearray, str]] = {}

    def fetch_stream(self, config) -> bytearray:
        key = frontend_key(config)
        stream = self._fetch_streams.get(key)
        if stream is None:
            stream = self._fetch_streams[key] = build_fetch_stream(
                self.rows, config
            )
        return stream

    def fetch_columns(self, config, block_bytes: int) -> tuple:
        key = (frontend_key(config), block_bytes)
        columns = self._fetch_columns.get(key)
        if columns is None:
            columns = self._fetch_columns[key] = build_fetch_columns(
                self.rows, self.fetch_stream(config), block_bytes
            )
        return columns

    def eligibles(self, predict_classes: str) -> list:
        recs = self._eligibles.get(predict_classes)
        if recs is None:
            recs = self._eligibles[predict_classes] = eligible_records(
                self.rows, predict_classes
            )
        return recs

    def vp_columns(self, job):
        """(ReplayValuePredictor, ReplayConfidence, confidence_kind) for
        an immediate-timing lane, or ``None`` when the lane must run a
        live predictor (delayed timing, limited ports, or an
        unshareable spec)."""
        if job.model is None or _timing_label(job.update_timing) != "I":
            return None
        config = job.config
        if config.vp_ports:
            return None  # port arbitration is per-lane timing
        pred_key_part = _spec_key(job.predictor)
        conf_key_part = _spec_key(job.confidence)
        if pred_key_part is None or conf_key_part is None:
            return None  # pre-built instances cannot be shared
        eligibles = self.eligibles(config.predict_classes)
        pkey = (pred_key_part, config.predict_classes)
        values = self._vp_values.get(pkey)
        if values is None:
            from repro.vp.context import ContextValuePredictor

            predictor = (
                job.predictor() if job.predictor is not None
                else ContextValuePredictor()
            )
            values = self._vp_values[pkey] = record_predictions(
                eligibles, predictor
            )
        ckey = (conf_key_part, pkey, config.equality_ignore_low_bits)
        cached = self._conf_flags.get(ckey)
        if cached is None:
            estimator = _build_confidence(job.confidence)
            kind = "O" if isinstance(estimator, OracleConfidence) else "R"
            flags, codes = record_confidence(
                eligibles, values, estimator, config.equality_ignore_low_bits
            )
            cached = self._conf_flags[ckey] = (flags, codes, kind)
        flags, codes, kind = cached
        return ReplayValuePredictor(values, codes), ReplayConfidence(flags), kind


#: Recorded columns are pure functions of the trace rows, so plans are
#: reused across run_batch calls on the same trace object (sweeps and
#: cluster workers run many batches over one staged trace).  Keyed
#: weakly: dropping the trace drops its columns.
_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _plan_for(trace) -> BatchPlan:
    rows = trace.rows() if hasattr(trace, "rows") else trace
    try:
        plan = _PLAN_CACHE.get(trace)
        if plan is None or plan.rows is not rows:
            plan = _PLAN_CACHE[trace] = BatchPlan(rows)
        return plan
    except TypeError:  # unweakrefable trace (a plain list of records)
        return BatchPlan(rows)


def run_batch(jobs, trace) -> list[SimulationResult]:
    """Run a group of jobs sharing one trace as lockstep-free lanes over
    shared columns; results are positionally aligned with ``jobs`` and
    bit-identical to the scalar path.

    Every job must share (benchmark, trace) and pass
    :func:`batch_compatible` — the planner guarantees both.
    """
    plan = _plan_for(trace)
    return [_run_lane(job, plan) for job in jobs]


def _run_lane(job, plan: BatchPlan) -> SimulationResult:
    """One batch lane.  Lanes ride ``run_baseline``/``run_trace`` on the
    scalar engine; the result's engine path is relabelled so perf
    investigations can tell a batched lane from a scalar run."""
    result = _run_lane_inner(job, plan)
    result.engine_path = "batched"
    return result


def _run_lane_inner(job, plan: BatchPlan) -> SimulationResult:
    config = job.config
    hierarchy = make_paper_hierarchy(perfect=config.perfect_caches)
    l1i = hierarchy.l1i
    block_bytes = l1i.block_bytes if l1i is not None else 0
    engine = StreamFetchEngine(
        plan.rows,
        plan.fetch_stream(config),
        l1i,
        model_wrong_path=config.model_wrong_path,
        columns=plan.fetch_columns(config, block_bytes),
    )
    if job.model is None:
        return run_baseline(
            plan.rows, config, hierarchy=hierarchy, fetch_engine=engine
        )
    replay = plan.vp_columns(job)
    if replay is not None:
        predictor, confidence, kind = replay
        return run_trace(
            plan.rows,
            config,
            job.model,
            confidence=confidence,
            update_timing=job.update_timing,
            predictor=predictor,
            hierarchy=hierarchy,
            fetch_engine=engine,
            confidence_kind=kind,
        )
    confidence = job.confidence() if callable(job.confidence) else job.confidence
    predictor = job.predictor() if job.predictor is not None else None
    return run_trace(
        plan.rows,
        config,
        job.model,
        confidence=confidence,
        update_timing=job.update_timing,
        predictor=predictor,
        hierarchy=hierarchy,
        fetch_engine=engine,
    )
