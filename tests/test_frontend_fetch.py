"""Fetch engine tests: width, I-cache stalls, wrong path, redirect."""

import pytest

import repro.frontend.fetch as fetch_mod
from repro.frontend import FetchEngine, GsharePredictor
from repro.isa.opcodes import Opcode
from repro.mem.cache import Cache
from repro.trace import TraceRecord


def _linear_trace(n, start=0x1000):
    return [
        TraceRecord(i, start + 8 * i, Opcode.ADD, (4,), 8, i, next_pc=start + 8 * (i + 1))
        for i in range(n)
    ]


def _branch_record(seq, pc, taken, target):
    return TraceRecord(
        seq, pc, Opcode.BNE, (8,), branch_taken=taken,
        next_pc=target if taken else pc + 8,
    )


def test_fetch_respects_width():
    engine = FetchEngine(_linear_trace(20), None, None)
    batch = engine.fetch(0, 4)
    assert len(batch) == 4
    assert [f.rec.seq for f in batch] == [0, 1, 2, 3]


def test_fetch_exhaustion():
    engine = FetchEngine(_linear_trace(3), None, None)
    assert len(engine.fetch(0, 8)) == 3
    assert engine.exhausted
    assert engine.fetch(1, 8) == []


def test_icache_miss_stalls_fetch():
    icache = Cache("L1I", size_bytes=1024, block_bytes=32, assoc=1,
                   hit_latency=1, miss_latency=9)
    engine = FetchEngine(_linear_trace(8), icache, None)
    assert engine.fetch(0, 8) == []  # cold miss on the first block
    assert engine.fetch(5, 8) == []  # still stalled (latency 10)
    batch = engine.fetch(10, 8)
    assert len(batch) >= 1
    assert engine.icache_stall_cycles > 0


def test_correctly_predicted_branch_does_not_break_fetch():
    # Train gshare so the branch predicts correctly, then check the fetch
    # group crosses it (ideal fetch reads past predicted-taken branches).
    trace = []
    trace.append(_branch_record(0, 0x1000, False, 0))
    trace.extend(
        TraceRecord(i, 0x1008 + 8 * (i - 1), Opcode.ADD, (4,), 8, i,
                    next_pc=0x1010 + 8 * (i - 1))
        for i in range(1, 4)
    )
    bpred = GsharePredictor()
    engine = FetchEngine(trace, None, bpred)
    batch = engine.fetch(0, 8)
    # not-taken prediction from init counters is correct: full group fetched
    assert len(batch) == 4
    assert not batch[0].mispredicted


def test_mispredicted_branch_switches_to_wrong_path():
    trace = [_branch_record(0, 0x1000, True, 0x4000)]
    trace.append(TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008))
    bpred = GsharePredictor()  # init predicts not-taken -> mispredict
    engine = FetchEngine(trace, None, bpred)
    batch = engine.fetch(0, 8)
    assert batch[0].mispredicted
    assert all(f.wrong_path for f in batch[1:])
    assert engine.on_wrong_path
    more = engine.fetch(1, 8)
    assert all(f.wrong_path for f in more)
    # redirect resumes the correct path after the penalty
    engine.redirect(5, penalty=1)
    assert engine.fetch(5, 8) == []  # redirect bubble
    batch2 = engine.fetch(6, 8)
    assert [f.rec.seq for f in batch2] == [1]
    assert not engine.on_wrong_path


def test_wrong_path_disabled_stalls_instead():
    trace = [_branch_record(0, 0x1000, True, 0x4000),
             TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008)]
    engine = FetchEngine(trace, None, GsharePredictor(), model_wrong_path=False)
    batch = engine.fetch(0, 8)
    assert batch[0].mispredicted and len(batch) == 1
    assert engine.fetch(1, 8) == []
    engine.redirect(3)
    assert [f.rec.seq for f in engine.fetch(4, 8)] == [1]


def test_rewind_replays_the_trace():
    engine = FetchEngine(_linear_trace(6), None, None)
    engine.fetch(0, 4)
    engine.rewind_to(2, 0, penalty=1)
    batch = engine.fetch(1, 8)
    assert [f.rec.seq for f in batch] == [2, 3, 4, 5]


def test_wrong_path_generator_is_deterministic():
    def run():
        trace = [_branch_record(0, 0x1000, True, 0x4000),
                 TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008)]
        engine = FetchEngine(trace, None, GsharePredictor(), seed=11)
        engine.fetch(0, 4)
        return [
            (f.rec.opcode, f.rec.src_regs, f.rec.dest_reg, f.rec.mem_addr)
            for f in engine.fetch(1, 8)
        ]

    assert run() == run()


def test_wrong_path_mix_contains_loads():
    trace = [_branch_record(0, 0x1000, True, 0x4000),
             TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008)]
    engine = FetchEngine(trace, None, GsharePredictor())
    engine.fetch(0, 1)
    fetched = []
    for cycle in range(1, 30):
        fetched.extend(engine.fetch(cycle, 8))
    opcodes = {f.rec.opcode for f in fetched}
    assert Opcode.LD in opcodes
    assert Opcode.ADD in opcodes


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty wrong-path memo (the process-wide one holds the streams
    of every simulation this test process ran before)."""
    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})
    monkeypatch.setattr(fetch_mod, "_wp_held", 0)


def _m88ksim_base_run():
    """A 2,000-instruction m88ksim base run at 8/48: its counters and
    its fetch engine."""
    from repro.engine.config import paper_config
    from repro.engine.sim import simulator_class
    from repro.programs.suite import kernel

    engine, _path = simulator_class()
    simulator = engine(
        kernel("m88ksim").trace(2000), paper_config("8/48"), model=None
    )
    counters = simulator.run()
    return counters, simulator.fetch_engine


#: A budget the m88ksim run crosses about a third of the way through.
_FEW_HUNDRED = 300


def _memo_records():
    return sum(len(stream[0]) for stream in fetch_mod._WP_STREAMS.values())


@pytest.fixture(scope="module")
def cold_m88ksim_counters():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fetch_mod, "_WP_STREAMS", {})
        patch.setattr(fetch_mod, "_wp_held", 0)
        counters, fetch = _m88ksim_base_run()
    assert fetch.synthesized_wrong_path > 3 * _FEW_HUNDRED
    return counters


@pytest.mark.parametrize("budget", [0, _FEW_HUNDRED, None])
def test_record_budget_moves_no_counter(
    fresh_memo, monkeypatch, cold_m88ksim_counters, budget
):
    """A refused stream is drawn from its key like an admitted one: cold
    and warm runs under any budget count what a cold run under the
    default budget does."""
    if budget is not None:
        monkeypatch.setattr(fetch_mod, "_WP_RECORD_BUDGET", budget)
    for _run in ("cold", "warm"):
        counters, _fetch = _m88ksim_base_run()
        assert counters == cold_m88ksim_counters


def test_refused_stream_is_held_by_its_engine_alone(fresh_memo, monkeypatch):
    monkeypatch.setattr(fetch_mod, "_WP_RECORD_BUDGET", 0)
    stream, shared = fetch_mod._wrong_path_cache(7, 0x100)
    assert not shared and fetch_mod._WP_STREAMS == {}
    assert stream == [[], fetch_mod._mix(7 | 1)]
    # The budget refuses only new streams: a memoized one still hits.
    fetch_mod._WP_STREAMS[(7, 0x200)] = held = [[], 0]
    stream, shared = fetch_mod._wrong_path_cache(7, 0x200)
    assert stream is held and shared


def test_memo_stops_growing_one_fetch_group_past_the_budget(
    fresh_memo, monkeypatch
):
    from repro.engine.config import paper_config

    budget = _FEW_HUNDRED
    monkeypatch.setattr(fetch_mod, "_WP_RECORD_BUDGET", budget)
    _counters, fetch = _m88ksim_base_run()
    held = fetch_mod._wp_held
    assert held == _memo_records()
    # A fetch group is at most the fetch width, which is the issue width.
    assert budget <= held < budget + paper_config("8/48").issue_width
    # The rest of the run was refused: synthesized, but not memoized.
    assert fetch.synthesized_wrong_path > held
    # A warm run replays what the memo holds and adds nothing to it.
    _m88ksim_base_run()
    assert fetch_mod._wp_held == _memo_records() == held


@pytest.mark.parametrize("budget", [_FEW_HUNDRED, None])
def test_second_run_replays_what_the_first_admitted(
    fresh_memo, monkeypatch, budget
):
    if budget is not None:
        monkeypatch.setattr(fetch_mod, "_WP_RECORD_BUDGET", budget)
    _counters, first = _m88ksim_base_run()
    admitted = fetch_mod._wp_held
    _counters, second = _m88ksim_base_run()
    assert second.replayed_wrong_path == admitted
    assert second.synthesized_wrong_path == (
        first.synthesized_wrong_path - admitted
    )
    if budget is None:
        assert second.synthesized_wrong_path == 0


# -- wrong-path synthesis ---------------------------------------------------

_MASK64 = (1 << 64) - 1


def _reference_mix(state):
    state = (state ^ (state >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    return (state ^ (state >> 33)) & _MASK64


def _reference_stream(seed, start_pc, length):
    """The wrong-path stream for ``(seed, start_pc)``, each record built
    through the keyword ``TraceRecord(...)`` from the stream's draws."""
    state = _reference_mix(seed | 1)
    pc = start_pc
    out = []
    for _ in range(length):
        state = _reference_mix(state)
        next_pc = pc + 8
        roll = state % 100
        src = (8 + (state >> 16) % 8,)
        if roll >= 90:
            out.append(TraceRecord(
                seq=-1, pc=pc, opcode=Opcode.BNE, src_regs=src,
                branch_taken=bool(state & 1), next_pc=next_pc,
            ))
        else:
            opcode, mem_addr, mem_size = (
                (Opcode.ADD, None, None) if roll < 70
                else (Opcode.LD, 0x600000 + ((state >> 24) & 0xFFF) * 8, 8)
                if roll < 85
                else (Opcode.MUL, None, None)
            )
            out.append(TraceRecord(
                seq=-1, pc=pc, opcode=opcode, src_regs=src,
                dest_reg=8 + (state >> 8) % 8, dest_value=state & 0xFFFF,
                mem_addr=mem_addr, mem_size=mem_size, next_pc=next_pc,
            ))
        pc = next_pc
    return out


#: The slots the engine reads of a wrong-path record: the opcode-row
#: flags, the registers, and the address a wrong-path load touches.
_ENGINE_SLOTS = (
    "opcode", "opclass", "is_load", "is_store", "is_memory", "is_branch",
    "is_control", "is_indirect", "exec_latency", "sel_priority", "is_ctrl",
    "src_regs", "dest_reg", "writes_register", "branch_taken",
    "mem_addr", "mem_size",
)


def _assert_same_slots(got, want):
    for name in _ENGINE_SLOTS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is type(theirs), name
        assert mine == theirs, name
    # What only the correct path has, a wrong-path record goes without.
    assert got.seq == -1
    assert got.pc is got.next_pc is got.dest_value is None


def test_synthesized_records_equal_keyword_construction(fresh_memo):
    for stream_no in range(1000):
        seed = 7 ^ (stream_no * 2654435761)
        start_pc = 0x4000 + 8 * stream_no
        stream, _shared = fetch_mod._wrong_path_cache(seed, start_pc)
        got = [fetch_mod._extend_stream(stream) for _ in range(60)]
        assert got == stream[0]
        for mine, theirs in zip(got, _reference_stream(seed, start_pc, 60)):
            _assert_same_slots(mine, theirs)


def test_synthesized_records_share_their_immutable_parts(fresh_memo):
    prebuilt = {
        id(rec)
        for rec in (*fetch_mod._WP_ADDS, *fetch_mod._WP_MULS, *fetch_mod._WP_BNES)
    }
    assert len(prebuilt) == 144
    stream, _shared = fetch_mod._wrong_path_cache(3, 0x4000)
    records = [fetch_mod._extend_stream(stream) for _ in range(2000)]
    loads = [rec for rec in records if rec.is_load]
    assert 0 < len(loads) < len(records)
    # Every non-load draw is one of the prebuilt records; every load is
    # a record of its own.
    assert all(id(rec) in prebuilt for rec in records if not rec.is_load)
    assert not any(id(rec) in prebuilt for rec in loads)
    assert len({id(rec) for rec in loads}) == len(loads)
    assert len({rec.src_regs for rec in records}) == 8


class _RecordingICache:
    """An I-cache that logs every pc it is asked for and misses once on
    each pc of ``misses``; one 8-byte instruction per block, so every
    fetched instruction asks."""

    block_bytes = 8
    hit_latency = 1

    def __init__(self, misses):
        self.misses = set(misses)
        self.pcs = []

    def access(self, pc):
        self.pcs.append(pc)
        if pc in self.misses:
            self.misses.remove(pc)
            return 10
        return self.hit_latency


def test_icache_sees_the_reference_wrong_path_pcs(fresh_memo):
    """Wrong-path records carry no pc, so the pcs are checked where they
    are read, at the I-cache: it sees the reference stream's pcs in
    order, past a miss that consumes a record too, whether the stream is
    synthesized or replayed."""
    # The branch at 0x1000 jumps to 0x4000; its stream starts 0x4000
    # beyond, keyed by the engine seed 7 mixed with the branch's seq 0.
    want = [rec.pc for rec in _reference_stream(7, 0x8000, 30)]
    for synthesized, replayed in ((30, 0), (0, 30)):
        icache = _RecordingICache(misses=(want[5],))
        engine = FetchEngine(_mispredicting_trace(), icache, GsharePredictor())
        assert engine.fetch(0, 8)[0].mispredicted
        # The sixth draw misses: it is consumed and ends the group.
        fetched = [f.rec for f in engine.fetch(1, 8)]
        assert len(fetched) == 5 and engine.fetch(2, 8) == []
        for cycle in (11, 12, 13):
            fetched.extend(f.rec for f in engine.fetch(cycle, 8))
        assert icache.pcs == [0x1000, *want]
        records = engine._wp_stream[0]
        assert fetched == records[:5] + records[6:30]
        assert (engine.synthesized_wrong_path, engine.replayed_wrong_path) == (
            synthesized, replayed,
        )


def _mispredicting_trace():
    return [_branch_record(0, 0x1000, True, 0x4000),
            TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008)]


def test_synthesized_wrong_path_counts_cold_and_warm_memo(fresh_memo):

    def wrong_path_run():
        engine = FetchEngine(_mispredicting_trace(), None, GsharePredictor())
        engine.fetch(0, 1)
        fetched = [f.rec for cycle in (1, 2, 3) for f in engine.fetch(cycle, 8)]
        assert engine.fetched_wrong_path == len(fetched) == 24
        return engine, fetched

    cold, cold_records = wrong_path_run()
    assert (cold.synthesized_wrong_path, cold.replayed_wrong_path) == (24, 0)
    warm, warm_records = wrong_path_run()
    assert (warm.synthesized_wrong_path, warm.replayed_wrong_path) == (0, 24)
    assert all(a is b for a, b in zip(cold_records, warm_records))
