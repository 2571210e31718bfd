"""Fetch engine tests: width, I-cache stalls, wrong path, redirect."""

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
        return [(f.rec.pc, f.rec.opcode) for f in engine.fetch(1, 8)]

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


def test_wrong_path_memo_lru_cap(monkeypatch):
    import repro.frontend.fetch as fetch_mod

    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})
    monkeypatch.setattr(fetch_mod, "_WP_STREAM_LIMIT", 4)
    streams = fetch_mod._WP_STREAMS

    for pc in (0x100, 0x200, 0x300, 0x400):
        fetch_mod._wrong_path_cache(7, pc)
    assert len(streams) == 4

    # Touch the oldest entry so it becomes the most recently used.
    fetch_mod._wrong_path_cache(7, 0x100)
    assert next(reversed(streams)) == (7, 0x100)

    # Inserting past the cap evicts exactly one entry - the coldest
    # ((7, 0x200), since (7, 0x100) was just touched) - not the memo.
    fetch_mod._wrong_path_cache(7, 0x500)
    assert len(streams) == 4
    assert (7, 0x200) not in streams
    assert (7, 0x100) in streams
    assert (7, 0x500) in streams


def test_wrong_path_memo_hit_preserves_stream_state(monkeypatch):
    import repro.frontend.fetch as fetch_mod

    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})
    cache = fetch_mod._wrong_path_cache(11, 0x4000)
    cache[0].append("sentinel-record")
    # A hit returns the same mutable stream object (move-to-end must not
    # copy or reset the recorded prefix).
    assert fetch_mod._wrong_path_cache(11, 0x4000) is cache
    assert cache[0] == ["sentinel-record"]


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


def _assert_same_slots(got, want):
    for name in TraceRecord.__slots__:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is type(theirs), name
        assert mine == theirs, name


def test_synthesized_records_equal_keyword_construction(monkeypatch):
    import repro.frontend.fetch as fetch_mod

    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})
    for stream_no in range(1000):
        seed = 7 ^ (stream_no * 2654435761)
        start_pc = 0x4000 + 8 * stream_no
        stream = fetch_mod._wrong_path_cache(seed, start_pc)
        got = [fetch_mod._extend_stream(stream) for _ in range(60)]
        assert got == stream[0]
        for mine, theirs in zip(got, _reference_stream(seed, start_pc, 60)):
            _assert_same_slots(mine, theirs)


def test_synthesized_records_share_their_immutable_parts(monkeypatch):
    import repro.frontend.fetch as fetch_mod

    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})
    stream = fetch_mod._wrong_path_cache(3, 0x4000)
    records = [fetch_mod._extend_stream(stream) for _ in range(400)]
    by_regs = {}
    for rec in records:
        assert by_regs.setdefault(rec.src_regs, rec.src_regs) is rec.src_regs
        if rec.dest_value is not None:
            assert rec.dest_fold is rec.dest_value
    assert len(by_regs) == 8
    # Each record's next_pc is the object the following record's pc is.
    assert all(a.next_pc is b.pc for a, b in zip(records, records[1:]))


def _mispredicting_trace():
    return [_branch_record(0, 0x1000, True, 0x4000),
            TraceRecord(1, 0x4000, Opcode.ADD, (4,), 8, 0, next_pc=0x4008)]


def test_synthesized_wrong_path_counts_cold_and_warm_memo(monkeypatch):
    import repro.frontend.fetch as fetch_mod

    monkeypatch.setattr(fetch_mod, "_WP_STREAMS", {})

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
