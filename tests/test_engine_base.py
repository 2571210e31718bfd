"""Base-processor (no value prediction) pipeline timing tests."""

from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.engine.sim import run_baseline
from repro.isa.opcodes import Opcode
from repro.obs import PipelineTracer
from repro.trace.record import TraceRecord


def _chain(n, latclass=Opcode.ADD):
    """n back-to-back dependent single-output instructions."""
    records = []
    for i in range(n):
        srcs = (8,) if i == 0 else (9 + (i - 1) % 20,)
        records.append(
            TraceRecord(
                i, 0x1000 + 8 * i, latclass, srcs, 9 + i % 20, i + 1,
                next_pc=0x1008 + 8 * i,
            )
        )
    return records


def _independent(n):
    return [
        TraceRecord(i, 0x1000 + 8 * i, Opcode.ADD, (4,), 8 + i % 20, i,
                    next_pc=0x1008 + 8 * i)
        for i in range(n)
    ]


def _cfg(**kwargs):
    defaults = dict(issue_width=4, window_size=24)
    defaults.update(kwargs)
    return ProcessorConfig(**defaults)


def _warm_hierarchy(trace):
    """Pre-warm the I-cache so micro-timing tests see steady-state fetch."""
    from repro.mem.hierarchy import make_paper_hierarchy

    hierarchy = make_paper_hierarchy()
    for rec in trace:
        hierarchy.l1i.access(rec.pc)
    return hierarchy


def _span(trace, config):
    """Cycles from the first issue opportunity to the last retirement,
    the measurement convention of the paper's Figure 1."""
    tracer = PipelineTracer()
    sim = PipelineSimulator(
        trace, config, hierarchy=_warm_hierarchy(trace), tracer=tracer
    )
    sim.run()
    marks = tracer.lifecycle_marks()
    dispatch = min(m.cycle for m in marks if m.phase == "dispatch")
    retire = max(m.cycle for m in marks if m.phase == "retire")
    return retire - dispatch


def test_empty_trace():
    result = run_baseline([], _cfg())
    assert result.cycles == 0
    assert result.counters.retired == 0


def test_three_chain_is_five_cycles():
    """The paper's Figure 1 reference: 3 dependent instructions take 5
    cycles from issue to full retirement on the base processor."""
    assert _span(_chain(3), _cfg()) == 5


def test_dependent_chain_serializes():
    span10 = _span(_chain(10), _cfg())
    span3 = _span(_chain(3), _cfg())
    assert span10 - span3 == 7  # one cycle per extra chain link


def test_independent_instructions_overlap():
    # 8 independent 1-cycle ops on a 4-wide machine: 2 issue groups
    span = _span(_independent(8), _cfg())
    assert span <= 4  # far less than 8 serial cycles


def test_issue_width_bounds_ipc():
    trace = _independent(400)
    narrow = run_baseline(trace, _cfg(issue_width=4, window_size=24))
    wide = run_baseline(trace, _cfg(issue_width=16, window_size=96))
    assert narrow.counters.ipc <= 4.0 + 1e-9
    assert wide.cycles < narrow.cycles


def test_multicycle_op_latency_visible():
    # mul (3 cycles) chain vs add (1 cycle) chain
    adds = _span(_chain(5, Opcode.ADD), _cfg())
    muls = _span(_chain(5, Opcode.MUL), _cfg())
    assert muls - adds == 5 * 2  # +2 cycles per link


def test_retired_equals_trace_length():
    trace = _independent(123)
    result = run_baseline(trace, _cfg())
    assert result.counters.retired == 123


def test_window_bounds_occupancy():
    trace = _independent(200)
    sim = PipelineSimulator(trace, _cfg(window_size=24))
    counters = sim.run()
    assert counters.window_peak <= 24


def test_retirement_is_in_order():
    # a slow mul early, fast adds after: adds finish first but retire later
    trace = [
        TraceRecord(0, 0x1000, Opcode.MUL, (4,), 8, 1, next_pc=0x1008),
        TraceRecord(1, 0x1008, Opcode.ADD, (5,), 9, 2, next_pc=0x1010),
        TraceRecord(2, 0x1010, Opcode.ADD, (6,), 10, 3, next_pc=0x1018),
    ]
    tracer = PipelineTracer()
    PipelineSimulator(trace, _cfg(), tracer=tracer).run()
    retires = {
        m.seq: m.cycle for m in tracer.lifecycle_marks() if m.phase == "retire"
    }
    assert retires[0] <= retires[1] <= retires[2]


def test_branch_misprediction_costs_cycles():
    """A data-dependent alternating branch that gshare cannot fully learn
    must cost cycles versus the same trace with all branches not-taken."""

    def branch_trace(pattern):
        records = []
        seq = 0
        pc = 0x1000
        for taken in pattern:
            records.append(
                TraceRecord(seq, pc, Opcode.ADD, (4,), 8, seq, next_pc=pc + 8)
            )
            seq += 1
            pc += 8
            target = pc + 64 if taken else pc + 8
            records.append(
                TraceRecord(
                    seq, pc, Opcode.BNE, (8,), branch_taken=taken, next_pc=target
                )
            )
            seq += 1
            pc = target
        return records

    import random

    rng = random.Random(7)
    noisy = branch_trace([rng.random() < 0.5 for _ in range(120)])
    steady = branch_trace([False] * 120)
    noisy_result = run_baseline(noisy, _cfg())
    steady_result = run_baseline(steady, _cfg())
    assert noisy_result.counters.branch_mispredictions > 0
    assert steady_result.counters.branch_mispredictions < (
        noisy_result.counters.branch_mispredictions
    )
    assert noisy_result.cycles > steady_result.cycles


def test_dcache_port_contention():
    loads = [
        TraceRecord(
            i, 0x1000 + 8 * i, Opcode.LD, (4,), 8 + i % 20, i,
            mem_addr=0x200000 + 64 * i, mem_size=8, next_pc=0x1008 + 8 * i,
        )
        for i in range(100)
    ]
    few_ports = run_baseline(loads, _cfg(dcache_ports=1))
    many_ports = run_baseline(loads, _cfg(dcache_ports=4))
    assert few_ports.cycles > many_ports.cycles
    assert few_ports.counters.dcache_port_conflicts > 0


def test_store_load_forwarding_counted():
    records = [
        TraceRecord(0, 0x1000, Opcode.SD, (29, 4), None, None, 0x300000, 8,
                    None, 0x1008),
        TraceRecord(1, 0x1008, Opcode.LD, (29,), 8, 5, 0x300000, 8, None,
                    0x1010),
    ]
    result = run_baseline(records, _cfg())
    assert result.counters.store_forwards == 1


def test_load_waits_for_prior_store_address():
    """A load cannot access memory before older store addresses resolve."""
    # the store's data operand comes from a slow divide
    records = [
        TraceRecord(0, 0x1000, Opcode.DIV, (4,), 8, 3, next_pc=0x1008),
        TraceRecord(1, 0x1008, Opcode.SD, (29, 8), None, None, 0x300000, 8,
                    None, 0x1010),
        TraceRecord(2, 0x1010, Opcode.LD, (30,), 9, 7, 0x400000, 8, None,
                    0x1018),
    ]
    result = run_baseline(records, _cfg())
    # the load's data arrives only after the 20-cycle divide resolves the
    # store's operands; total must exceed a plain uncontended load's time
    plain = run_baseline([records[2]], _cfg())
    assert result.cycles > plain.cycles + 15
