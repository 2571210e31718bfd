"""Trace statistics and synthetic trace generation tests."""

import pytest

from repro.isa.opcodes import OpClass, Opcode
from repro.trace import (
    SyntheticTraceConfig,
    TraceRecord,
    compute_stats,
    generate_synthetic_trace,
)


def _alu(seq, dest=8, srcs=(4,)):
    return TraceRecord(seq, 0x1000 + 8 * seq, Opcode.ADD, srcs, dest, 1,
                       next_pc=0x1008 + 8 * seq)


def test_stats_counts():
    trace = [
        _alu(0),
        TraceRecord(1, 0x1008, Opcode.LD, (8,), 9, 5, 0x2000, 8, None, 0x1010),
        TraceRecord(2, 0x1010, Opcode.SD, (8, 9), None, None, 0x2000, 8, None, 0x1018),
        TraceRecord(3, 0x1018, Opcode.BNE, (8, 9), branch_taken=True, next_pc=0x1000),
    ]
    stats = compute_stats(trace)
    assert stats.total == 4
    assert stats.register_writers == 2
    assert stats.loads == 1 and stats.stores == 1
    assert stats.branches == 1 and stats.taken_branches == 1
    assert stats.prediction_eligible_fraction == 0.5
    assert stats.branch_fraction == 0.25
    assert stats.by_class[OpClass.IALU] == 1
    assert stats.unique_pcs == 4


def test_stats_empty_trace():
    stats = compute_stats([])
    assert stats.total == 0
    assert stats.prediction_eligible_fraction == 0.0
    assert stats.branch_fraction == 0.0


def test_synthetic_trace_is_deterministic():
    config = SyntheticTraceConfig(length=500, seed=3)
    assert generate_synthetic_trace(config) == generate_synthetic_trace(config)


def test_synthetic_trace_length_and_shape():
    config = SyntheticTraceConfig(length=777)
    trace = generate_synthetic_trace(config)
    assert len(trace) == 777
    assert [r.seq for r in trace] == list(range(777))
    stats = compute_stats(trace)
    assert stats.loads > 0
    assert stats.branches > 0


def test_synthetic_predictability_knob():
    lo = compute_stats(
        generate_synthetic_trace(SyntheticTraceConfig(length=2000, predictable_fraction=0.0))
    )
    hi = compute_stats(
        generate_synthetic_trace(SyntheticTraceConfig(length=2000, predictable_fraction=1.0))
    )
    # the knob changes value streams, not the instruction mix
    assert lo.total == hi.total
    assert lo.branches == hi.branches


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticTraceConfig(length=0)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(chain_length=0)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(predictable_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(value_period=0)


def test_stats_identical_across_representations():
    """The single-pass columnar fast path must be observationally
    identical to the per-record reference loop — same dataclass, field
    for field — on in-memory and loaded columns alike, on a workload
    exercising every instruction class."""
    from dataclasses import asdict

    from repro.trace import as_columnar, dumps_trace, loads_trace

    records = generate_synthetic_trace(
        SyntheticTraceConfig(length=3_000, load_every=5, branch_every=7,
                             branch_taken_bias=0.6, seed=9)
    )
    reference = asdict(compute_stats(records))
    assert asdict(compute_stats(as_columnar(records))) == reference
    loaded = loads_trace(dumps_trace(records))
    assert asdict(compute_stats(loaded)) == reference
    assert loaded.materialized_rows == 0  # folded from the columns alone
