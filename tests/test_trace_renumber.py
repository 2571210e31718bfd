"""Cutting and joining traces by writing them as VSRT v5 entries.

The engine needs ``seq == position``.  An entry stores no ``seq``
column: rows read back are numbered by position, so writing records is
how a cut or a join is renumbered.  Slices of a loaded trace keep their
numbers until written again; a capture limit cuts a trace's front.
"""

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import Opcode
from repro.trace import TraceRecord
from repro.trace.binary import dumps_trace, loads_trace


def _trace(n, base_pc=0x1000):
    return [
        TraceRecord(i, base_pc + 8 * (i % 5), Opcode.ADD, (4,), 8, i,
                    next_pc=0)
        for i in range(n)
    ]


def _written(records):
    return loads_trace(dumps_trace(records))


def test_renumber():
    records = list(_written(list(reversed(_trace(5)))))
    assert [r.seq for r in records] == [0, 1, 2, 3, 4]
    assert records[0].dest_value == 4  # order preserved, seq rewritten


def test_skip_warmup():
    """Skipping a warm-up prefix keeps the numbers until rewritten."""
    tail = _written(_trace(10))[4:]
    assert len(tail) == 6
    assert tail[0].seq == 4 and tail[0].dest_value == 4
    rewritten = _written(tail)
    assert rewritten[0].seq == 0
    assert rewritten[0].dest_value == 4  # original instruction 4


def test_region_of_interest():
    records = _trace(20)
    trace = _written(records)
    region = trace[5:12]
    assert region == records[5:12]
    assert [r.dest_value for r in region] == list(range(5, 12))
    with pytest.raises(IndexError):
        trace[20]


def test_concatenate():
    joined = _written(_trace(3) + _trace(2))
    assert len(joined) == 5
    assert [r.seq for r in joined] == list(range(5))
    assert [r.dest_value for r in joined] == [0, 1, 2, 0, 1]


def test_sliced_trace_simulates():
    from repro.engine.config import ProcessorConfig
    from repro.engine.sim import run_baseline
    from repro.programs.suite import kernel

    trace = _written(kernel("perl").trace(max_instructions=4000))
    roi = _written(trace[1000:2500])
    result = run_baseline(roi, ProcessorConfig(4, 24))
    assert result.counters.retired == 1500
    prefix = kernel("perl").trace(max_instructions=1500)
    assert prefix == trace[:1500]


@given(n=st.integers(1, 50), k=st.integers(0, 50))
def test_skip_then_length(n, k):
    tail = _written(_trace(n))[min(k, n):]
    assert len(tail) == n - min(k, n)
    records = _written(tail)
    assert [r.seq for r in records] == list(range(len(records)))
