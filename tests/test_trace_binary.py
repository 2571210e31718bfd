"""VSRT v4 binary format tests (round trip, edges, malformed input)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import Opcode
from repro.trace import (
    TraceRecord,
    dumps_trace_chunked,
    loads_trace_chunked,
    read_trace_chunked,
    write_trace_chunked,
)
from repro.trace.binary import BinaryTraceError

# seq is positional in the binary format (capture traces are always
# 0..n-1), so the strategy generates records and renumbers.
_record = st.builds(
    TraceRecord,
    seq=st.just(0),
    pc=st.integers(0, 1 << 40).map(lambda v: v & ~7),
    opcode=st.sampled_from(list(Opcode)),
    src_regs=st.lists(st.integers(1, 31), max_size=2).map(tuple),
    dest_reg=st.one_of(st.none(), st.integers(1, 31)),
    dest_value=st.one_of(st.none(), st.integers(0, (1 << 64) - 1)),
    mem_addr=st.one_of(st.none(), st.integers(0, 1 << 40)),
    mem_size=st.one_of(st.none(), st.sampled_from([1, 4, 8])),
    branch_taken=st.one_of(st.none(), st.booleans()),
    next_pc=st.integers(0, 1 << 40),
)


def _renumber(records):
    """Renumber sequentially and normalize field coupling the way real
    captures produce them (dest_value iff dest_reg, mem_size iff mem_addr)."""
    out = []
    for i, rec in enumerate(records):
        has_dest = rec.dest_reg is not None
        has_mem = rec.mem_addr is not None
        out.append(
            TraceRecord(
                i, rec.pc, rec.opcode, rec.src_regs,
                rec.dest_reg,
                (rec.dest_value or 0) if has_dest else None,
                rec.mem_addr,
                (rec.mem_size or 1) if has_mem else None,
                rec.branch_taken, rec.next_pc,
            )
        )
    return out


@given(
    records=st.lists(_record, max_size=30),
    chunk=st.integers(1, 12),
)
def test_binary_round_trip(records, chunk):
    records = _renumber(records)
    trace = loads_trace_chunked(dumps_trace_chunked(records, chunk))
    assert trace == records
    assert trace.collapse() == records


def test_binary_round_trip_on_kernel_trace():
    from repro.programs.suite import kernel

    trace = kernel("compress").trace(max_instructions=3000)
    blob = dumps_trace_chunked(trace)
    loaded = loads_trace_chunked(blob)
    assert loaded.chunk_count == 1
    assert loaded == trace
    assert loaded.collapse() == trace


def test_file_round_trip(tmp_path):
    from repro.programs.suite import kernel

    trace = kernel("gcc").trace(max_instructions=500)
    path = tmp_path / "trace.vsrt4"
    assert write_trace_chunked(trace, path) == len(trace)
    assert path.read_bytes() == dumps_trace_chunked(trace)
    assert read_trace_chunked(path) == trace


def test_bad_magic_rejected():
    with pytest.raises(BinaryTraceError, match="magic"):
        loads_trace_chunked(b"NOPE" + bytes(60))
    # The retired single-block and varint formats are not v4 either.
    for magic in (b"VSRT\x03", b"VSRT\x02"):
        with pytest.raises(BinaryTraceError, match="magic"):
            loads_trace_chunked(magic + bytes(59))


def test_truncated_data_rejected():
    from repro.programs.suite import kernel

    blob = dumps_trace_chunked(kernel("gcc").trace(max_instructions=50))
    for clipped in (blob[:10], blob[: len(blob) // 2], blob[:-1]):
        with pytest.raises(BinaryTraceError):
            loads_trace_chunked(clipped)


def test_empty_trace():
    blob = dumps_trace_chunked([])
    trace = loads_trace_chunked(blob)
    assert trace.chunk_count == 0
    assert trace == []
    assert trace.collapse() == []
