"""VSRT v5 binary format tests (round trip, edges, malformed input)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import Opcode
from repro.trace import TraceRecord, dumps_trace, loads_trace, open_trace
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


@given(records=st.lists(_record, max_size=30))
def test_binary_round_trip(records):
    records = _renumber(records)
    assert loads_trace(dumps_trace(records)) == records


def test_binary_round_trip_on_kernel_trace():
    from repro.programs.suite import kernel

    trace = kernel("compress").trace(max_instructions=3000)
    loaded = loads_trace(dumps_trace(trace))
    assert len(loaded) == 3000
    assert loaded == trace


def test_file_round_trip(tmp_path):
    from repro.programs.suite import kernel

    trace = kernel("gcc").trace(max_instructions=500)
    path = tmp_path / "trace.vsrt5"
    path.write_bytes(dumps_trace(trace))
    assert open_trace(path) == trace


def test_bad_magic_rejected():
    with pytest.raises(BinaryTraceError, match="magic"):
        loads_trace(b"NOPE" + bytes(60))
    # The retired chunked, single-block and varint formats are not v5.
    for magic in (b"VSRT\x04", b"VSRT\x03", b"VSRT\x02"):
        with pytest.raises(BinaryTraceError, match="magic"):
            loads_trace(magic + bytes(59))


def test_truncated_data_rejected():
    from repro.programs.suite import kernel

    blob = dumps_trace(kernel("gcc").trace(max_instructions=50))
    for clipped in (blob[:10], blob[: len(blob) // 2], blob[:-1]):
        with pytest.raises(BinaryTraceError):
            loads_trace(clipped)


def test_empty_trace():
    trace = loads_trace(dumps_trace([]))
    assert len(trace) == 0
    assert trace == []
