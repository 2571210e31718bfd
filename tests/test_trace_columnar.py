"""Columnar trace plane: struct-of-arrays traces, one VSRT v5 column
block each, and zero-copy distribution to sweep workers.

Three layers under test, mirroring docs/PERFORMANCE.md ("Columnar trace
plane"):

* :class:`repro.trace.columnar.ColumnarTrace` — row-view equivalence
  with ``list[TraceRecord]``, lazy memoized materialization, packing
  limits;
* a ColumnarTrace as one v5 entry (:mod:`repro.trace.binary`) — round
  trips including the edges (empty trace, ``dest_reg=None``, 64-bit
  maxima), truncation/corruption rejection, and the cache's
  regenerate-on-corrupt fallback;
* the parallel harness's zero-copy staging — golden equivalence of
  columnar vs record-list inputs at ``jobs=1`` and ``jobs>1``, and the
  ``REPRO_TRACE_STRICT`` proof that a warm ``jobs=4`` sweep performs
  zero per-worker trace materializations.
"""

from __future__ import annotations

import pytest

from repro.isa.opcodes import INSTRUCTION_BYTES, Opcode
from repro.programs.suite import KernelSpec, kernel, kernel_names
from repro.trace import cache as trace_cache
from repro.trace.binary import (
    HEADER_SIZE,
    BinaryTraceError,
    block_layout,
    dumps_trace,
    loads_trace,
    open_trace,
)
from repro.trace.columnar import (
    COLUMN_SPEC,
    ColumnarTrace,
    ColumnarTraceError,
    as_columnar,
)
from repro.trace.record import TraceRecord

_MAX64 = (1 << 64) - 1

_ALU = list(Opcode)[0]


def _rec(
    seq,
    pc,
    opcode=_ALU,
    src_regs=(),
    dest_reg=None,
    dest_value=None,
    mem_addr=None,
    mem_size=None,
    branch_taken=None,
    next_pc=None,
):
    if next_pc is None:
        next_pc = pc + INSTRUCTION_BYTES
    return TraceRecord(
        seq, pc, opcode, src_regs, dest_reg, dest_value,
        mem_addr, mem_size, branch_taken, next_pc,
    )


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "traces"
    monkeypatch.setenv(trace_cache.ENV_VAR, str(directory))
    return directory


@pytest.fixture()
def capture_counter(monkeypatch):
    # Counts functional-simulation captures through either entry point:
    # the in-memory KernelSpec.trace and KernelSpec.capture (the trace
    # cache's one capture path, straight into a TraceWriter).
    calls = {"count": 0}
    original_trace = KernelSpec.trace
    original_capture = KernelSpec.capture

    def counting_trace(self, max_instructions=None):
        calls["count"] += 1
        return original_trace(self, max_instructions)

    def counting_capture(self, writer, max_instructions=None):
        calls["count"] += 1
        return original_capture(self, writer, max_instructions)

    monkeypatch.setattr(KernelSpec, "trace", counting_trace)
    monkeypatch.setattr(KernelSpec, "capture", counting_capture)
    return calls


# -- ColumnarTrace row views ----------------------------------------------


def test_columnar_round_trips_kernel_trace():
    records = kernel("compress").trace(max_instructions=800)
    columnar = ColumnarTrace.from_records(records)
    assert len(columnar) == len(records)
    assert columnar == records
    # Engine-critical derived fields survive columnarization.
    assert [r.dest_fold for r in columnar] == [r.dest_fold for r in records]
    assert [r.exec_latency for r in columnar] == [
        r.exec_latency for r in records
    ]
    assert [r.is_ctrl for r in columnar] == [r.is_ctrl for r in records]


def test_columnar_rows_are_lazy_and_memoized():
    records = kernel("compress").trace(max_instructions=100)
    columnar = ColumnarTrace.from_records(records)
    assert columnar.materialized_rows == 0
    first = columnar[3]
    assert columnar.materialized_rows == 1  # only the touched row
    assert columnar[3] is first  # memoized, not rebuilt
    rows = columnar.rows()
    assert columnar.materialized_rows == len(records)
    assert rows[3] is first


def test_columnar_sequence_protocol():
    records = kernel("compress").trace(max_instructions=50)
    columnar = as_columnar(records)
    assert as_columnar(columnar) is columnar  # identity on columnar input
    assert columnar[-1] == records[-1]
    assert columnar[2:5] == records[2:5]
    assert list(iter(columnar)) == records
    with pytest.raises(IndexError):
        columnar[len(records)]


def test_columnar_rejects_unpackable_records():
    with pytest.raises(ColumnarTraceError, match="source registers"):
        ColumnarTrace.from_records([_rec(0, 0, src_regs=(1, 2, 3, 4))])
    with pytest.raises(ColumnarTraceError, match="srcs column"):
        ColumnarTrace.from_records([_rec(0, 0, src_regs=(300,))])


# -- VSRT v5 round trips, including the edges ------------------------------
# (Test names keep the ``v4``/``chunk`` of the chunked format they were
# written for, so their ids stay stable; the entries are VSRT v5.)


def _round_trip(records):
    """``records`` through v5 bytes and back, as the ColumnarTrace a
    cache hit returns."""
    loaded = loads_trace(dumps_trace(records))
    assert isinstance(loaded, ColumnarTrace)
    return loaded


def test_v4_empty_trace_round_trip():
    loaded = _round_trip([])
    assert len(loaded) == 0
    assert loaded == []


def test_v4_none_dest_round_trip():
    records = [_rec(0, 0x1000, src_regs=(5,))]  # no destination register
    loaded = _round_trip(records)
    assert loaded[0].dest_reg is None
    assert loaded[0].dest_value is None
    assert loaded == records


def test_v4_64bit_maxima_round_trip():
    # The fixed-width columns must carry full-range u64 payloads.
    records = [
        _rec(
            0,
            (_MAX64 & ~7) - INSTRUCTION_BYTES,
            src_regs=(255,),
            dest_reg=254,
            dest_value=_MAX64,
            next_pc=_MAX64 & ~7,
        ),
        _rec(1, 0, dest_reg=1, dest_value=0),
    ]
    loaded = _round_trip(records)
    assert loaded[0].dest_value == _MAX64
    assert loaded[0].pc == (_MAX64 & ~7) - INSTRUCTION_BYTES
    assert loaded[0].next_pc == _MAX64 & ~7
    assert loaded == records


def test_v4_kernel_trace_file_round_trip(tmp_path):
    records = kernel("gcc").trace(max_instructions=400)
    path = tmp_path / "trace.vsrt5"
    path.write_bytes(dumps_trace(records))
    loaded = open_trace(path)
    assert isinstance(loaded, ColumnarTrace)
    assert loaded == records


def test_chunk_layout_is_aligned_and_exact():
    offsets, size = block_layout(7)
    assert all(offset % 8 == 0 for offset in offsets.values())
    assert HEADER_SIZE % 8 == 0
    trace = as_columnar(kernel("compress").trace(max_instructions=7))
    blob = dumps_trace(trace)
    # The header, then the column block and nothing else.
    assert len(blob) == HEADER_SIZE + size
    for name, _typecode, itemsize in COLUMN_SPEC:
        start = HEADER_SIZE + offsets[name]
        assert blob[start : start + 7 * itemsize] == trace.column_bytes(name)


def test_v4_bad_magic_rejected():
    with pytest.raises(BinaryTraceError, match="magic"):
        loads_trace(b"NOPE" + bytes(60))


def test_v4_truncated_rejected():
    blob = dumps_trace(kernel("compress").trace(max_instructions=20))
    with pytest.raises(BinaryTraceError, match="header"):
        loads_trace(blob[:10])
    with pytest.raises(BinaryTraceError, match="size"):
        loads_trace(blob[:-8])
    with pytest.raises(BinaryTraceError, match="size"):
        loads_trace(blob + bytes(8))


def test_v4_truncated_file_rejected(tmp_path):
    path = tmp_path / "clipped.vsrt5"
    blob = dumps_trace(kernel("compress").trace(max_instructions=20))
    path.write_bytes(blob[:-16])
    with pytest.raises(BinaryTraceError):
        open_trace(path)
    path.write_bytes(b"")
    with pytest.raises(BinaryTraceError, match="header"):
        open_trace(path)


def test_v4_unknown_opcode_rejected():
    offsets, _size = block_layout(1)
    used = {op.code for op in Opcode}
    trace = as_columnar([_rec(0, 0)])
    trace.opcode[0] = next(c for c in range(256) if c not in used)
    # Written through the writer, so the block CRC matches: the opcode
    # check itself must reject it.
    blob = dumps_trace(trace)
    assert blob[HEADER_SIZE + offsets["opcode"]] == trace.opcode[0]
    with pytest.raises(BinaryTraceError, match="opcode"):
        loads_trace(blob)


def test_v4_load_is_zero_parse(tmp_path):
    path = tmp_path / "trace.vsrt5"
    path.write_bytes(dumps_trace(kernel("compress").trace(max_instructions=200)))
    loaded = open_trace(path)
    # Buffer-backed and nothing materialized until a row is touched.
    assert "buffer-backed" in repr(loaded)
    assert loaded.materialized_rows == 0
    assert loaded[0].seq == 0
    assert loaded.materialized_rows == 1


# -- cache fallback on corruption -----------------------------------------


def test_corrupt_cache_entry_falls_back_to_regeneration(
    cache_dir, capture_counter
):
    """A clipped/garbage cache entry must be a miss that deletes the file
    and re-captures — never a crash, never a wrong trace."""
    first = trace_cache.cached_trace("compress", 60)
    assert isinstance(first, ColumnarTrace)
    assert capture_counter["count"] == 1
    path = trace_cache.trace_path("compress", kernel("compress").source, 60)
    good = path.read_bytes()
    flipped = bytearray(good)
    flipped[HEADER_SIZE + 100] ^= 0xFF  # inside the block: fails its CRC

    # The second one carries a plausible v5 magic but a garbage body.
    corruptions = (
        good[:-24],
        b"VSRT\x05" + b"\x00" * 59,
        b"junk",
        bytes(flipped),
    )
    for corruption in corruptions:
        path.write_bytes(corruption)
        regenerated = trace_cache.cached_trace("compress", 60)
        assert regenerated == first
    assert capture_counter["count"] == 1 + len(corruptions)
    # The final regeneration rewrote a valid entry: warm again.
    trace_cache.cached_trace("compress", 60)
    assert capture_counter["count"] == 1 + len(corruptions)


# -- golden equivalence: columnar input, serial and fanned ----------------


def test_engine_results_identical_on_columnar_and_record_traces():
    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.engine.sim import run_baseline, run_trace

    config = ProcessorConfig(issue_width=4, window_size=24)
    records = kernel("perl").trace(max_instructions=600)
    columnar = as_columnar(records)
    runs = [
        lambda t: run_baseline(t, config),
        lambda t: run_trace(t, config, GREAT_MODEL),
        lambda t: run_trace(t, config, GOOD_MODEL),
    ]
    for run in runs:
        from_records = run(records)
        from_columnar = run(columnar)
        assert from_columnar.counters == from_records.counters
        assert from_columnar.cycles == from_records.cycles


def test_sweep_golden_identical_serial_vs_fanned(cache_dir, monkeypatch):
    """The zero-copy staging (mmap'd cache entries into 4 workers) must
    be invisible in the counters: bit-identical to the inline path."""
    from repro.core.model import GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel
    from repro.harness.parallel import SimJob, run_jobs

    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = []
    for name in ("compress", "perl"):
        jobs.append(SimJob(name, config, None, 500))
        jobs.append(SimJob(name, config, GREAT_MODEL, 500))
    serial = run_jobs(jobs, jobs=1)
    fanned = run_jobs(jobs, jobs=4)
    assert [r.counters for r in serial] == [r.counters for r in fanned]
    assert [r.cycles for r in serial] == [r.cycles for r in fanned]


def test_sweep_golden_identical_with_temp_dir_staging(monkeypatch, tmp_path):
    """With the disk cache off, the pool stages entries into a per-run
    temp directory; results must still match the inline path exactly,
    and the directory is gone once the pool has ended."""
    import tempfile

    from repro.core.model import GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel

    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = [
        parallel.SimJob("compress", config, None, 400),
        parallel.SimJob("compress", config, GREAT_MODEL, 400),
    ]
    serial = parallel.run_jobs(jobs, jobs=1)
    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    fanned = parallel.run_jobs(jobs, jobs=2)
    assert [r.counters for r in serial] == [r.counters for r in fanned]
    assert not list(tmp_path.glob("repro-traces-*"))


# -- strict mode: warm sweeps perform zero worker materializations --------


def test_strict_env_parsing(monkeypatch):
    from repro.harness.parallel import strict_no_capture

    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_TRACE_STRICT", value)
        assert strict_no_capture(), value
    for value in ("", "0", "off", "no"):
        monkeypatch.setenv("REPRO_TRACE_STRICT", value)
        assert not strict_no_capture(), value
    monkeypatch.delenv("REPRO_TRACE_STRICT")
    assert not strict_no_capture()


def test_strict_worker_refuses_capture(monkeypatch, tmp_path):
    from repro.harness import parallel

    monkeypatch.setattr(parallel, "_WORKER_STRICT", True)
    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    monkeypatch.setattr(parallel, "_STAGING_DIR", tmp_path)  # empty
    with pytest.raises(RuntimeError, match="REPRO_TRACE_STRICT"):
        parallel._trace_for("compress", 100)


def test_warm_jobs4_sweep_zero_worker_materializations(
    cache_dir, capture_counter, monkeypatch
):
    """Acceptance: a warm ``jobs=4`` sweep serves every worker from the
    staged cache entries.  ``REPRO_TRACE_STRICT`` turns any worker-side
    fallback to functional capture into a hard failure, so the sweep
    *completing* (with golden counters) is the zero-materialization
    proof; the capture counter pins the parent side to the single cold
    warm-up capture."""
    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel
    from repro.harness.parallel import SimJob, run_jobs

    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = [
        SimJob("compress", config, model, 500)
        for model in (None, GREAT_MODEL, GOOD_MODEL)
    ] * 2
    serial = run_jobs(jobs, jobs=1)  # cold: captures once, fills cache
    assert capture_counter["count"] == 1

    monkeypatch.setenv("REPRO_TRACE_STRICT", "1")
    fanned = run_jobs(jobs, jobs=4)
    assert capture_counter["count"] == 1  # no parent-side re-capture
    assert [r.counters for r in fanned] == [r.counters for r in serial]
    assert [r.cycles for r in fanned] == [r.cycles for r in serial]


# -- bulk row materialization ----------------------------------------------


def _assert_rows_equal_single_path(trace):
    """``rows()`` (built in one pass) equals ``_materialize(i)`` (the
    single-row path), slot for slot and type for type."""
    rows = trace.rows()
    assert len(rows) == len(trace)
    for index, rec in enumerate(rows):
        single = trace._materialize(index)
        for name in TraceRecord.__slots__:
            mine, theirs = getattr(rec, name), getattr(single, name)
            assert type(mine) is type(theirs), (index, name)
            assert mine == theirs, (index, name)


@pytest.mark.parametrize("name", kernel_names())
def test_bulk_rows_equal_single_rows_on_every_kernel(name):
    _assert_rows_equal_single_path(
        ColumnarTrace.from_records(kernel(name).trace(max_instructions=3000))
    )


def test_bulk_rows_equal_single_rows_on_a_loaded_entry():
    records = kernel("go").trace(max_instructions=2500)
    loaded = loads_trace(dumps_trace(records))
    assert "buffer-backed" in repr(loaded)
    _assert_rows_equal_single_path(loaded)
    assert [rec.seq for rec in loaded.rows()] == list(range(len(records)))


def test_bulk_rows_equal_single_rows_on_a_three_source_row():
    trace = ColumnarTrace.from_records(
        [_rec(0, 0, src_regs=(1, 2, 3), dest_reg=4, dest_value=9),
         _rec(1, 8, src_regs=(5,)),
         _rec(2, 16, src_regs=(1, 2, 3))]
    )
    _assert_rows_equal_single_path(trace)
    assert trace.rows()[0].src_regs == (1, 2, 3)


def test_bulk_rows_intern_src_regs_and_keep_rows_handed_out():
    trace = ColumnarTrace.from_records(kernel("compress").trace(max_instructions=800))
    early = trace[5]
    rows = trace.rows()
    assert rows[5] is early
    by_regs = {}
    for rec in rows[6:]:
        assert by_regs.setdefault(rec.src_regs, rec.src_regs) is rec.src_regs
        if rec.dest_value is not None and rec.dest_value == rec.dest_fold:
            assert rec.dest_fold is rec.dest_value
    for before, after in zip(rows[6:], rows[7:]):
        if before.next_pc == after.pc:
            assert after.pc is before.next_pc


@pytest.mark.parametrize("collector_on", [True, False])
def test_bulk_rows_restore_the_collector_after_a_bad_opcode(collector_on):
    import gc

    from repro.trace.columnar import new_columns, record_row, row_appender

    columns = new_columns()
    row = row_appender(columns)
    row(*record_row(_rec(0, 0)))
    row(*record_row(_rec(1, 8))[:-1], 0xFE)  # no opcode has code 0xFE
    trace = ColumnarTrace(columns, 2)
    was_enabled = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        with pytest.raises(ColumnarTraceError, match="0xfe at row 1"):
            trace.rows()
        assert gc.isenabled() is collector_on
    finally:
        (gc.enable if was_enabled else gc.disable)()
