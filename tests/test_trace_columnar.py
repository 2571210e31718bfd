"""Columnar trace plane: struct-of-arrays traces, one VSRT v4 chunk
each, and zero-copy distribution to sweep workers.

Three layers under test, mirroring docs/PERFORMANCE.md ("Columnar trace
plane"):

* :class:`repro.trace.columnar.ColumnarTrace` — row-view equivalence
  with ``list[TraceRecord]``, lazy memoized materialization, packing
  limits;
* a ColumnarTrace as one v4 chunk (:mod:`repro.trace.binary`) — round
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
from repro.programs.suite import KernelSpec, kernel
from repro.trace import cache as trace_cache
from repro.trace.binary import (
    BinaryTraceError,
    chunk_layout,
    dumps_trace_chunked,
    loads_trace_chunked,
    open_trace,
    write_trace_chunked,
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
    # cache's one capture path, straight into a chunk writer).
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


# -- one-chunk v4 round trips, including the edges -------------------------

#: Byte offset of the only chunk's payload in a v4 image (after the
#: 48-byte header).
_CHUNK0 = 48


def _round_trip(records):
    """``records`` through v4 bytes and back, as the one-chunk
    ColumnarTrace a cache hit returns."""
    loaded = loads_trace_chunked(dumps_trace_chunked(records)).collapse()
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
    path = tmp_path / "trace.vsrt4"
    write_trace_chunked(records, path)
    loaded = open_trace(path)
    assert isinstance(loaded, ColumnarTrace)
    assert loaded == records


def test_chunk_layout_is_aligned_and_exact():
    offsets, size = chunk_layout(7)
    assert all(offset % 8 == 0 for offset in offsets.values())
    trace = as_columnar(kernel("compress").trace(max_instructions=7))
    blob = dumps_trace_chunked(trace)
    # Header, the one chunk's payload padded to 8 bytes, then one index
    # entry (offset, count, crc, pad, 32 fingerprint buckets).
    entry = 8 + 8 + 4 + 4 + 4 * 32
    assert len(blob) == _CHUNK0 + ((size + 7) & ~7) + entry
    for name, _typecode, itemsize in COLUMN_SPEC:
        start = _CHUNK0 + offsets[name]
        assert blob[start : start + 7 * itemsize] == trace.column_bytes(name)


def test_v4_bad_magic_rejected():
    with pytest.raises(BinaryTraceError, match="magic"):
        loads_trace_chunked(b"NOPE" + bytes(60))


def test_v4_truncated_rejected():
    blob = dumps_trace_chunked(kernel("compress").trace(max_instructions=20))
    with pytest.raises(BinaryTraceError, match="header"):
        loads_trace_chunked(blob[:10])
    with pytest.raises(BinaryTraceError):
        loads_trace_chunked(blob[:-8])
    with pytest.raises(BinaryTraceError, match="index"):
        loads_trace_chunked(blob + bytes(8))


def test_v4_truncated_file_rejected(tmp_path):
    path = tmp_path / "clipped.vsrt4"
    blob = dumps_trace_chunked(kernel("compress").trace(max_instructions=20))
    path.write_bytes(blob[:-16])
    with pytest.raises(BinaryTraceError):
        open_trace(path)
    path.write_bytes(b"")
    with pytest.raises(BinaryTraceError, match="header"):
        open_trace(path)


def test_v4_unknown_opcode_rejected():
    offsets, _size = chunk_layout(1)
    used = {op.code for op in Opcode}
    trace = as_columnar([_rec(0, 0)])
    trace.opcode[0] = next(c for c in range(256) if c not in used)
    # Written through the writer, so the chunk CRC matches: the opcode
    # check itself must reject it.
    blob = dumps_trace_chunked(trace)
    assert blob[_CHUNK0 + offsets["opcode"]] == trace.opcode[0]
    with pytest.raises(BinaryTraceError, match="opcode"):
        loads_trace_chunked(blob).collapse()


def test_v4_load_is_zero_parse(tmp_path):
    path = tmp_path / "trace.vsrt4"
    write_trace_chunked(kernel("compress").trace(max_instructions=200), path)
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
    flipped[_CHUNK0 + 100] ^= 0xFF  # inside the one chunk: fails its CRC

    # The second one carries a plausible v4 magic but a garbage body.
    corruptions = (
        good[:-24],
        b"VSRT\x04" + b"\x00" * 59,
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
