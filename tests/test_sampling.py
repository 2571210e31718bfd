"""Per-chunk basic-block-vector fingerprints and chunk-wise replay.

Phase sampling used to cluster the basic-block-vector (BBV) fingerprint
every VSRT v4 index entry carries, and to simulate chunk slices of
multi-chunk traces.  The sampler is gone; what it stood on stays.  The
fingerprint is part of every entry's bytes (``dumps_trace_chunked``
copies it through, so a rewritten entry is byte-identical), and
multi-chunk reads bound capture and replay memory.  These tests pin
both: a fingerprint is a deterministic function of its chunk's own
records, and an exact run over many chunks equals the in-memory run
while holding only a couple of chunks.
"""

from __future__ import annotations

import io

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_baseline
from repro.programs.suite import kernel
from repro.trace.binary import (
    BBV_DIM,
    ChunkWriter,
    _bbv_bucket,
    dumps_trace_chunked,
    loads_trace_chunked,
)
from repro.trace.cache import CHUNK_ENV_VAR, chunk_records
from repro.trace.columnar import ChunkedTrace, ColumnarTrace, as_columnar
from repro.trace.synthetic import SyntheticTraceConfig, generate_synthetic_trace

_SEGMENT = 6_000  # records per kernel segment: three 2k chunks
_CHUNK = 2_000

_MEMO: dict = {}


def _kernel_records(name: str) -> list:
    if name not in _MEMO:
        _MEMO[name] = kernel(name).trace(max_instructions=_SEGMENT)
    return _MEMO[name]


def _chunked(records, chunk: int = _CHUNK, **writer_options) -> ChunkedTrace:
    out = io.BytesIO()
    with ChunkWriter(out, chunk, **writer_options) as writer:
        writer.extend(records)
    return loads_trace_chunked(out.getvalue())


def _leaders(records) -> list[int]:
    """Leader PC of every basic block of one chunk, block by block: a
    block ends at a control-flow instruction or at the chunk's end."""
    leaders = []
    starts_block = True
    for rec in records:
        if starts_block:
            leaders.append(rec.pc)
        starts_block = rec.opcode.opclass.is_control
    return leaders


def _walk_bbv(records, dim: int = BBV_DIM) -> tuple[int, ...]:
    """A chunk's fingerprint recomputed from its records."""
    bbv = [0] * dim
    leader = None
    for rec in records:
        if leader is None:
            leader = rec.pc
        bbv[_bbv_bucket(leader, dim)] += 1
        if rec.opcode.opclass.is_control:
            leader = None
    return tuple(bbv)


def _chunks(records, chunk: int = _CHUNK) -> list[list]:
    return [records[i:i + chunk] for i in range(0, len(records), chunk)]


# -- the fingerprint's shape ------------------------------------------------


class TestKMeans:
    """Fingerprint buckets: ``bbv_dim`` of them, filled by leader PC."""

    def test_deterministic_for_fixed_seed(self):
        config = SyntheticTraceConfig(length=9_000, seed=7)
        first = dumps_trace_chunked(generate_synthetic_trace(config), _CHUNK)
        second = dumps_trace_chunked(generate_synthetic_trace(config), _CHUNK)
        assert first == second
        assert loads_trace_chunked(first).bbvs() == loads_trace_chunked(
            second
        ).bbvs()

    def test_separates_obvious_clusters(self):
        """Chunks of two different programs never share a fingerprint."""
        compress = _chunked(_kernel_records("compress")).bbvs()
        perl = _chunked(_kernel_records("perl")).bbvs()
        assert not set(compress) & set(perl)

    def test_k_capped_by_distinct_points(self):
        """A chunk fills at most one bucket per distinct leader PC."""
        records = _kernel_records("gcc")
        trace = _chunked(records)
        for bbv, chunk in zip(trace.bbvs(), _chunks(records)):
            filled = sum(1 for count in bbv if count)
            assert 1 <= filled <= min(len(set(_leaders(chunk))), BBV_DIM)

    def test_single_cluster(self):
        """With one bucket, a chunk's fingerprint is its record count."""
        trace = _chunked(_kernel_records("compress"), bbv_dim=1)
        assert trace.bbvs() == tuple((count,) for count in trace.counts)

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            ChunkWriter(io.BytesIO(), _CHUNK, bbv_dim=0)
        assert _chunked([]).bbvs() == ()


class TestFingerprints:
    def test_index_and_walk_agree(self):
        """A v4 entry's stored BBVs equal a walk over each chunk's
        records, whichever form the trace was written from."""
        records = _kernel_records("m88ksim")
        from_walk = tuple(_walk_bbv(chunk) for chunk in _chunks(records))
        assert _chunked(records).bbvs() == from_walk
        columnar = loads_trace_chunked(dumps_trace_chunked(as_columnar(records)))
        assert columnar.bbvs() == (_walk_bbv(records),)

    def test_counts_and_geometry(self):
        records = _kernel_records("perl")[:5_500]
        trace = _chunked(records)
        assert trace.chunk_size == _CHUNK
        assert trace.counts == (_CHUNK, _CHUNK, 1_500)
        assert all(len(bbv) == BBV_DIM for bbv in trace.bbvs())
        assert [sum(bbv) for bbv in trace.bbvs()] == list(trace.counts)

    def test_chunk_size_required_for_plain_traces(self):
        """A record list is cut by the chunk size it is written with; a
        chunked trace keeps its own chunks and fingerprints."""
        records = _kernel_records("compress")
        with pytest.raises(ValueError):
            dumps_trace_chunked(records, 0)
        trace = _chunked(records)
        rewritten = loads_trace_chunked(dumps_trace_chunked(trace, 0))
        assert rewritten.counts == trace.counts
        assert rewritten.bbvs() == trace.bbvs()


# -- chunk geometry ---------------------------------------------------------


class TestPlanPhases:
    """How a trace is cut into chunks, and what each chunk carries."""

    def test_recovers_the_schedule(self):
        """Chunk fingerprints repeat exactly where the workload does."""
        a = _kernel_records("compress")
        b = _kernel_records("perl")
        bbvs = _chunked(a + b + a).bbvs()
        per_segment = _SEGMENT // _CHUNK
        first, middle, last = (
            bbvs[i:i + per_segment]
            for i in range(0, len(bbvs), per_segment)
        )
        assert first == last
        assert not set(first) & set(middle)

    def test_plan_invariants(self):
        """Each chunk's rows carry their global position in the trace."""
        records = _kernel_records("gcc")[:5_500]
        trace = _chunked(records)
        start = 0
        for index, count in enumerate(trace.counts):
            chunk = trace.chunk(index)
            assert len(chunk) == count
            assert chunk[0].seq == start and chunk[-1].seq == start + count - 1
            start += count
        assert start == len(trace) == len(records)
        assert len(trace.bbvs()) == trace.chunk_count

    def test_deterministic(self):
        """Streaming, bulk and re-serialized writes give the same bytes,
        fingerprints included."""
        records = _kernel_records("m88ksim")
        streamed = io.BytesIO()
        with ChunkWriter(streamed, _CHUNK) as writer:
            for rec in records:
                writer.append(rec)
        bulk = dumps_trace_chunked(records, _CHUNK)
        again = dumps_trace_chunked(loads_trace_chunked(bulk))
        assert streamed.getvalue() == bulk == again

    def test_k_clamped_to_chunk_count(self):
        """A trace no longer than the chunk size is one chunk with one
        fingerprint, served as a plain columnar trace."""
        records = _kernel_records("compress")
        trace = _chunked(records, chunk=len(records))
        assert trace.chunk_count == 1 and len(trace.bbvs()) == 1
        collapsed = trace.collapse()
        assert isinstance(collapsed, ColumnarTrace)
        assert collapsed == records

    def test_rejects_bad_inputs(self):
        trace = _chunked(_kernel_records("compress"))
        with pytest.raises(IndexError):
            trace.chunk(trace.chunk_count)
        with pytest.raises(ValueError):
            ChunkedTrace(trace._source, keep_chunks=0)


# -- exact replay over many chunks ------------------------------------------


class TestRunSampled:
    """The engine over a multi-chunk trace: exact, bounded memory."""

    def test_deterministic(self):
        trace = _chunked(_kernel_records("compress"), chunk=500)
        first = run_baseline(trace, ProcessorConfig())
        second = run_baseline(trace, ProcessorConfig())
        assert first.counters == second.counters

    def test_simulates_fraction_of_trace(self):
        """Replay holds a fraction of the trace — at most two chunks —
        yet retires every record."""
        trace = _chunked(_kernel_records("perl"), chunk=500)
        assert trace.chunk_count == 12
        result = run_baseline(trace, ProcessorConfig())
        assert result.counters.retired == len(trace)
        assert len(trace.loaded_chunks) <= 2

    def test_works_on_chunked_trace(self):
        records = _kernel_records("gcc")
        chunked = _chunked(records, chunk=700)
        assert chunked.chunk_count > 1
        from_chunked = run_baseline(chunked, ProcessorConfig(4, 24))
        from_records = run_baseline(records, ProcessorConfig(4, 24))
        assert from_chunked.counters == from_records.counters


# -- the chunk plane's environment knob -------------------------------------


class TestEnv:
    """``REPRO_TRACE_CHUNK``: records per chunk of a cache entry."""

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "5")
        assert chunk_records() == 5

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "many")
        with pytest.raises(ValueError, match=CHUNK_ENV_VAR):
            chunk_records()
