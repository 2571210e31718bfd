"""VSRT v5 trace entries: round-trips, edges, corruption and cache behavior.

An entry is one CRC-guarded column block.  Its correctness contract has
three parts: a loaded entry is *indistinguishable* from the in-memory
trace to every consumer (same records, same seq numbers, same engine
results); the edges (empty and one-record traces, slices, negative
indices) round-trip; and corruption anywhere in a cache entry is
detected at load and heals by regeneration.  (Test names keep the
vocabulary of the chunked format this module was written for, so their
ids stay stable.)
"""

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_baseline
from repro.trace.binary import (
    HEADER_SIZE,
    BinaryTraceError,
    dumps_trace,
    loads_trace,
    open_trace,
)
from repro.trace.columnar import ColumnarTrace, as_columnar
from repro.trace.synthetic import SyntheticTraceConfig, generate_synthetic_trace


def synth(length: int, seed: int = 11):
    return generate_synthetic_trace(
        SyntheticTraceConfig(length=length, seed=seed)
    )


@pytest.fixture
def records():
    return synth(2_500)


def _write(records, path):
    path.write_bytes(dumps_trace(records))
    return path


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_file_round_trip(self, records, tmp_path):
        trace = open_trace(_write(records, tmp_path / "t.vsrt5"))
        assert isinstance(trace, ColumnarTrace)
        assert len(trace) == len(records)
        assert list(trace) == records

    def test_buffer_round_trip(self, records):
        trace = loads_trace(dumps_trace(records))
        assert list(trace) == records

    def test_dumps_of_columnar_trace_matches_records(self, records):
        # A ColumnarTrace is written straight from its columns: same
        # bytes as the records, no row built; a loaded entry writes back
        # byte for byte.
        columnar = as_columnar(records)
        data = dumps_trace(columnar)
        assert data == dumps_trace(records)
        assert columnar.materialized_rows == 0
        loaded = loads_trace(data)
        assert dumps_trace(loaded) == data
        assert loaded.materialized_rows == 0

    def test_warm_load_checks_each_chunk_crc_once(
        self, records, tmp_path, monkeypatch
    ):
        from repro.trace import binary

        calls = {"n": 0}
        real_crc32 = binary.zlib.crc32

        def counting_crc32(data):
            calls["n"] += 1
            return real_crc32(data)

        path = _write(records, tmp_path / "t.vsrt5")
        monkeypatch.setattr(binary.zlib, "crc32", counting_crc32)
        trace = open_trace(path)
        assert list(trace) == records  # every row read again
        assert calls["n"] == 1  # the block, once


class TestEdges:
    def test_empty_trace(self, tmp_path):
        trace = open_trace(_write([], tmp_path / "empty.vsrt5"))
        assert len(trace) == 0
        assert list(trace) == []

    def test_single_record(self, tmp_path):
        recs = synth(1)
        trace = open_trace(_write(recs, tmp_path / "t.vsrt5"))
        assert len(trace) == 1
        assert list(trace) == recs

    def test_slicing_and_negative_index(self, records):
        trace = loads_trace(dumps_trace(records))
        assert trace[10:13] == records[10:13]
        assert trace[398:402] == records[398:402]
        assert trace[-5] == records[-5]
        assert trace[-1] == records[-1]

    def test_equality(self, records):
        trace = loads_trace(dumps_trace(records))
        assert trace == records
        assert trace == as_columnar(records)
        assert trace != records[:-1]

    def test_to_records_and_as_columnar(self, records):
        trace = loads_trace(dumps_trace(records))
        assert trace.to_records() == records
        assert as_columnar(trace) is trace


class TestCorruption:
    def test_truncated_file_detected(self, records, tmp_path):
        path = _write(records, tmp_path / "t.vsrt5")
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(BinaryTraceError, match="size"):
            open_trace(path)
        path.write_bytes(data[:HEADER_SIZE - 1])
        with pytest.raises(BinaryTraceError, match="header"):
            open_trace(path)

    def test_corrupt_middle_chunk_detected_by_verify(self, records, tmp_path):
        """A flipped byte in the middle of the column block fails its CRC
        at load."""
        path = _write(records, tmp_path / "t.vsrt5")
        _flip(path, (HEADER_SIZE + path.stat().st_size) // 2)
        with pytest.raises(BinaryTraceError, match="CRC"):
            open_trace(path)

    def test_index_corruption_detected(self, records, tmp_path):
        """A flipped header byte is rejected before any row is served."""
        for offset, problem in (
            (0, "magic"),  # the magic
            (8, "size"),  # the record count
            (16, "CRC"),  # the block CRC
        ):
            path = _write(records, tmp_path / "t.vsrt5")
            _flip(path, offset)
            with pytest.raises(BinaryTraceError, match=problem):
                open_trace(path)

    def test_corrupt_cache_entry_regenerates(self, monkeypatch, tmp_path):
        """A corrupt cache entry is a miss: the entry is deleted and the
        next cached_trace call recaptures it."""
        from repro.trace import cache as trace_cache

        from repro.programs.suite import kernel

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        first = trace_cache.cached_trace("compress", 1_600)
        expected = list(first)
        (entry,) = tmp_path.glob("*.vsrt5")
        _flip(entry, HEADER_SIZE + 700)
        assert trace_cache.load_trace(
            "compress", kernel("compress").source, 1_600
        ) is None
        assert not entry.exists()
        again = trace_cache.cached_trace("compress", 1_600)
        assert list(again) == expected
        # The regenerated entry must itself be loadable and clean.
        reloaded = trace_cache.load_trace(
            "compress", kernel("compress").source, 1_600
        )
        assert reloaded is not None
        assert list(reloaded) == expected


class TestCacheIntegration:
    def test_short_capture_is_one_chunk(self, monkeypatch, tmp_path):
        """A capture is one ``.vsrt5`` entry served as a ColumnarTrace,
        cold and warm alike, with no temp file left behind."""
        from repro.trace import cache as trace_cache
        from repro.trace.binary import entry_records

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        cold = trace_cache.cached_trace("compress", 1_000)
        assert isinstance(cold, ColumnarTrace)
        (entry,) = tmp_path.glob("*.vsrt5")
        assert entry_records(entry) == 1_000
        warm = trace_cache.cached_trace("compress", 1_000)
        assert isinstance(warm, ColumnarTrace)
        assert warm == cold
        assert list(tmp_path.iterdir()) == [entry]

    def test_cache_info_reports_chunk_breakdown(self, monkeypatch, tmp_path):
        """``cache_info`` reports each entry's record count from its
        header, and an unreadable entry as ``None``."""
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        trace_cache.cached_trace("compress", 2_000)
        trace_cache.cached_trace("compress", 400)
        info = trace_cache.cache_info()
        assert info["entries"] == 2
        assert sorted(info["records"].values()) == [400, 2_000]
        (short,) = tmp_path.glob("*-400.vsrt5")
        short.write_bytes(short.read_bytes()[:-1])
        assert trace_cache.cache_info()["records"][short.name] is None

    def test_warm_cache_without_materializing(self, monkeypatch, tmp_path):
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        lengths = trace_cache.warm_cache(["compress"], 2_000)
        assert lengths == {"compress": 2_000}
        assert list(tmp_path.glob("*.vsrt5"))


class TestEngineConsumption:
    def test_engine_identical_on_chunked_trace(self, records):
        config = ProcessorConfig()
        exact = run_baseline(as_columnar(records), config)
        loaded = run_baseline(loads_trace(dumps_trace(records)), config)
        assert exact.counters == loaded.counters
