"""Persistent on-disk trace cache: keys, hits, invalidation, wiring."""

from __future__ import annotations

import itertools

import pytest

from repro.programs.suite import KernelSpec, kernel
from repro.trace import cache as trace_cache
from repro.trace.binary import dumps_trace
from repro.trace.record import TraceRecord


def _store(benchmark, source, limit, records):
    """Write ``records`` as the cache entry for this key; returns its path."""
    path = trace_cache.trace_path(benchmark, source, limit)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(dumps_trace(records))
    return path


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Point the cache at a private directory for the test."""
    directory = tmp_path / "traces"
    monkeypatch.setenv(trace_cache.ENV_VAR, str(directory))
    return directory


@pytest.fixture()
def capture_counter(monkeypatch):
    """Count functional-simulator trace captures, through either entry
    point: the in-memory KernelSpec.trace and KernelSpec.capture (the
    trace cache's one capture path)."""
    calls = {"count": 0}
    original = KernelSpec.trace
    original_capture = KernelSpec.capture

    def counting(self, max_instructions=None):
        calls["count"] += 1
        return original(self, max_instructions)

    def counting_capture(self, writer, max_instructions=None):
        calls["count"] += 1
        return original_capture(self, writer, max_instructions)

    monkeypatch.setattr(KernelSpec, "trace", counting)
    monkeypatch.setattr(KernelSpec, "capture", counting_capture)
    return calls


# -- key scheme ----------------------------------------------------------


def test_key_contains_name_hash_and_limit():
    key = trace_cache.trace_key("compress", "SOURCE TEXT", 500)
    name, digest, limit = key.rsplit("-", 2)
    assert name == "compress"
    assert digest == trace_cache.source_hash("SOURCE TEXT")
    assert limit == "500"
    assert trace_cache.trace_key("compress", "SOURCE TEXT", None).endswith(
        "-full"
    )


def test_key_changes_with_source():
    assert trace_cache.trace_key("go", "a", 10) != trace_cache.trace_key(
        "go", "b", 10
    )


def test_env_disables_cache(monkeypatch):
    for value in ("off", "0", "none", ""):
        monkeypatch.setenv(trace_cache.ENV_VAR, value)
        assert trace_cache.cache_dir() is None
        assert not trace_cache.cache_enabled()
        assert trace_cache.trace_path("x", "s", 1) is None
        assert trace_cache.load_trace("x", "s", 1) is None


def test_env_falsy_spellings_disable_not_relocate(monkeypatch, tmp_path):
    """Regression: "false"/"no" (and case/space variants) must disable the
    cache, not be interpreted as a relocation directory of that name."""
    monkeypatch.chdir(tmp_path)
    for value in ("false", "no", "False", "NO", " off ", "Disabled"):
        monkeypatch.setenv(trace_cache.ENV_VAR, value)
        assert trace_cache.cache_dir() is None, value
        assert not trace_cache.cache_enabled()
        assert trace_cache.trace_path("x", "s", 1) is None
        assert trace_cache.cache_entries() == []
    # No stray "false"/"no" directories were created anywhere nearby.
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_env_disabled_cached_trace_no_writes(monkeypatch, tmp_path, capture_counter):
    """cached_trace must work (re-capturing each time) with the cache off,
    without creating any directory."""
    from repro.trace.cache import cached_trace

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(trace_cache.ENV_VAR, "false")
    first = cached_trace("compress", 50)
    second = cached_trace("compress", 50)
    assert [r.seq for r in first] == [r.seq for r in second]
    assert capture_counter["count"] == 2  # no cache hit: captured both times
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_env_overrides_location(cache_dir):
    assert trace_cache.cache_dir() == cache_dir


# -- store / load round trip ---------------------------------------------


def test_round_trip_preserves_records(cache_dir):
    trace = kernel("compress").trace(200)
    path = _store("compress", "src", 200, trace)
    assert path.is_file()
    loaded = trace_cache.load_trace("compress", "src", 200)
    assert loaded == trace
    # Engine-critical derived fields survive the round trip too.
    assert [r.dest_fold for r in loaded] == [r.dest_fold for r in trace]
    assert [r.exec_latency for r in loaded] == [r.exec_latency for r in trace]


def test_miss_on_unknown_key(cache_dir):
    assert trace_cache.load_trace("compress", "src", 123) is None


def test_stale_source_hash_invalidates(cache_dir):
    trace = kernel("compress").trace(50)
    _store("compress", "old source", 50, trace)
    # Same benchmark and limit, edited kernel source: must be a miss.
    assert trace_cache.load_trace("compress", "new source", 50) is None
    assert trace_cache.load_trace("compress", "old source", 50) == trace


def test_corrupt_entry_is_miss_and_removed(cache_dir):
    trace = kernel("compress").trace(20)
    path = _store("compress", "src", 20, trace)
    path.write_bytes(b"VSRT\x02garbage-not-varints")
    assert trace_cache.load_trace("compress", "src", 20) is None
    assert not path.exists()


# -- cached_trace orchestration ------------------------------------------


def test_cached_trace_hits_skip_capture(cache_dir, capture_counter):
    first = trace_cache.cached_trace("compress", 150)
    assert capture_counter["count"] == 1
    second = trace_cache.cached_trace("compress", 150)
    assert capture_counter["count"] == 1  # served from disk
    assert second == first
    assert isinstance(second[0], TraceRecord)


def test_cached_trace_distinguishes_limits(cache_dir, capture_counter):
    trace_cache.cached_trace("compress", 60)
    trace_cache.cached_trace("compress", 61)
    assert capture_counter["count"] == 2


def test_cached_trace_works_disabled(monkeypatch, capture_counter):
    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    trace = trace_cache.cached_trace("compress", 40)
    assert len(trace) == 40
    assert capture_counter["count"] == 1


# -- maintenance ----------------------------------------------------------


def test_info_and_clear(cache_dir):
    assert trace_cache.cache_info()["entries"] == 0
    trace_cache.cached_trace("compress", 30)
    trace_cache.cached_trace("m88ksim", 30)
    info = trace_cache.cache_info()
    assert info["enabled"] and info["entries"] == 2 and info["bytes"] > 0
    assert trace_cache.clear_cache() == 2
    assert trace_cache.cache_info()["entries"] == 0


def test_clear_removes_legacy_entries(cache_dir):
    """Files older versions stored under the retired ``.vsrt3`` and
    ``.vsrt4`` suffixes are never read again; ``clear`` deletes them
    with the live entries and leaves unrelated files alone."""
    trace_cache.cached_trace("compress", 30)
    (cache_dir / "compress-0123456789abcdef-500.vsrt3").write_bytes(
        b"VSRT\x03" + bytes(11)
    )
    # A chunked entry under this very key: a miss, never opened.
    (entry,) = cache_dir.glob("*.vsrt5")
    entry.with_suffix(".vsrt4").write_bytes(b"VSRT\x04" + bytes(43))
    unrelated = cache_dir / "notes.txt"
    unrelated.write_text("keep")
    info = trace_cache.cache_info()
    assert info["files"] == [entry.name]
    assert trace_cache.clear_cache() == 3
    assert not list(cache_dir.glob("*.vsrt*"))
    assert unrelated.exists()


def test_interrupted_capture_leaves_no_temp_file(cache_dir, monkeypatch):
    """A capture stopped by anything, not only an OSError (Ctrl+C here,
    at the 100th record, then between writing the temp file and renaming
    it), leaves no file behind; ``clear`` also deletes temp files a
    killed capture stranded, and counts them."""
    original = KernelSpec.capture

    def interrupted(self, writer, max_instructions=None):
        row = writer.row
        rows = itertools.count(1)

        def interrupting(*fields):
            if next(rows) == 100:
                raise KeyboardInterrupt
            row(*fields)

        writer.row = interrupting
        return original(self, writer, max_instructions)

    monkeypatch.setattr(KernelSpec, "capture", interrupted)
    with pytest.raises(KeyboardInterrupt):
        trace_cache.cached_trace("compress", 500)
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []
    assert trace_cache.clear_cache() == 0

    monkeypatch.setattr(KernelSpec, "capture", original)
    real_replace = trace_cache.os.replace

    def interrupted_replace(src, dst):
        assert src.is_file()  # the temp file was written
        raise KeyboardInterrupt

    monkeypatch.setattr(trace_cache.os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        trace_cache.cached_trace("compress", 500)
    assert list(cache_dir.iterdir()) == []
    assert trace_cache.clear_cache() == 0

    monkeypatch.setattr(trace_cache.os, "replace", real_replace)
    trace_cache.cached_trace("compress", 500)
    (entry,) = cache_dir.glob("*.vsrt5")
    stranded = cache_dir / f".{entry.name}.4242.tmp"
    stranded.write_bytes(b"partial")
    assert trace_cache.cache_info()["temp_files"] == 1
    assert trace_cache.clear_cache() == 2
    assert list(cache_dir.iterdir()) == []


def test_warm_cache(cache_dir, capture_counter):
    lengths = trace_cache.warm_cache(["compress", "perl"], 80)
    assert lengths == {"compress": 80, "perl": 80}
    assert capture_counter["count"] == 2
    trace_cache.warm_cache(["compress", "perl"], 80)
    assert capture_counter["count"] == 2  # all hits


# -- harness wiring -------------------------------------------------------


def test_warm_sweep_runs_zero_functional_simulations(
    cache_dir, capture_counter, monkeypatch
):
    """Acceptance: a second sweep over a warm cache never executes the
    functional simulator."""
    from repro.engine.config import ProcessorConfig
    from repro.core.model import GREAT_MODEL
    from repro.harness import parallel

    jobs = [
        parallel.SimJob("compress", ProcessorConfig(4, 24), None, 300),
        parallel.SimJob("compress", ProcessorConfig(4, 24), GREAT_MODEL, 300),
    ]
    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    cold = parallel.run_jobs(jobs, jobs=1)
    assert capture_counter["count"] == 1

    # Fresh process memo (as a new sweep process would have): the disk
    # tier alone must satisfy every trace request.
    monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
    warm = parallel.run_jobs(jobs, jobs=1)
    assert capture_counter["count"] == 1
    assert [r.counters.retired for r in warm] == [
        r.counters.retired for r in cold
    ]
    assert [r.cycles for r in warm] == [r.cycles for r in cold]


def test_execute_does_not_touch_global_random(cache_dir):
    """The per-job seed must not reseed the process-wide RNG."""
    import random

    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel

    random.seed(1234)
    expected = random.Random(1234).random()
    parallel._execute(
        parallel.SimJob("compress", ProcessorConfig(4, 24), None, 100)
    )
    assert random.random() == expected


# -- CLI ------------------------------------------------------------------


def test_cli_cache_commands(cache_dir, capsys):
    from repro.cli import main

    assert main(["cache", "warm", "--benchmarks", "compress",
                 "--max-instructions", "40"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "40" in out

    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "enabled" in out and str(cache_dir) in out
    (entry,) = trace_cache.cache_entries()
    assert f"{entry.name}  40 records" in out
    assert "v3" not in out

    assert main(["cache", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_cli_cache_warm_disabled_errors(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv(trace_cache.ENV_VAR, "off")
    assert main(["cache", "warm"]) == 2
    assert "disabled" in capsys.readouterr().err
