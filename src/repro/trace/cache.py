"""Persistent, content-addressed on-disk trace cache.

Capturing a kernel trace means running the functional simulator for the
whole instruction budget: 1–3 ms per thousand records, or 0.15–0.35 s
for a whole-program xlisp run (127,519 records), on 2 shared vCPUs of an
Intel Xeon (docs/PERFORMANCE.md §17) — repeated identically by every
sweep, figure, benchmark run and CI job that needs the trace.  The
dynamic trace is a pure function of (kernel source, instruction limit),
so this module memoises it on disk: entries are VSRT v5 files
(:mod:`repro.trace.binary`) under a key derived from the benchmark name,
a hash of the kernel *source text*, and the limit.  A capture runs the
functional machine's execution core straight into a
:class:`~repro.trace.binary.TraceWriter`'s columns
(:meth:`KernelSpec.capture <repro.programs.suite.KernelSpec.capture>`),
so no per-instruction object is built.  A warm hit is served as a
:class:`~repro.trace.columnar.ColumnarTrace` over the entry's column
block: one read, one CRC pass, no per-record decode.

Content addressing makes invalidation automatic: editing a kernel changes
its source hash, which changes the file name, so stale entries are simply
never found again (``repro cache clear`` removes them, along with the
files older trace formats left behind and the temp files of writes
that never finished).  The engine-side representation
(``TraceRecord``) never enters the key — row views are rebuilt from the
columns on demand, so engine changes cannot be masked by a stale cache.

Configuration is via ``REPRO_TRACE_CACHE``, read by :mod:`repro.env`
under its one rule: unset — cache under ``repro/traces`` in the user
cache directory (:func:`repro.env.cache_home`, by default
``~/.cache/repro/traces``); a path — cache under that directory; an off
spelling (``off``, ``0``, empty, ...) — disable the cache entirely
(captures are then held in memory only).

Writes are atomic (temp file + ``os.replace``) so concurrent sweep
workers can share one cache directory without coordination: the worst
case is two workers capturing the same trace and one harmlessly
overwriting the other's identical entry.  A write that raises or is
interrupted deletes its temp file before the exception propagates.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro import env
from repro.trace.binary import (
    BinaryTraceError,
    TraceWriter,
    entry_records,
    loads_trace,
    open_trace,
)
from repro.trace.columnar import ColumnarTrace

ENV_VAR = "REPRO_TRACE_CACHE"

#: File suffix; bump together with the binary format's magic so readers
#: of a new format never even open old-format files.
_SUFFIX = ".vsrt5"

#: Suffixes of the entries older formats wrote: never read, only
#: removed by ``repro cache clear``.
_LEGACY_SUFFIXES = (".vsrt3", ".vsrt4")

#: Suffix of an entry's temp file (``.<entry>.<pid>.tmp``), renamed to
#: the entry when the write completes.
_TMP_SUFFIX = ".tmp"

#: Hex digits of the kernel-source SHA-256 kept in the key.
_HASH_CHARS = 16


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled.

    The directory is *not* created here — only writers create it, so
    read-only consumers (``repro cache info`` on a fresh machine) never
    touch the filesystem.
    """
    return env.directory(ENV_VAR, env.cache_home("traces"))


def cache_enabled() -> bool:
    return cache_dir() is not None


def source_hash(source: str) -> str:
    """Content hash of a kernel's source text (the invalidation key)."""
    return hashlib.sha256(source.encode()).hexdigest()[:_HASH_CHARS]


def trace_key(benchmark: str, source: str, max_instructions: int | None) -> str:
    """Content-addressed cache key: name, source hash, and limit."""
    limit = "full" if max_instructions is None else str(max_instructions)
    return f"{benchmark}-{source_hash(source)}-{limit}"


def trace_path(
    benchmark: str,
    source: str,
    max_instructions: int | None,
    *,
    directory: Path | None = None,
) -> Path | None:
    """Where the entry for this key lives in ``directory`` (default: the
    configured cache; ``None`` when that is disabled)."""
    if directory is None:
        directory = cache_dir()
        if directory is None:
            return None
    return directory / (trace_key(benchmark, source, max_instructions) + _SUFFIX)


def load_trace(
    benchmark: str,
    source: str,
    max_instructions: int | None,
    *,
    directory: Path | None = None,
) -> ColumnarTrace | None:
    """Return the cached trace for this key, or ``None`` on a miss.

    ``directory`` defaults to the configured cache.  The entry's CRC is
    checked once, here, so a corrupt entry is detected at load (treated
    as a miss and deleted — the next capture regenerates it), never
    mid-simulation.
    """
    path = trace_path(benchmark, source, max_instructions, directory=directory)
    if path is None or not path.is_file():
        return None
    try:
        return open_trace(path)
    except OSError:
        return None
    except BinaryTraceError:
        _unlink(path)
        return None


def cached_trace(
    benchmark: str,
    max_instructions: int | None = None,
    *,
    directory: Path | None = None,
) -> ColumnarTrace:
    """The dynamic trace for ``benchmark``, from disk when possible.

    This is the high-level entry the harness and CLI use in place of
    ``kernel(name).trace(limit)``: a hit skips the functional simulator
    entirely; a miss captures the trace and populates the cache (or
    ``directory``, which defaults to the configured cache) for the next
    caller.

    The functional machine writes each instruction's row straight into
    a :class:`~repro.trace.binary.TraceWriter` through
    :meth:`KernelSpec.capture`, so no per-instruction object is built.
    The entry goes to a temp file renamed into place; when the cache is
    off or unwritable the trace is held in memory only — caching is an
    optimisation, never a hard dependency.  The result has the same
    shape as a warm hit.
    """
    from repro.programs.suite import kernel

    spec = kernel(benchmark)
    cached = load_trace(
        benchmark, spec.source, max_instructions, directory=directory
    )
    if cached is not None:
        return cached
    writer = TraceWriter()
    spec.capture(writer, max_instructions)
    data = writer.getvalue()
    path = trace_path(
        benchmark, spec.source, max_instructions, directory=directory
    )
    if path is not None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}{_TMP_SUFFIX}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            _unlink(tmp)
        except BaseException:
            # Ctrl+C mid-write: leave no temp file behind.
            _unlink(tmp)
            raise
    return loads_trace(data)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# -- maintenance (the `repro cache` subcommand) ---------------------------


def cache_entries() -> list[Path]:
    """Every entry file currently in the cache directory."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return []
    return sorted(directory.glob(f"*{_SUFFIX}"))


def cache_info() -> dict:
    """Summary of the cache's location and contents.

    ``records`` maps each entry to its record count, read from its
    header alone (``None`` for an unreadable entry).  ``temp_files``
    counts the temp files of writes that never finished (``clear``
    removes them).
    """
    directory = cache_dir()
    entries = cache_entries()
    stranded = (
        _stranded_temp_files(directory)
        if directory is not None and directory.is_dir() else []
    )
    records: dict[str, int | None] = {}
    for path in entries:
        try:
            records[path.name] = entry_records(path)
        except (OSError, BinaryTraceError):
            records[path.name] = None
    return {
        "enabled": directory is not None,
        "dir": str(directory) if directory is not None else None,
        "entries": len(entries),
        "bytes": sum(path.stat().st_size for path in entries),
        "files": [path.name for path in entries],
        "records": records,
        "temp_files": len(stranded),
    }


def _stranded_temp_files(directory: Path) -> list[Path]:
    """Temp files of writes that never finished (a killed process)."""
    return sorted(directory.glob(f".*{_SUFFIX}.*{_TMP_SUFFIX}"))


def clear_cache() -> int:
    """Delete every cache entry, plus the entries older formats wrote
    (never read, so they would only strand disk space) and the temp
    files of writes that never finished; returns the number removed."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    legacy = [
        path for suffix in _LEGACY_SUFFIXES
        for path in sorted(directory.glob(f"*{suffix}"))
    ]
    for path in cache_entries() + legacy + _stranded_temp_files(directory):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def warm_cache(
    benchmarks: list[str], max_instructions: int | None = None
) -> dict[str, int]:
    """Capture-and-store each benchmark's trace; returns name -> length."""
    return {
        name: len(cached_trace(name, max_instructions)) for name in benchmarks
    }
