"""Persistent, content-addressed on-disk trace cache.

Capturing a kernel trace means running the functional simulator for the
whole instruction budget: 1–3 ms per thousand records, or 0.15–0.35 s
for a whole-program xlisp run (127,519 records), on 2 shared vCPUs of an
Intel Xeon (docs/PERFORMANCE.md §17) — repeated identically by every
sweep, figure, benchmark run and CI job that needs the trace.  The
dynamic trace is a pure function of (kernel source, instruction limit),
so this module memoises it on disk: entries are VSRT v4 files
(:mod:`repro.trace.binary`) under a key derived from the benchmark name,
a hash of the kernel *source text*, and the limit.  A capture runs the
functional machine's execution core straight into a
:class:`~repro.trace.binary.ChunkWriter` (:meth:`KernelSpec.capture
<repro.programs.suite.KernelSpec.capture>`), so its peak memory is
O(chunk) regardless of trace length.  A warm hit of one chunk — every
trace up to the chunk size — is served as that chunk's
:class:`~repro.trace.columnar.ColumnarTrace`: one read, one CRC pass,
no per-record decode.  Longer entries are served as a
:class:`~repro.trace.columnar.ChunkedTrace`, one chunk at a time.

Content addressing makes invalidation automatic: editing a kernel changes
its source hash, which changes the file name, so stale entries are simply
never found again (``repro cache clear`` removes them, along with the
files older trace formats left behind and the temp files of captures
that never finished).  The engine-side representation
(``TraceRecord``) never enters the key — row views are rebuilt from the
columns on demand, so engine changes cannot be masked by a stale cache.

Configuration is via environment variables:

* ``REPRO_TRACE_CACHE`` unset — cache under ``$XDG_CACHE_HOME/repro/traces``
  (falling back to ``~/.cache/repro/traces``); a path — cache under that
  directory; ``off``, ``none``, ``0`` or empty — disable the cache
  entirely (captures are then held in memory only).
* ``REPRO_TRACE_CHUNK`` — records per chunk (a positive integer;
  default 1M).

Writes are atomic (temp file + ``os.replace``) so concurrent sweep
workers can share one cache directory without coordination: the worst
case is two workers capturing the same trace and one harmlessly
overwriting the other's identical entry.  A capture that raises or is
interrupted deletes its temp file before the exception propagates.
"""

from __future__ import annotations

import hashlib
import io
import os
from pathlib import Path

from repro.trace.binary import (
    DEFAULT_CHUNK_RECORDS,
    BinaryTraceError,
    ChunkWriter,
    chunked_entry_info,
    loads_trace_chunked,
    open_trace,
    read_trace_chunked,
)
from repro.trace.columnar import ChunkedTrace, ColumnarTrace

ENV_VAR = "REPRO_TRACE_CACHE"

#: Env var: records per chunk for streaming capture and cache entries.
#: Unset = the format default (1M records); otherwise a positive integer.
CHUNK_ENV_VAR = "REPRO_TRACE_CHUNK"

#: ``REPRO_TRACE_CACHE`` values that turn the cache off.  Any common
#: falsy spelling disables the cache everywhere rather than being
#: misread as a relocation path named "false"/"no".
_DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled", "false", "no"})

#: File suffix; bump together with the binary format's magic so readers
#: of a new format never even open old-format files.
_SUFFIX = ".vsrt4"

#: Suffix of a capture's temp file (``.<entry>.<pid>.tmp``), renamed to
#: the entry when the capture completes.
_TMP_SUFFIX = ".tmp"

#: Hex digits of the kernel-source SHA-256 kept in the key.
_HASH_CHARS = 16


def chunk_records() -> int:
    """Records per chunk from ``REPRO_TRACE_CHUNK``."""
    raw = os.environ.get(CHUNK_ENV_VAR)
    if raw is None:
        return DEFAULT_CHUNK_RECORDS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"{CHUNK_ENV_VAR}={raw!r} is not a positive integer "
            "(records per chunk)"
        )
    return value


def cache_dir() -> Path | None:
    """The configured cache directory, or ``None`` when disabled.

    The directory is *not* created here — only writers create it, so
    read-only consumers (``repro cache info`` on a fresh machine) never
    touch the filesystem.
    """
    override = os.environ.get(ENV_VAR)
    if override is not None:
        if override.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


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
) -> ColumnarTrace | ChunkedTrace | None:
    """Return the cached trace for this key, or ``None`` on a miss.

    ``directory`` defaults to the configured cache.  Every chunk's CRC
    is checked once, here, so a corrupt entry is detected at load
    (treated as a miss and deleted — the next capture regenerates it),
    never mid-simulation.  A one-chunk hit is a :class:`ColumnarTrace`;
    a longer one is a :class:`ChunkedTrace`.
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
) -> ColumnarTrace | ChunkedTrace:
    """The dynamic trace for ``benchmark``, from disk when possible.

    This is the high-level entry the harness and CLI use in place of
    ``kernel(name).trace(limit)``: a hit skips the functional simulator
    entirely; a miss captures the trace and populates the cache (or
    ``directory``, which defaults to the configured cache) for the next
    caller.

    Capture *streams*: the functional machine writes each instruction's
    row straight into a chunk writer (``REPRO_TRACE_CHUNK`` records per
    chunk) through :meth:`KernelSpec.capture`, so no per-instruction
    object is built and peak memory is O(chunk) regardless of trace
    length.  The writer targets a temp file renamed into place, or
    memory when the cache is off or unwritable — caching is an
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
    chunk = chunk_records()
    path = trace_path(
        benchmark, spec.source, max_instructions, directory=directory
    )
    if path is not None:
        tmp = path.with_name(f".{path.name}.{os.getpid()}{_TMP_SUFFIX}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with ChunkWriter(tmp, chunk) as writer:
                spec.capture(writer, max_instructions)
            os.replace(tmp, path)
            return read_trace_chunked(path).collapse()
        except OSError:
            _unlink(tmp)
        except BaseException:
            # Ctrl+C, a machine fault, ...: leave no temp file behind.
            _unlink(tmp)
            raise
    out = io.BytesIO()
    with ChunkWriter(out, chunk) as writer:
        spec.capture(writer, max_instructions)
    return loads_trace_chunked(out.getvalue()).collapse()


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

    ``geometry`` maps each entry to its chunk geometry — record and
    chunk counts, per-chunk payload sizes — read from the entry index
    alone, without loading any chunk data.  ``temp_files`` counts the
    temp files of captures that never finished (``clear`` removes them).
    """
    directory = cache_dir()
    entries = cache_entries()
    stranded = (
        _stranded_temp_files(directory)
        if directory is not None and directory.is_dir() else []
    )
    geometry: dict[str, dict] = {}
    for path in entries:
        try:
            geometry[path.name] = chunked_entry_info(path)
        except (OSError, BinaryTraceError):
            geometry[path.name] = {"error": "unreadable"}
    return {
        "enabled": directory is not None,
        "dir": str(directory) if directory is not None else None,
        "entries": len(entries),
        "bytes": sum(path.stat().st_size for path in entries),
        "files": [path.name for path in entries],
        "geometry": geometry,
        "temp_files": len(stranded),
    }


def _stranded_temp_files(directory: Path) -> list[Path]:
    """Temp files of captures that never finished (a killed process)."""
    return sorted(directory.glob(f".*{_SUFFIX}.*{_TMP_SUFFIX}"))


def clear_cache() -> int:
    """Delete every cache entry, plus the single-block entries older
    versions wrote (never read, so they would only strand disk space)
    and the temp files of captures that never finished; returns the
    number removed."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for path in (
        cache_entries()
        + sorted(directory.glob("*.vsrt3"))
        + _stranded_temp_files(directory)
    ):
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
