"""Persistent, content-addressed result store for simulation outcomes.

The design-space study this repo reproduces re-evaluates the same grid
points endlessly: every sweep axis, figure, ablation and follow-on study
revisits configurations that were already simulated, often on another
day by another process.  A timing result is a pure function of its
:class:`~repro.harness.parallel.SimJob` — the content hash
:func:`repro.cluster.serial.job_key` *is* its identity — so this module
memoises serialized results on disk exactly the way the trace cache
(:mod:`repro.trace.cache`) memoises traces, generalizing the same VSRT
discipline from instruction streams to :class:`SimCounters`:

* **content addressing** — entries are keyed by ``job_key``, so editing
  any job setting (config field, model latency, predictor factory
  argument) changes the key and stale entries are simply never found;
* **version-tagged entries** — every entry records the store format
  version; a reader that finds any other version treats the entry as a
  miss and deletes it, so format bumps cannot serve misdecoded results;
* **corruption-tolerant reads** — a torn, truncated or bit-flipped
  entry (checked by a per-entry CRC over the canonical JSON body) is a
  miss, not an error, and is removed so the next store replaces it;
* **atomic, durable writes** — temp file, ``fsync``, ``os.replace``,
  then an ``fsync`` of the directory, so an entry that exists survived
  a crash, and concurrent writers (service executors, two services,
  racing clients) need no coordination: results are
  deterministic, so the worst case is one writer harmlessly overwriting
  another's bit-identical entry.  A crash before the rename leaves only
  a ``.<name>.<pid>.<tid>.tmp`` file, which reads as a miss and which
  :func:`clear_store` removes.

Entries are JSON (one file per key, ``<job_key>.vsres1``) holding the
result's wire form (:func:`repro.cluster.serial.result_to_wire`) —
JSON round-trips every counter exactly, so a store-served result
compares equal, bit for bit, to a freshly computed one.  The store is
the only persistence for results: the simulation service and
:func:`repro.harness.parallel.run_jobs` both read and write it.

Configuration is via the ``REPRO_RESULT_STORE`` environment variable:

* unset — **disabled** for direct harness runs (``repro serve``
  instead defaults to ``repro/results`` in the user cache directory,
  :func:`repro.env.cache_home` — see :func:`resolve_store`);
* a path — store under that directory (enables the
  :func:`repro.harness.parallel.run_jobs` warm-skip, and is the store
  of the ephemeral service the ``service`` backend starts);
* an off spelling (``off``, ``none``, ``0``, ``false``, ``no``,
  ``disabled`` or empty) — disabled everywhere.

It is read by :mod:`repro.env`, under the rule ``REPRO_TRACE_CACHE``
shares: an on spelling such as ``1`` is an error, not a directory.
Only :func:`store_dir` and :func:`resolve_store` read it.  Every other
function takes its directory from the caller and reads ``None`` as
"store off", so a caller that resolved its own store (a service started
with ``--store off``) never touches the environment's.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path

from repro import env

ENV_VAR = "REPRO_RESULT_STORE"

#: A server's store setting when none is given: ``REPRO_RESULT_STORE``,
#: else ``repro/results`` in the user cache (see :func:`resolve_store`).
AUTO_STORE = "auto"

#: File suffix; bump together with :data:`_VERSION` so readers of a new
#: format never even open old-format entries.
_SUFFIX = ".vsres1"

#: Entry format version, recorded in (and checked against) every entry.
_VERSION = 1


def store_dir(default: str | os.PathLike | None = None) -> Path | None:
    """The configured store directory, or ``None`` when disabled.

    ``REPRO_RESULT_STORE`` always wins: an off spelling disables the
    store even for callers passing a ``default`` (the service's
    kill-switch), and a path relocates it.  With the variable unset the
    ``default`` decides — ``None`` (the harness's choice: results are
    only memoised when explicitly asked) or a directory (the service's
    choice).  The directory is *not* created here — only writers create
    it, so read-only consumers never touch the filesystem.
    """
    return env.directory(
        ENV_VAR, None if default is None else Path(default).expanduser()
    )


def resolve_store(setting: object = AUTO_STORE) -> Path | None:
    """A server's store directory from its setting (``None`` = disabled).

    The one rule for ``repro serve --store`` and
    ``ServiceConfig.store``: :data:`AUTO_STORE` resolves
    through ``REPRO_RESULT_STORE`` with ``repro/results`` in the user
    cache directory as the default; ``None`` or an off spelling
    disables the store; an on spelling names no directory and is an
    :class:`~repro.env.EnvError`, as it is in ``REPRO_RESULT_STORE``;
    anything else is the directory itself.
    """
    if setting is None:
        return None
    if setting == AUTO_STORE:
        return store_dir(default=env.cache_home("results"))
    if isinstance(setting, str):
        return env.path_or_off("--store", setting)
    return Path(setting).expanduser()


def result_path(key: str, directory: Path | None = None) -> Path | None:
    """Where the entry for this job key lives (``None`` when disabled)."""
    if directory is None:
        return None
    return Path(directory) / (key + _SUFFIX)


def _entry_crc(doc: dict) -> int:
    """CRC of an entry's canonical text, excluding the crc field itself."""
    body = {k: doc[k] for k in sorted(doc) if k != "crc"}
    return zlib.crc32(
        json.dumps(body, separators=(",", ":"), sort_keys=True).encode()
    )


def store_result(key: str, result, directory: Path | None = None) -> Path | None:
    """Atomically and durably write one result under its job key;
    returns the path.

    ``result`` may be a :class:`~repro.engine.sim.SimulationResult` or
    an already-serialized wire document.  The entry and its directory
    are ``fsync``-ed before this returns, so a caller may acknowledge
    the result as durable.  Returns ``None`` when the store is disabled
    or the write fails — callers then keep the result in memory.
    """
    path = result_path(key, directory)
    if path is None:
        return None
    if not isinstance(result, dict):
        from repro.cluster.serial import result_to_wire

        result = result_to_wire(result)
    doc = {"v": _VERSION, "key": key, "result": result}
    doc["crc"] = _entry_crc(doc)
    data = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return None
    return path


def load_wire(key: str, directory: Path | None = None) -> dict | None:
    """The stored wire document for this key, or ``None`` on a miss.

    A corrupt entry (bad JSON, CRC mismatch, wrong key) or one written
    by a different format version is treated as a miss and deleted so
    the next store replaces it — never served, never fatal.  A CRC-valid
    entry this version cannot rebuild — one written by a newer version
    sharing the store, whose counters or config carry a field this one
    lacks — is a miss too.  It is left in place: the version that wrote
    it can still read it.
    """
    path = result_path(key, directory)
    if path is None:
        return None
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    doc = None
    try:
        parsed = json.loads(raw.decode("utf-8"))
        if (
            isinstance(parsed, dict)
            and parsed.get("v") == _VERSION
            and parsed.get("key") == key
            and isinstance(parsed.get("result"), dict)
            and _entry_crc(parsed) == parsed.get("crc")
        ):
            doc = parsed
    except (UnicodeDecodeError, json.JSONDecodeError):
        doc = None
    if doc is None:
        try:
            path.unlink()
        except OSError:
            pass
        return None
    wire = doc["result"]
    return wire if _rebuild(wire) is not None else None


def _rebuild(wire: dict):
    """``wire`` as a :class:`~repro.engine.sim.SimulationResult`, or
    ``None`` when this version cannot rebuild it."""
    from repro.cluster.serial import result_from_wire

    try:
        return result_from_wire(wire)
    except (TypeError, KeyError, ValueError):
        return None


def load_result(key: str, directory: Path | None = None):
    """The stored result for this key rebuilt as a
    :class:`~repro.engine.sim.SimulationResult`, or ``None`` on a miss
    (every miss :func:`load_wire` reads)."""
    wire = load_wire(key, directory)
    return None if wire is None else _rebuild(wire)


# -- maintenance (the service status endpoint and `repro serve`) -----------


def store_entries(directory: Path | None = None) -> list[Path]:
    """Every entry file currently in the store directory."""
    if directory is None or not Path(directory).is_dir():
        return []
    return sorted(Path(directory).glob(f"*{_SUFFIX}"))


def store_info(directory: Path | None) -> dict:
    """Summary of a resolved store's location and contents (``None``:
    disabled — a server's own setting, not ``REPRO_RESULT_STORE``)."""
    entries = store_entries(directory) if directory is not None else []
    return {
        "enabled": directory is not None,
        "dir": str(directory) if directory is not None else None,
        "entries": len(entries),
        "bytes": sum(path.stat().st_size for path in entries),
    }


def clear_store(directory: Path | None = None) -> int:
    """Delete every store entry and every temp file a crashed writer
    left behind; returns the number of files removed."""
    if directory is None:
        return 0
    leftovers = sorted(Path(directory).glob(f".*{_SUFFIX}.*.tmp"))
    removed = 0
    for path in store_entries(directory) + leftovers:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def evict_store(
    directory: Path | None = None,
    *,
    max_entries: int | None = None,
    max_bytes: int | None = None,
) -> int:
    """Evict oldest entries until the store fits the given budgets.

    Age is modification time (a re-store refreshes it, so hot keys
    survive), ties broken by name for determinism.  Returns the number
    of entries removed; with no budget given, removes nothing.  Entries
    that vanish mid-scan (a concurrent eviction) are skipped, not
    errors.
    """
    if max_entries is None and max_bytes is None:
        return 0
    entries = []
    for path in store_entries(directory):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, path.name, stat.st_size, path))
    entries.sort()
    total = len(entries)
    total_bytes = sum(size for _, _, size, _ in entries)
    removed = 0
    for _, _, size, path in entries:
        over_count = max_entries is not None and total - removed > max_entries
        over_bytes = max_bytes is not None and total_bytes > max_bytes
        if not over_count and not over_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
        total_bytes -= size
    return removed
