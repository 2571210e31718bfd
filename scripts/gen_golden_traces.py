"""Regenerate the golden trace-entry digests in ``tests/golden/traces/``.

A trace-cache entry is a pure function of (kernel source, instruction
limit, chunk size), so the sha256 of its VSRT v4 bytes pins the whole
capture path at once: the functional machine's semantics, the column
encoding, chunk geometry and the basic-block fingerprints in the index.
``tests/test_golden_traces.py`` recaptures every entry into a fresh
cache and compares digests, which is how changes to the functional
simulator or the trace writer prove they are pure speed changes.

The digests cover every suite kernel at 2,000 and 8,000 instructions,
compress/perl/xlisp run to completion (also once at a small chunk size,
so chunk flushes and per-chunk fingerprints are pinned), and every
``micro:`` kernel at the golden micro budget.

Run this ONLY when a trace change is intentional::

    PYTHONPATH=src python scripts/gen_golden_traces.py

and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.programs.micro import MICRO_KERNELS
from repro.programs.suite import MICRO_PREFIX, kernel_names
from repro.trace import cache as trace_cache

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "tests" / "golden" / "traces"
    / "traces.json"
)

SPEC_LIMITS = (2000, 8000)
FULL_KERNELS = ("compress", "perl", "xlisp")
#: The micro budget of the golden counter snapshots.
MICRO_TRACE_LIMIT = 3000
#: A chunk size small enough that a full xlisp run spans several chunks.
SMALL_CHUNK = 40_000


def cases() -> list[tuple[str, int | None, int | None]]:
    """(benchmark, instruction limit, chunk records or None = default)."""
    out = [(name, limit, None) for name in kernel_names() for limit in SPEC_LIMITS]
    out += [(name, None, None) for name in FULL_KERNELS]
    out.append(("xlisp", None, SMALL_CHUNK))
    out += [
        (MICRO_PREFIX + name, MICRO_TRACE_LIMIT, None)
        for name in sorted(MICRO_KERNELS)
    ]
    return out


def case_id(benchmark: str, limit: int | None, chunk: int | None) -> str:
    label = f"{benchmark}@{'full' if limit is None else limit}"
    return label if chunk is None else f"{label}/chunk={chunk}"


def entry_digest(benchmark: str, limit: int | None, chunk: int | None) -> str:
    """Capture into a fresh private cache and hash the entry's bytes.
    Sets ``REPRO_TRACE_CACHE``/``REPRO_TRACE_CHUNK`` for the capture and
    restores them afterwards."""
    saved = {
        var: os.environ.get(var)
        for var in (trace_cache.ENV_VAR, trace_cache.CHUNK_ENV_VAR)
    }
    with tempfile.TemporaryDirectory(prefix="repro-golden-traces-") as tmp:
        os.environ[trace_cache.ENV_VAR] = tmp
        if chunk is None:
            os.environ.pop(trace_cache.CHUNK_ENV_VAR, None)
        else:
            os.environ[trace_cache.CHUNK_ENV_VAR] = str(chunk)
        try:
            trace_cache.cached_trace(benchmark, limit)
            (entry,) = Path(tmp).glob("*.vsrt4")
            return hashlib.sha256(entry.read_bytes()).hexdigest()
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value


def main() -> int:
    digests = {
        case_id(*case): entry_digest(*case) for case in cases()
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
