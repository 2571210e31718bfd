"""Regenerate the golden trace-entry digests in ``tests/golden/traces/``.

A trace-cache entry is a pure function of (kernel source, instruction
limit), so the sha256 of its VSRT v5 bytes pins the whole capture path
at once: the functional machine's semantics, the column encoding and
the entry header.
``tests/test_golden_traces.py`` recaptures every entry into a fresh
cache and compares digests, which is how changes to the functional
simulator or the trace writer prove they are pure speed changes.

The digests cover every suite kernel at 2,000 and 8,000 instructions,
compress/perl/xlisp run to completion, and every ``micro:`` kernel at
the golden micro budget.

Run this ONLY when a trace change is intentional::

    PYTHONPATH=src python scripts/gen_golden_traces.py

and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
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


def cases() -> list[tuple[str, int | None]]:
    """(benchmark, instruction limit or None = run to completion)."""
    out = [(name, limit) for name in kernel_names() for limit in SPEC_LIMITS]
    out += [(name, None) for name in FULL_KERNELS]
    out += [
        (MICRO_PREFIX + name, MICRO_TRACE_LIMIT)
        for name in sorted(MICRO_KERNELS)
    ]
    return out


def case_id(benchmark: str, limit: int | None) -> str:
    return f"{benchmark}@{'full' if limit is None else limit}"


def entry_digest(benchmark: str, limit: int | None) -> str:
    """Capture into a fresh private cache and hash the entry's bytes."""
    with tempfile.TemporaryDirectory(prefix="repro-golden-traces-") as tmp:
        trace_cache.cached_trace(benchmark, limit, directory=Path(tmp))
        (entry,) = Path(tmp).glob("*.vsrt5")
        return hashlib.sha256(entry.read_bytes()).hexdigest()


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
