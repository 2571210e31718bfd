"""Byte-for-byte golden pin of trace-cache entries.

``tests/golden/traces/traces.json`` (written by
``scripts/gen_golden_traces.py``) maps ``benchmark@limit`` to the sha256
of the VSRT v5 entry ``cached_trace`` writes for it.  Every entry is
recaptured here into a fresh cache: the functional machine, the column
encoding and the entry header must all reproduce the recorded bytes
exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.trace import cache as trace_cache

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "traces" / "traces.json")
    .read_text()
)


def _parse(case: str) -> tuple[str, int | None]:
    benchmark, _, limit = case.rpartition("@")
    return benchmark, None if limit == "full" else int(limit)


def test_digests_cover_every_capture_shape():
    benchmarks = {_parse(case)[0] for case in DIGESTS}
    assert {"compress", "perl", "xlisp", "micro:fib"} <= benchmarks
    assert any(_parse(case)[1] is None for case in DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_entry_matches_golden(case, tmp_path, monkeypatch):
    benchmark, limit = _parse(case)
    monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
    trace_cache.cached_trace(benchmark, limit)
    (entry,) = tmp_path.glob("*.vsrt5")
    assert hashlib.sha256(entry.read_bytes()).hexdigest() == DIGESTS[case]
