"""Byte-for-byte golden pin of trace-cache entries.

``tests/golden/traces/traces.json`` (written by
``scripts/gen_golden_traces.py``) maps ``benchmark@limit`` (plus
``/chunk=N`` for a non-default chunk size) to the sha256 of the VSRT v4
entry ``cached_trace`` writes for it.  Every entry is recaptured here
into a fresh cache: the functional machine, the column encoding, chunk
geometry and the per-chunk basic-block fingerprints must all reproduce
the recorded bytes exactly.
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


def _parse(case: str) -> tuple[str, int | None, int | None]:
    label, _, chunk = case.partition("/chunk=")
    benchmark, _, limit = label.rpartition("@")
    return (
        benchmark,
        None if limit == "full" else int(limit),
        int(chunk) if chunk else None,
    )


def test_digests_cover_every_capture_shape():
    benchmarks = {_parse(case)[0] for case in DIGESTS}
    assert {"compress", "perl", "xlisp", "micro:fib"} <= benchmarks
    assert any(_parse(case)[1] is None for case in DIGESTS)
    assert any(_parse(case)[2] is not None for case in DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_entry_matches_golden(case, tmp_path, monkeypatch):
    benchmark, limit, chunk = _parse(case)
    monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
    if chunk is None:
        monkeypatch.delenv(trace_cache.CHUNK_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(trace_cache.CHUNK_ENV_VAR, str(chunk))
    trace_cache.cached_trace(benchmark, limit)
    (entry,) = tmp_path.glob("*.vsrt4")
    assert hashlib.sha256(entry.read_bytes()).hexdigest() == DIGESTS[case]
