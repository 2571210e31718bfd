"""Bit-for-bit golden pin of every design-space sweep.

``tests/golden/sweeps/sweeps.json`` (written by ``sweep_snapshot`` in
``scripts/gen_golden_counters.py``) records, for each ``*_sweep`` function
on ``compress`` and ``go`` at 400 instructions: every point's label,
``float.hex`` speedup and per-benchmark detail, and a sha256 of the
``job_key`` sequence the sweep submits to ``run_jobs``.  A change to how
sweeps are declared must leave all three untouched: the same points, the
same numbers, and the same grid in the same order (so existing result
stores stay warm).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.serial import job_key
from repro.harness import sweeps

SNAPSHOT = json.loads(
    (Path(__file__).resolve().parent / "golden" / "sweeps" / "sweeps.json")
    .read_text()
)


@pytest.mark.parametrize("name", sorted(SNAPSHOT["sweeps"]))
def test_sweep_matches_golden(name, monkeypatch):
    expected = SNAPSHOT["sweeps"][name]
    submitted: list[list] = []
    run_jobs = sweeps.run_jobs

    def recording(job_list, *args, **kwargs):
        submitted.append(list(job_list))
        return run_jobs(job_list, *args, **kwargs)

    monkeypatch.setattr(sweeps, "run_jobs", recording)
    points = getattr(sweeps, name)(
        max_instructions=SNAPSHOT["max_instructions"],
        benchmarks=SNAPSHOT["benchmarks"],
    )

    assert len(submitted) == expected["run_jobs_calls"] == 1
    keys = "\n".join(job_key(job) for batch in submitted for job in batch)
    assert sum(len(batch) for batch in submitted) == expected["jobs"]
    assert hashlib.sha256(keys.encode("ascii")).hexdigest() == (
        expected["job_keys_sha256"]
    )
    assert [
        {
            "label": point.label,
            "speedup": float.hex(point.speedup),
            "detail": {k: float.hex(v) for k, v in point.detail.items()},
        }
        for point in points
    ] == expected["points"]
