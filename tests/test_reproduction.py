"""The full reproduction as one plan (``experiments.run_reproduction``).

Figure 3, Figure 4 and every sweep section join their job lists into one
``run_jobs`` call; each section must still equal what its own runner
returns when called alone.  The trace budget differs from the sweep
budget, as in the EXPERIMENTS.md command, so the joined set mixes two
trace limits.
"""

import pytest

from repro.cluster.serial import job_key
from repro.harness import experiments, figure3, figure4, parallel
from repro.harness.sweeps import SWEEPS

TRACE_LIMIT = 200
SWEEP_LIMIT = 150
SECTIONS = [s for s in SWEEPS.values() if s.section is not None]


@pytest.fixture(scope="module")
def one_plan():
    """``(report, titles, calls)``: the reproduction's document, the
    titles it reported done in order, and every job list handed to
    ``parallel.run_jobs`` while it ran."""
    calls: list = []
    real_run_jobs = parallel.run_jobs
    real_table1 = experiments.table1.run_table1

    def spy(job_list, *args, **kwargs):
        calls.append(list(job_list))
        return real_run_jobs(job_list, *args, **kwargs)

    titles: list[str] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "run_jobs", spy)
        # Table 1 is trace analysis over whole programs, outside the
        # grid; a short prefix keeps this test cheap.
        patch.setattr(experiments.table1, "run_table1",
                      lambda max_instructions: real_table1(300))
        report, _ = experiments.run_reproduction(
            TRACE_LIMIT, SWEEP_LIMIT, jobs=2, done=titles.append
        )
    return report, titles, calls


def test_every_grid_section_runs_in_one_deduplicated_call(one_plan):
    _, _, calls = one_plan
    assert len(calls) == 1
    # 1,024 points, of which 168 repeat a point of an earlier section.
    assert len(calls[0]) == 1_024
    assert len({job_key(job) for job in calls[0]}) == 856


def test_document_keys_and_sections_in_order(one_plan):
    report, titles, _ = one_plan
    sections = [s.section for s in SECTIONS]
    assert list(report) == [
        "trace_limit", "sweep_limit", "jobs", "table1", "figure1",
        "figure3", "figure4", *sections, "wall_seconds",
    ]
    assert (report["trace_limit"], report["sweep_limit"]) == (
        TRACE_LIMIT, SWEEP_LIMIT
    )
    assert titles == ["Table 1", "Figure 1", "Figure 3", "Figure 4", *sections]


def test_grid_sections_equal_their_own_runners(one_plan):
    report, _, _ = one_plan
    cells = figure3.run_figure3(max_instructions=TRACE_LIMIT)
    assert report["figure3"] == experiments._figure3_section(cells)[0]
    cells = figure4.run_figure4(max_instructions=TRACE_LIMIT)
    assert report["figure4"] == experiments._figure4_section(cells)[0]
    for sweep in SECTIONS:
        points = sweep(max_instructions=SWEEP_LIMIT)
        assert report[sweep.section] == experiments._sweep_section(points)[0], (
            sweep.section
        )
