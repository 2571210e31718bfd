"""Submitted grid points versus execution units: planning and scatter.

``run_jobs`` plans every submitted batch of points into execution units
(:func:`repro.harness.parallel.plan_units`): one unit per distinct job
key, in first-submission order, with ``slots[k]`` naming the submission
indices unit ``k`` serves.  Results are scattered back by those slots.
The contract is that planning is invisible: every position of the
result list equals what running its point alone produces.  This suite
pins that contract against every golden and variant snapshot (each
point submitted twice), across submission chunk sizes and the serial
and process-pool paths.  The simulation service, which dedups by job
key on its own, is held to the same results.
"""

import dataclasses
import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import repro.harness.parallel as parallel
from repro.core.model import (
    GREAT_MODEL,
    SpeculativeExecutionModel,
    named_models,
)
from repro.core.variables import InvalidationScheme, SelectionPolicy
from repro.engine.config import ProcessorConfig
from repro.harness.parallel import SimJob, plan_units, run_jobs
from repro.service.client import ServiceClient
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SNAPSHOTS = sorted(GOLDEN_DIR.glob("*.json"))
VARIANT_SNAPSHOTS = sorted((GOLDEN_DIR / "variants").glob("*.json"))

MICRO_TRACE_LIMIT = 3000
SPEC_TRACE_LIMIT = 2000

_CONFIDENCE = {
    "R": "R",
    "SaturatingConfidenceEstimator": SaturatingConfidenceEstimator,
}
_PREDICTOR = {
    "context": None,
    "LastValuePredictor": LastValuePredictor,
    "StridePredictor": StridePredictor,
    "HybridPredictor": HybridPredictor,
    "TaggedContextPredictor": TaggedContextPredictor,
}


def counters_dict(counters) -> dict:
    return {
        f.name: getattr(counters, f.name)
        for f in fields(counters)
        if f.name != "extra"
    }


def _snapshot_model(snapshot) -> SpeculativeExecutionModel:
    """The snapshot's model and selection policy; a snapshot without
    those fields was recorded with the great model and paper selection."""
    model = named_models()[snapshot.get("model", "great")]
    selection = SelectionPolicy(snapshot.get("selection", "paper"))
    return dataclasses.replace(
        model,
        variables=dataclasses.replace(model.variables, selection=selection),
    )


def _result_key(result):
    d = asdict(result.counters)
    d.pop("extra", None)
    return (
        d,
        result.model_name,
        result.confidence_kind,
        result.update_timing,
    )


def _benchmark_and_limit(label: str) -> tuple[str, int]:
    """A snapshot's workload label as a job's (benchmark, trace limit)."""
    kind, name = label.split("_", 1)
    if kind == "micro":
        return f"micro:{name}", MICRO_TRACE_LIMIT
    return name, SPEC_TRACE_LIMIT


def _snapshot_config(snapshot) -> ProcessorConfig:
    return ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )


def _with_duplicates(jobs: list) -> list:
    """Every job submitted twice: the grid, then the grid reversed."""
    return jobs + jobs[::-1]


@pytest.mark.parametrize("path", SNAPSHOTS, ids=[p.stem for p in SNAPSHOTS])
def test_batched_matches_golden(path):
    """A submission of baseline + great D/R, each point twice, plans
    into two units and reproduces the main snapshot at every position."""
    snapshot = json.loads(path.read_text())
    benchmark, limit = _benchmark_and_limit(snapshot["workload"])
    config = _snapshot_config(snapshot)
    jobs = [
        SimJob(benchmark, config, None, limit),
        SimJob(
            benchmark, config, GREAT_MODEL, limit,
            confidence="R", update_timing="D",
        ),
    ]
    submitted = _with_duplicates(jobs)
    units, slots = plan_units(submitted)
    assert units == jobs and slots == [[0, 3], [1, 2]]
    base, vp, vp_again, base_again = run_jobs(submitted)
    for result in (base, base_again):
        assert counters_dict(result.counters) == snapshot["base"]
    for result in (vp, vp_again):
        assert counters_dict(result.counters) == snapshot["vp"]


@pytest.mark.parametrize(
    "path", VARIANT_SNAPSHOTS, ids=[p.stem for p in VARIANT_SNAPSHOTS]
)
def test_batched_matches_variant_golden(path):
    """Duplicated variant points — immediate update timing, saturating
    confidence, every alternative predictor implementation, the
    non-paper selection policies — run once and fill both positions with
    the variant snapshot."""
    snapshot = json.loads(path.read_text())
    benchmark, limit = _benchmark_and_limit(snapshot["workload"])
    job = SimJob(
        benchmark,
        _snapshot_config(snapshot),
        _snapshot_model(snapshot),
        limit,
        confidence=_CONFIDENCE[snapshot["confidence"]],
        update_timing=snapshot["update_timing"],
        predictor=_PREDICTOR[snapshot["predictor"]],
    )
    units, slots = plan_units([job, job])
    assert units == [job] and slots == [[0, 1]]
    first, second = run_jobs([job, job])
    assert first is second
    assert counters_dict(first.counters) == snapshot["vp"]


def _small_grid():
    config = ProcessorConfig()
    narrow = ProcessorConfig(issue_width=4, window_size=24)
    jobs = []
    for name in ("compress", "m88ksim"):
        for cfg in (config, narrow):
            jobs.append(SimJob(name, cfg, None, 800))
            for timing, conf in (("D", "R"), ("I", "R"), ("I", "O")):
                jobs.append(
                    SimJob(
                        name, cfg, GREAT_MODEL, 800,
                        confidence=conf, update_timing=timing,
                    )
                )
    return jobs


@pytest.fixture(scope="module")
def small_grid_reference():
    """The small grid with each point executed alone, outside the
    planner."""
    jobs = _small_grid()
    return jobs, [_result_key(parallel._execute(job)) for job in jobs]


def _assert_duplicates_run_once(grid, reference, **kwargs):
    """Submit ``grid`` with a duplicate of every point: each distinct
    point reaches the backend exactly once, in first-submission order,
    and its result fills every position that submitted it."""
    calls: list = []
    real = parallel._run_jobs_backend

    def spy(units, *args, **kw):
        calls.append(list(units))
        return real(units, *args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "_run_jobs_backend", spy)
        results = run_jobs(_with_duplicates(grid), **kwargs)
    assert calls == [grid]
    assert [_result_key(r) for r in results] == reference + reference[::-1]


@pytest.mark.parametrize("batch", [1, 2, 0], ids=["b1", "b2", "bfull"])
def test_batch_sizes_serial(small_grid_reference, batch):
    """Submitting the grid serially in chunks of 1, 2 or all points,
    each chunk with its duplicates, matches one point at a time."""
    jobs, reference = small_grid_reference
    size = batch or len(jobs)
    for start in range(0, len(jobs), size):
        _assert_duplicates_run_once(
            jobs[start : start + size], reference[start : start + size],
            jobs=1,
        )


def test_batched_pool_backend(small_grid_reference):
    jobs, reference = small_grid_reference
    _assert_duplicates_run_once(jobs, reference, jobs=2)


def test_batched_service_backend(small_grid_reference, pool_service):
    # A running service on a two-process pool executes each distinct
    # point once: a duplicate joins its first submission.
    jobs, reference = small_grid_reference
    results = ServiceClient(*pool_service.address).run(_with_duplicates(jobs))
    assert pool_service.status()["stats"]["executed"] == len(jobs)
    assert [_result_key(r) for r in results] == reference + reference[::-1]


def test_plan_units_slots_and_first_submission_order():
    config = ProcessorConfig()
    a = SimJob("compress", config, None, 800)
    b = SimJob("compress", config, GREAT_MODEL, 800, "R", "D")
    c = SimJob("m88ksim", config, GREAT_MODEL, 800, "R", "I")
    # An equal job built separately is the same unit: keys are content
    # hashes, not identities.
    b_again = SimJob("compress", config, GREAT_MODEL, 800, "R", "D")
    units, slots = plan_units([b, a, b_again, c, a, b])
    assert units == [b, a, c]
    assert slots == [[0, 2, 5], [1, 4], [3]]
    assert plan_units([]) == ([], [])
    assert run_jobs([]) == []


def _complete_invalidation_model():
    variables = dataclasses.replace(
        GREAT_MODEL.variables, invalidation=InvalidationScheme.COMPLETE
    )
    return dataclasses.replace(
        GREAT_MODEL, name="great-complete", variables=variables
    )


def test_planner_mixed_compatibility_fallback():
    """A grid mixing models (complete invalidation among them), trace
    limits and benchmarks plans into one unit per distinct point,
    whatever the model, and merges bit-identically with running each
    point alone."""
    config = ProcessorConfig()
    complete = _complete_invalidation_model()
    jobs = [
        SimJob("compress", config, None, 800),
        SimJob("compress", config, GREAT_MODEL, 800, "R", "D"),
        SimJob("compress", config, complete, 800, "R", "D"),
        SimJob("compress", config, GREAT_MODEL, 800, "R", "I"),
        # A different trace limit: same benchmark, a different point.
        SimJob("compress", config, GREAT_MODEL, 600, "R", "D"),
        SimJob("m88ksim", config, GREAT_MODEL, 800, "R", "I"),
    ]
    submitted = jobs + [jobs[2], jobs[4]]
    units, slots = plan_units(submitted)
    assert units == jobs
    assert slots == [[0], [1], [2, 6], [3], [4, 7], [5]]

    reference = [_result_key(parallel._execute(job)) for job in submitted]
    results = run_jobs(submitted, 1)
    assert [_result_key(r) for r in results] == reference


def test_tracer_runs_stay_scalar_and_consistent():
    """The obs tracer contract: an instrumented run (run_trace with a
    tracer — the sweeps' instrument path never goes through the
    planner) reproduces the counters run_jobs returns for the same
    uninstrumented point."""
    from repro.engine.sim import run_trace
    from repro.obs import PipelineTracer
    from repro.trace.cache import cached_trace

    config = ProcessorConfig()
    tracer = PipelineTracer()
    traced = run_trace(
        cached_trace("compress", SPEC_TRACE_LIMIT), config, GREAT_MODEL,
        confidence="R", update_timing="I", tracer=tracer,
    )
    assert tracer.config_label == config.label  # the tracer really ran
    assert tracer.lifecycle_marks()
    job = SimJob("compress", config, GREAT_MODEL, SPEC_TRACE_LIMIT, "R", "I")
    (planned, again) = run_jobs([job, job])
    assert planned is again
    assert counters_dict(planned.counters) == counters_dict(traced.counters)
