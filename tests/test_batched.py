"""Batched multi-config engine: bit-identity and planner behaviour.

The batched engine (``repro.engine.batched``) shares the predicted
fetch stream — and, for immediate-timing lanes, recorded
value-prediction columns — across every configuration in a batch.  The
contract is *bit-identity*: a batched lane must produce exactly the
SimCounters of the scalar engine.  This suite pins that contract
against every golden snapshot and variant golden, across batch sizes
{1, 2, full-grid} and the serial / process-pool / cluster backends,
and checks the planner's scalar fallback for batch-incompatible jobs.
"""

import dataclasses
import json
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.model import GREAT_MODEL
from repro.core.variables import InvalidationScheme
from repro.engine.batched import (
    StreamFetchEngine,
    batch_compatible,
    run_batch,
)
from repro.engine.config import ProcessorConfig
from repro.func import Machine
from repro.harness.parallel import (
    BatchJob,
    SimJob,
    plan_units,
    resolve_batch,
    run_jobs,
)
from repro.programs.micro import micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.capture import capture_trace
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


def _result_key(result):
    d = asdict(result.counters)
    d.pop("extra", None)
    return (
        d,
        result.model_name,
        result.confidence_kind,
        result.update_timing,
    )


def _load_trace(label: str):
    kind, name = label.split("_", 1)
    if kind == "micro":
        machine = Machine(assemble(micro_kernel(name)))
        return capture_trace(machine, MICRO_TRACE_LIMIT)
    for spec in benchmark_suite():
        if spec.name == name:
            return spec.trace(SPEC_TRACE_LIMIT)
    raise KeyError(label)


def _snapshot_config(snapshot) -> ProcessorConfig:
    return ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )


@pytest.mark.parametrize("path", SNAPSHOTS, ids=[p.stem for p in SNAPSHOTS])
def test_batched_matches_golden(path):
    """A two-lane batch (baseline + great D/R) reproduces every main
    golden snapshot bit-for-bit through the shared fetch stream."""
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    config = _snapshot_config(snapshot)
    workload = snapshot["workload"]
    jobs = [
        SimJob(workload, config, None, None),
        SimJob(
            workload, config, GREAT_MODEL, None,
            confidence="R", update_timing="D",
        ),
    ]
    base, vp = run_batch(jobs, trace)
    assert counters_dict(base.counters) == snapshot["base"]
    assert counters_dict(vp.counters) == snapshot["vp"]


@pytest.mark.parametrize(
    "path", VARIANT_SNAPSHOTS, ids=[p.stem for p in VARIANT_SNAPSHOTS]
)
def test_batched_matches_variant_golden(path):
    """Batched lanes reproduce the variant goldens — immediate update
    timing (replayed value-prediction columns), saturating confidence,
    and every alternative predictor implementation."""
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    job = SimJob(
        snapshot["workload"],
        _snapshot_config(snapshot),
        GREAT_MODEL,
        None,
        confidence=_CONFIDENCE[snapshot["confidence"]],
        update_timing=snapshot["update_timing"],
        predictor=_PREDICTOR[snapshot["predictor"]],
    )
    (result,) = run_batch([job], trace)
    assert counters_dict(result.counters) == snapshot["vp"]


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
    jobs = _small_grid()
    return jobs, [_result_key(r) for r in run_jobs(jobs, 1, batch=1)]


@pytest.mark.parametrize("batch", [1, 2, 0], ids=["b1", "b2", "bfull"])
def test_batch_sizes_serial(small_grid_reference, batch):
    jobs, reference = small_grid_reference
    results = run_jobs(jobs, 1, batch=batch)
    assert [_result_key(r) for r in results] == reference


def test_batched_pool_backend(small_grid_reference):
    jobs, reference = small_grid_reference
    results = run_jobs(jobs, 4, batch=2)
    assert [_result_key(r) for r in results] == reference


def test_batched_cluster_backend(small_grid_reference):
    jobs, reference = small_grid_reference
    results = run_jobs(jobs, 2, backend="cluster", batch=0)
    assert [_result_key(r) for r in results] == reference


def _complete_invalidation_model():
    variables = dataclasses.replace(
        GREAT_MODEL.variables, invalidation=InvalidationScheme.COMPLETE
    )
    return dataclasses.replace(
        GREAT_MODEL, name="great-complete", variables=variables
    )


def test_planner_mixed_compatibility_fallback(caplog):
    """A grid mixing batchable jobs, a batch-incompatible model
    (complete invalidation rewinds the shared fetch stream) and
    different traces plans into batches plus logged scalar units — and
    still merges bit-identically."""
    config = ProcessorConfig()
    complete = _complete_invalidation_model()
    jobs = [
        SimJob("compress", config, None, 800),
        SimJob("compress", config, GREAT_MODEL, 800, "R", "D"),
        SimJob("compress", config, complete, 800, "R", "D"),
        SimJob("compress", config, GREAT_MODEL, 800, "R", "I"),
        # A different trace limit: same benchmark, different batch group.
        SimJob("compress", config, GREAT_MODEL, 600, "R", "D"),
        SimJob("m88ksim", config, GREAT_MODEL, 800, "R", "I"),
    ]
    ok, reason = batch_compatible(jobs[2])
    assert not ok and "invalidation" in reason

    with caplog.at_level("INFO", logger="repro.harness.parallel"):
        units, slots = plan_units(jobs, 0)
    assert any("runs scalar" in record.message for record in caplog.records)

    batched = [u for u in units if isinstance(u, BatchJob)]
    scalar = [u for u in units if isinstance(u, SimJob)]
    # compress@800 batches its three compatible lanes; the complete-
    # invalidation job and both singleton groups stay scalar.
    assert len(batched) == 1 and len(batched[0].jobs) == 3
    assert len(scalar) == 3
    assert sorted(i for chunk in slots for i in chunk) == list(range(len(jobs)))

    reference = [_result_key(r) for r in run_jobs(jobs, 1, batch=1)]
    results = run_jobs(jobs, 1, batch=0)
    assert [_result_key(r) for r in results] == reference


def test_resolve_batch_env(monkeypatch):
    from repro.harness.parallel import BATCH_ENV_VAR

    assert resolve_batch(None) == 1
    assert resolve_batch(4) == 4
    monkeypatch.setenv(BATCH_ENV_VAR, "8")
    assert resolve_batch(None) == 8
    assert resolve_batch(2) == 2
    monkeypatch.setenv(BATCH_ENV_VAR, "nope")
    with pytest.raises(ValueError):
        resolve_batch(None)
    with pytest.raises(ValueError):
        resolve_batch(-1)


def test_resolve_batch_env_invalid_spellings_name_the_var(monkeypatch):
    """Bad ``REPRO_SWEEP_BATCH`` spellings must fail at entry with a
    message that names the env var and the accepted values — not a bare
    ``ValueError`` from deep inside the planner."""
    from repro.harness.parallel import BATCH_ENV_VAR

    monkeypatch.setenv(BATCH_ENV_VAR, "full")
    with pytest.raises(ValueError, match=r"REPRO_SWEEP_BATCH='full'.*unbounded"):
        resolve_batch(None)

    monkeypatch.setenv(BATCH_ENV_VAR, "-1")
    with pytest.raises(ValueError, match=r"REPRO_SWEEP_BATCH='-1'.*>= 0"):
        resolve_batch(None)

    # An explicit argument bypasses the env var entirely.
    assert resolve_batch(3) == 3


def test_stream_fetch_engine_refuses_rewind():
    """Complete invalidation needs ``rewind_to``; the replay front end
    must fail loudly if the planner gate were ever bypassed."""
    trace = _load_trace("spec_compress")
    rows = trace.rows() if hasattr(trace, "rows") else trace
    engine = StreamFetchEngine(rows, bytearray(len(rows)), None)
    with pytest.raises(RuntimeError, match="scalar path"):
        engine.rewind_to(0, 0)


def test_tracer_runs_stay_scalar_and_consistent():
    """The obs tracer contract under batching: instrumented re-runs use
    the scalar engine (run_trace directly — the sweeps' instrument path
    never goes through the planner), and the batched engine reproduces
    the same counters for the identical uninstrumented job."""
    from repro.engine.sim import run_trace
    from repro.obs import PipelineTracer

    trace = _load_trace("spec_compress")
    config = ProcessorConfig()
    tracer = PipelineTracer()
    traced = run_trace(
        trace, config, GREAT_MODEL,
        confidence="R", update_timing="I", tracer=tracer,
    )
    assert tracer.config_label == config.label  # the tracer really ran
    assert tracer.lifecycle_marks()
    job = SimJob("compress", config, GREAT_MODEL, None, "R", "I")
    (batched,) = run_batch([job], trace)
    assert counters_dict(batched.counters) == counters_dict(traced.counters)


def test_batched_lanes_report_engine_path():
    """``engine_path`` tells batched lanes apart from scalar runs (it is
    excluded from result equality, so it never affects bit-identity)."""
    from repro.engine.sim import run_trace

    trace = _load_trace("spec_compress")
    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = [
        SimJob("compress", config, None, SPEC_TRACE_LIMIT),
        SimJob("compress", config, GREAT_MODEL, SPEC_TRACE_LIMIT),
    ]
    lanes = run_batch(jobs, trace)
    assert [r.engine_path for r in lanes] == ["batched", "batched"]
    scalar = run_trace(trace, config, GREAT_MODEL, update_timing="I")
    assert scalar.engine_path == "generic"
    assert scalar == lanes[1]
