"""The generic engine pinned against every golden snapshot, traced.

Config specialization (per-point generated engine classes) was removed;
:class:`~repro.engine.pipeline.PipelineSimulator` is the only
engine and :func:`repro.engine.sim.simulator_class` always hands it out
as ``"generic"``.  ``test_golden_counters.py`` and
``test_golden_variants.py`` pin its untraced runs.  This file pins the
same snapshot JSONs with a live :class:`~repro.obs.PipelineTracer`
attached — the path instrumented runs take — so recording lifecycle
marks and latency events is shown never to perturb a single counter, on
every snapshot rather than on one instrumented workload.
"""

import json
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.model import (
    GREAT_MODEL,
    SpeculativeExecutionModel,
    named_models,
)
from repro.core.variables import SelectionPolicy
from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.engine.sim import run_baseline, run_trace, simulator_class
from repro.func import Machine
from repro.obs import PipelineTracer
from repro.programs.micro import micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.capture import capture_trace
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MAIN_SNAPSHOTS = sorted(GOLDEN_DIR.glob("*.json"))
VARIANT_SNAPSHOTS = sorted((GOLDEN_DIR / "variants").glob("*.json"))

MICRO_TRACE_LIMIT = 3000
SPEC_TRACE_LIMIT = 2000

_CONFIDENCE = {
    "R": lambda: "R",
    "SaturatingConfidenceEstimator": SaturatingConfidenceEstimator,
}
_PREDICTOR = {
    "context": lambda: None,
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
    return replace(model, variables=replace(model.variables, selection=selection))


@lru_cache(maxsize=None)
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


def _assert_traced(tracer: PipelineTracer, config: ProcessorConfig) -> None:
    """The tracer was really bound to the run and really recorded."""
    assert tracer.config_label == config.label
    assert tracer.marks.items(), "tracer attached but recorded no marks"


def test_simulator_class_is_the_generic_engine():
    assert simulator_class() == (PipelineSimulator, "generic")


@pytest.mark.parametrize(
    "path", MAIN_SNAPSHOTS, ids=[p.stem for p in MAIN_SNAPSHOTS]
)
def test_generic_matches_golden(path):
    """Traced base and VP runs reproduce every main snapshot bit-for-bit."""
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    config = _snapshot_config(snapshot)

    tracer = PipelineTracer()
    base = run_baseline(trace, config, tracer=tracer)
    assert counters_dict(base.counters) == snapshot["base"]
    _assert_traced(tracer, config)

    tracer = PipelineTracer()
    vp = run_trace(
        trace, config, GREAT_MODEL, confidence="R", update_timing="D",
        tracer=tracer,
    )
    assert counters_dict(vp.counters) == snapshot["vp"]
    _assert_traced(tracer, config)


@pytest.mark.parametrize(
    "path", VARIANT_SNAPSHOTS, ids=[p.stem for p in VARIANT_SNAPSHOTS]
)
def test_generic_matches_golden_variants(path):
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    config = _snapshot_config(snapshot)
    tracer = PipelineTracer()
    result = run_trace(
        trace,
        config,
        _snapshot_model(snapshot),
        confidence=_CONFIDENCE[snapshot["confidence"]](),
        update_timing=snapshot["update_timing"],
        predictor=_PREDICTOR[snapshot["predictor"]](),
        tracer=tracer,
    )
    assert counters_dict(result.counters) == snapshot["vp"]
    _assert_traced(tracer, config)
