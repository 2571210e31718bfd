"""Golden SimCounters regression for the predictor-path variants.

``tests/golden/variants/*.json`` pins the engine/predictor combinations
the 13 main snapshots (``test_golden_counters.py``, great model, D/R,
context predictor, paper selection) never reach: immediate (I) update
timing, saturating confidence, the last-value / stride / hybrid / tagged
predictor implementations, and the oldest-first and speculative-equal
selection policies (good model, 4/24).  Together with the main suite these snapshots make the
array-backed predictor storage rewrite provably bit-identical on every
update-timing and predictor code path.

Regenerate ONLY for intentional model changes::

    PYTHONPATH=src python scripts/gen_golden_counters.py
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.model import SpeculativeExecutionModel, named_models
from repro.core.variables import SelectionPolicy
from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_trace
from repro.func import Machine
from repro.programs.micro import micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.capture import capture_trace
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor

VARIANT_DIR = Path(__file__).resolve().parent / "golden" / "variants"
SNAPSHOTS = sorted(VARIANT_DIR.glob("*.json"))

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


def _load_trace(label: str):
    kind, name = label.split("_", 1)
    if kind == "micro":
        machine = Machine(assemble(micro_kernel(name)))
        return capture_trace(machine, MICRO_TRACE_LIMIT)
    for spec in benchmark_suite():
        if spec.name == name:
            return spec.trace(SPEC_TRACE_LIMIT)
    raise KeyError(label)


@pytest.mark.parametrize("path", SNAPSHOTS, ids=[p.stem for p in SNAPSHOTS])
def test_variant_counters_match_golden(path):
    assert SNAPSHOTS, (
        "tests/golden/variants/ is empty — run scripts/gen_golden_counters.py"
    )
    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    assert len(trace) == snapshot["trace_length"]
    config = ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )
    result = run_trace(
        trace,
        config,
        _snapshot_model(snapshot),
        confidence=_CONFIDENCE[snapshot["confidence"]](),
        update_timing=snapshot["update_timing"],
        predictor=_PREDICTOR[snapshot["predictor"]](),
    )
    assert counters_dict(result.counters) == snapshot["vp"]
