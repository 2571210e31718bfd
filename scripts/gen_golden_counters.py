"""Regenerate the golden SimCounters snapshots under ``tests/golden/``.

The cycle engine is fully deterministic, so a complete counter dump for a
fixed workload/configuration pins the engine's timing behaviour exactly.
``tests/test_golden_counters.py`` replays every snapshot and asserts
bit-for-bit equality, which is how performance work on the engine proves
it is a pure speed change and not a model change.
``tests/golden/sweeps/sweeps.json`` (:func:`sweep_snapshot`, replayed by
``tests/test_golden_sweeps.py``) pins every design-space sweep the same
way.

Run this ONLY when a timing change is intentional::

    PYTHONPATH=src python scripts/gen_golden_counters.py

and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

from repro.asm import assemble
from repro.cluster.serial import job_key
from repro.core.model import GOOD_MODEL, GREAT_MODEL
from repro.core.variables import SelectionPolicy
from repro.engine.config import ProcessorConfig
from repro.engine.sim import run_baseline, run_trace
from repro.func import Machine
from repro.harness import sweeps
from repro.programs.micro import MICRO_KERNELS, micro_kernel
from repro.programs.suite import benchmark_suite
from repro.trace.capture import capture_trace
from repro.vp.confidence import SaturatingConfidenceEstimator
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
VARIANT_DIR = GOLDEN_DIR / "variants"
SPEC_TRACE_LIMIT = 2000
MICRO_TRACE_LIMIT = 3000
CONFIG = ProcessorConfig(issue_width=8, window_size=48)

#: The variant matrix pins engine/predictor paths the main D/R snapshots
#: never exercise: immediate update timing, saturating (non-resetting)
#: confidence, and every alternative predictor implementation.  Each entry
#: is (variant name, update timing, confidence factory, predictor factory).
VARIANTS = (
    ("great_IR", "I", None, None),
    ("great_DS", "D", SaturatingConfidenceEstimator, None),
    ("lastvalue_DR", "D", None, LastValuePredictor),
    ("stride_DR", "D", None, StridePredictor),
    ("hybrid_DR", "D", None, HybridPredictor),
    ("tagged_IR", "I", None, TaggedContextPredictor),
)

#: Selection-policy variants: the two non-paper policies on the good model
#: at 4/24, D/R, where each run's counters differ from the paper-policy
#: run of the same workload (with the great model at 8/48 they do not).
#: Each entry is (variant name, selection policy).
SELECTION_VARIANTS = (
    ("good_oldest_first_DR", SelectionPolicy.OLDEST_FIRST),
    ("good_speculative_equal_DR", SelectionPolicy.SPECULATIVE_EQUAL),
)
SELECTION_CONFIG = ProcessorConfig(issue_width=4, window_size=24)

#: Variant snapshots run on a workload subset (the full counter dumps pin
#: the code path, not the workload sweep — the 13 main snapshots do that).
VARIANT_WORKLOADS = ("micro_fib", "micro_pointer_chase",
                     "micro_streaming", "spec_compress")


def counters_dict(counters) -> dict:
    out = {}
    for f in fields(counters):
        value = getattr(counters, f.name)
        if f.name == "extra":
            continue
        out[f.name] = value
    return out


def micro_trace(name: str):
    machine = Machine(assemble(micro_kernel(name)))
    return capture_trace(machine, MICRO_TRACE_LIMIT)


def workloads():
    for name in sorted(MICRO_KERNELS):
        yield f"micro_{name}", micro_trace(name)
    for spec in benchmark_suite():
        yield f"spec_{spec.name}", spec.trace(SPEC_TRACE_LIMIT)


def sweep_snapshot(benchmarks=("compress", "go"), max_instructions=400) -> dict:
    """Every sweep in ``SWEEPS`` on a small fixed workload: each point's
    label, speedup and detail as ``float.hex``, and a sha256 of the
    ``job_key`` sequence the sweep submits to ``run_jobs``.  The key hash
    pins the grid itself (which points, in which order, with which
    factories), so a refactor cannot reorder a grid or cold the result
    store."""
    snapshot = {"benchmarks": list(benchmarks),
                "max_instructions": max_instructions, "sweeps": {}}
    run_jobs = sweeps.run_jobs
    for name in sorted(s.variants.__name__ for s in sweeps.SWEEPS.values()):
        submitted = []

        def recording(job_list, *args, **kwargs):
            submitted.append(list(job_list))
            return run_jobs(job_list, *args, **kwargs)

        sweeps.run_jobs = recording
        try:
            points = getattr(sweeps, name)(
                max_instructions=max_instructions, benchmarks=list(benchmarks)
            )
        finally:
            sweeps.run_jobs = run_jobs
        keys = "\n".join(job_key(job) for batch in submitted for job in batch)
        snapshot["sweeps"][name] = {
            "run_jobs_calls": len(submitted),
            "jobs": sum(len(batch) for batch in submitted),
            "job_keys_sha256": hashlib.sha256(keys.encode("ascii")).hexdigest(),
            "points": [
                {"label": p.label, "speedup": float.hex(p.speedup),
                 "detail": {k: float.hex(v) for k, v in p.detail.items()}}
                for p in points
            ],
        }
    return snapshot


def main() -> None:
    sweep_path = GOLDEN_DIR / "sweeps" / "sweeps.json"
    sweep_path.parent.mkdir(parents=True, exist_ok=True)
    sweep_path.write_text(json.dumps(sweep_snapshot(), indent=1) + "\n")
    print(f"wrote sweeps/{sweep_path.name}")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    VARIANT_DIR.mkdir(parents=True, exist_ok=True)
    for label, trace in workloads():
        base = run_baseline(trace, CONFIG)
        vp = run_trace(
            trace, CONFIG, GREAT_MODEL, confidence="R", update_timing="D"
        )
        snapshot = {
            "workload": label,
            "trace_length": len(trace),
            "config": {"issue_width": CONFIG.issue_width,
                       "window_size": CONFIG.window_size},
            "model": "great",
            "setting": "D/R",
            "base": counters_dict(base.counters),
            "vp": counters_dict(vp.counters),
        }
        path = GOLDEN_DIR / f"{label}.json"
        path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: base {base.cycles} cyc, vp {vp.cycles} cyc")
        if label not in VARIANT_WORKLOADS:
            continue
        for variant, timing, conf_factory, pred_factory in VARIANTS:
            vp = run_trace(
                trace,
                CONFIG,
                GREAT_MODEL,
                confidence=conf_factory() if conf_factory else "R",
                update_timing=timing,
                predictor=pred_factory() if pred_factory else None,
            )
            vsnap = {
                "workload": label,
                "variant": variant,
                "trace_length": len(trace),
                "config": {"issue_width": CONFIG.issue_width,
                           "window_size": CONFIG.window_size},
                "model": "great",
                "update_timing": timing,
                "confidence": conf_factory.__name__ if conf_factory else "R",
                "predictor": pred_factory.__name__ if pred_factory else "context",
                "vp": counters_dict(vp.counters),
            }
            vpath = VARIANT_DIR / f"{label}__{variant}.json"
            vpath.write_text(json.dumps(vsnap, indent=1, sort_keys=True) + "\n")
            print(f"wrote variants/{vpath.name}: vp {vp.cycles} cyc")
        for variant, policy in SELECTION_VARIANTS:
            model = replace(
                GOOD_MODEL,
                variables=replace(GOOD_MODEL.variables, selection=policy),
            )
            vp = run_trace(
                trace, SELECTION_CONFIG, model, confidence="R", update_timing="D"
            )
            vsnap = {
                "workload": label,
                "variant": variant,
                "trace_length": len(trace),
                "config": {"issue_width": SELECTION_CONFIG.issue_width,
                           "window_size": SELECTION_CONFIG.window_size},
                "model": GOOD_MODEL.name,
                "selection": policy.value,
                "update_timing": "D",
                "confidence": "R",
                "predictor": "context",
                "vp": counters_dict(vp.counters),
            }
            vpath = VARIANT_DIR / f"{label}__{variant}.json"
            vpath.write_text(json.dumps(vsnap, indent=1, sort_keys=True) + "\n")
            print(f"wrote variants/{vpath.name}: vp {vp.cycles} cyc")


if __name__ == "__main__":
    main()
