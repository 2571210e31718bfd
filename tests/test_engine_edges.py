"""Engine edge-case tests: structural stalls, wrong-path interactions,
scheme coverage on real kernels, determinism across schemes, and the
simulator's reference graph (acyclic, so a finished run frees at once)."""

import gc
import weakref
from dataclasses import fields, replace

import pytest

from repro.core.latency import GREAT_LATENCIES
from repro.core.model import GREAT_MODEL, SpeculativeExecutionModel
from repro.core.variables import (
    BranchResolution,
    InvalidationScheme,
    MemoryResolution,
    ModelVariables,
    SelectionPolicy,
    VerificationScheme,
    WakeupPolicy,
)
from repro.engine.config import ProcessorConfig, paper_config
from repro.engine.pipeline import PipelineSimulator
from repro.engine.sim import run_baseline, run_trace
from repro.harness.parallel import SimJob, run_jobs
from repro.isa.opcodes import Opcode
from repro.programs.suite import kernel
from repro.trace.record import TraceRecord
from repro.vp.last_value import LastValuePredictor


@pytest.fixture(scope="module")
def m88ksim_trace():
    return kernel("m88ksim").trace(max_instructions=3000)


@pytest.fixture(scope="module")
def go_trace():
    return kernel("go").trace(max_instructions=3000)


def test_tiny_window_still_completes(m88ksim_trace):
    config = ProcessorConfig(issue_width=2, window_size=2)
    result = run_baseline(m88ksim_trace, config)
    assert result.counters.retired == 3000
    assert result.counters.window_peak <= 2


def test_window_size_monotonic(m88ksim_trace):
    cycles = []
    for window in (4, 16, 48):
        config = ProcessorConfig(issue_width=4, window_size=window)
        cycles.append(run_baseline(m88ksim_trace, config).cycles)
    assert cycles[0] >= cycles[1] >= cycles[2]


def test_wrong_path_occupancy_costs_cycles(go_trace):
    """Wrong-path instructions compete for resources: disabling the model
    (stall fetch instead) must not be slower."""
    with_wp = run_baseline(
        go_trace, ProcessorConfig(4, 24, model_wrong_path=True)
    )
    without_wp = run_baseline(
        go_trace, ProcessorConfig(4, 24, model_wrong_path=False)
    )
    assert with_wp.counters.dispatched_wrong_path > 0
    assert without_wp.counters.dispatched_wrong_path == 0
    assert with_wp.counters.retired == without_wp.counters.retired == 3000


@pytest.mark.parametrize("scheme", list(VerificationScheme))
def test_all_verification_schemes_complete_on_kernel(m88ksim_trace, scheme):
    model = SpeculativeExecutionModel(
        f"great-{scheme.value}",
        ModelVariables(verification=scheme),
        GREAT_LATENCIES,
    )
    result = run_trace(
        m88ksim_trace,
        ProcessorConfig(4, 24),
        model,
        confidence="R",
        update_timing="I",
    )
    assert result.counters.retired == 3000


@pytest.mark.parametrize("scheme", list(InvalidationScheme))
def test_all_invalidation_schemes_complete_on_kernel(m88ksim_trace, scheme):
    model = SpeculativeExecutionModel(
        f"great-{scheme.value}",
        ModelVariables(invalidation=scheme),
        GREAT_LATENCIES,
    )
    result = run_trace(
        m88ksim_trace,
        ProcessorConfig(4, 24),
        model,
        confidence="R",
        update_timing="D",
    )
    assert result.counters.retired == 3000


@pytest.mark.parametrize("policy", list(WakeupPolicy))
@pytest.mark.parametrize("selection", list(SelectionPolicy))
def test_wakeup_selection_combinations(m88ksim_trace, policy, selection):
    model = SpeculativeExecutionModel(
        f"g-{policy.value}-{selection.value}",
        ModelVariables(wakeup=policy, selection=selection),
        GREAT_LATENCIES,
    )
    result = run_trace(
        m88ksim_trace,
        ProcessorConfig(4, 24),
        model,
        confidence="R",
        update_timing="I",
    )
    assert result.counters.retired == 3000


def test_speculative_resolution_policies_complete(go_trace):
    from dataclasses import replace

    variables = ModelVariables(
        branch_resolution=BranchResolution.SPECULATIVE_ALLOWED,
        memory_resolution=MemoryResolution.SPECULATIVE_ALLOWED,
    )
    latencies = replace(
        GREAT_LATENCIES,
        verification_to_branch=0,
        verification_addr_to_mem_access=0,
    )
    model = SpeculativeExecutionModel("spec-resolve", variables, latencies)
    result = run_trace(
        go_trace,
        ProcessorConfig(8, 48),
        model,
        confidence="R",
        update_timing="I",
    )
    assert result.counters.retired == 3000


def test_kernel_run_deterministic(m88ksim_trace):
    config = ProcessorConfig(8, 48)

    def once():
        return run_trace(
            m88ksim_trace, config, GREAT_MODEL, confidence="R",
            update_timing="D",
        ).counters

    a, b = once(), once()
    assert (a.cycles, a.reissues, a.misspeculations) == (
        b.cycles, b.reissues, b.misspeculations
    )


def test_store_only_and_load_only_traces():
    stores = [
        TraceRecord(i, 0x1000 + 8 * i, Opcode.SD, (29, 4), None, None,
                    0x300000 + 8 * i, 8, None, 0x1008 + 8 * i)
        for i in range(20)
    ]
    result = run_baseline(stores, ProcessorConfig(4, 8))
    assert result.counters.retired == 20
    loads = [
        TraceRecord(i, 0x1000 + 8 * i, Opcode.LD, (29,), 8 + i % 8, i,
                    0x300000 + 8 * i, 8, None, 0x1008 + 8 * i)
        for i in range(20)
    ]
    result = run_baseline(loads, ProcessorConfig(4, 8))
    assert result.counters.retired == 20


def test_single_instruction_trace():
    trace = [TraceRecord(0, 0x1000, Opcode.HALT, (), next_pc=0x1008)]
    result = run_baseline(trace, ProcessorConfig(4, 8))
    assert result.counters.retired == 1
    assert result.cycles >= 1


def test_fdiv_heavy_trace_matches_latency():
    # serial chain of FDIVs: cycles ~ 24 per link
    trace = []
    for i in range(5):
        srcs = (8,) if i else (4,)
        trace.append(
            TraceRecord(i, 0x1000 + 8 * i, Opcode.FDIV, srcs, 8, i + 1,
                        next_pc=0x1008 + 8 * i)
        )
    result = run_baseline(trace, ProcessorConfig(4, 8))
    assert result.cycles >= 5 * 24


def test_counters_consistency_on_kernel(m88ksim_trace):
    result = run_trace(
        m88ksim_trace,
        ProcessorConfig(8, 48),
        GREAT_MODEL,
        confidence="R",
        update_timing="D",
    )
    c = result.counters
    assert c.retired == 3000
    assert c.dispatched >= c.retired
    assert c.issued >= c.retired  # every retired instruction issued >= once
    assert c.predictions_correct <= c.predictions
    assert c.speculated <= c.predictions
    assert (
        c.correct_high + c.correct_low + c.incorrect_high + c.incorrect_low
        == c.predictions
    )
    assert c.misspeculations == c.incorrect_high


# -- verification x invalidation pairs the golden grids never reach --------

_SCHEME_PAIRS = [
    (verification, invalidation)
    for verification in VerificationScheme
    for invalidation in InvalidationScheme
]
_PAIR_LIMIT = 800


def _pair_model(verification, invalidation) -> SpeculativeExecutionModel:
    return SpeculativeExecutionModel(
        name=f"great-{verification.name}-{invalidation.name}",
        variables=replace(
            GREAT_MODEL.variables,
            verification=verification,
            invalidation=invalidation,
        ),
        latencies=GREAT_MODEL.latencies,
    )


def _counters_dict(counters) -> dict:
    return {
        f.name: getattr(counters, f.name)
        for f in fields(counters)
        if f.name != "extra"
    }


@pytest.fixture(scope="module")
def pooled_scheme_pairs():
    """Every pair's run on a two-process pool, keyed by pair."""
    jobs = [
        SimJob(
            "micro:fib", paper_config("4/24"), _pair_model(v, i), _PAIR_LIMIT,
            update_timing="D",
        )
        for v, i in _SCHEME_PAIRS
    ]
    return dict(zip(_SCHEME_PAIRS, run_jobs(jobs, jobs=2)))


@pytest.mark.parametrize(
    "verification,invalidation",
    _SCHEME_PAIRS,
    ids=[f"{v.name}__{i.name}" for v, i in _SCHEME_PAIRS],
)
def test_scheme_pair_retires_and_is_deterministic(
    verification, invalidation, pooled_scheme_pairs
):
    """Each pair retires the whole trace, and its counters repeat exactly
    on a second in-process run and on a pool worker."""
    trace = kernel("micro:fib").trace(_PAIR_LIMIT)
    model = _pair_model(verification, invalidation)

    def once():
        result = run_trace(
            trace, paper_config("4/24"), model, confidence="R",
            update_timing="D",
        )
        return _counters_dict(result.counters)

    first = once()
    assert first["retired"] == len(trace) == _PAIR_LIMIT
    assert once() == first
    pooled = pooled_scheme_pairs[(verification, invalidation)]
    assert _counters_dict(pooled.counters) == first


# -- reference graph -------------------------------------------------------


def _scheme_model(scheme) -> SpeculativeExecutionModel:
    return SpeculativeExecutionModel(
        f"great-{scheme.value}",
        replace(GREAT_MODEL.variables, verification=scheme),
        GREAT_MODEL.latencies,
    )


_ACYCLIC_RUNS = {
    "base": dict(model=None),
    "context-vp": dict(model=GREAT_MODEL),
    "general-vp": dict(model=GREAT_MODEL, predictor=LastValuePredictor),
    **{
        f"verify-{scheme.name}": dict(model=_scheme_model(scheme))
        for scheme in VerificationScheme
    },
}


@pytest.mark.parametrize("setup", list(_ACYCLIC_RUNS))
def test_finished_simulator_is_freed_without_gc(setup):
    """A simulator holds no reference to itself (no bound methods of its
    own, no self-capturing closures), so dropping the last caller
    reference frees it and its predictor tables by reference counting
    alone — peak memory does not wait on the cycle collector."""
    spec = _ACYCLIC_RUNS[setup]
    predictor = spec.get("predictor")
    trace = kernel("micro:fib").trace(400)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        simulator = PipelineSimulator(
            trace,
            ProcessorConfig(4, 24),
            spec["model"],
            predictor=predictor() if predictor else None,
        )
        simulator.run()
        alive = weakref.ref(simulator)
        tables = (
            weakref.ref(simulator.predictor)
            if simulator.predictor is not None
            else None
        )
        del simulator
        assert alive() is None, "simulator survived its last reference"
        assert tables is None or tables() is None
    finally:
        if was_enabled:
            gc.enable()
