"""Figure 1 reproduction: pipelined execution of a three-instruction
dependence chain under the base processor and the super/great/good models
with correct and incorrect predictions.

The paper's figure shows seven scenarios over instructions 1, 2, 3 where
2 depends on 1 and 3 depends on 2, all resident in the instruction window
at cycle t, with the outputs of 1 and 2 value-predicted.  This harness
rebuilds exactly that situation, runs the timing engine with a
:class:`~repro.obs.PipelineTracer` attached and renders the per-cycle
pipeline diagram from its lifecycle marks, plus the cycles-to-retire-all
count (the base processor takes 5 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import (
    GOOD_MODEL,
    GREAT_MODEL,
    SUPER_MODEL,
    SpeculativeExecutionModel,
)
from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.isa.opcodes import Opcode
from repro.trace.record import TraceRecord
from repro.vp.fixed import ConfidentForPCs, FixedValuePredictor
from repro.vp.update_timing import UpdateTiming

_PCS = (0x1000, 0x1008, 0x1010)
_VALUES = (1, 2, 3)


def chain_trace() -> list[TraceRecord]:
    """The figure's dependence chain: 2 depends on 1, 3 depends on 2."""
    records = []
    sources = ((4,), (10,), (11,))
    dests = (10, 11, 12)
    for i in range(3):
        records.append(
            TraceRecord(
                seq=i,
                pc=_PCS[i],
                opcode=Opcode.ADD,
                src_regs=sources[i],
                dest_reg=dests[i],
                dest_value=_VALUES[i],
                next_pc=_PCS[i] + 8,
            )
        )
    return records


@dataclass(frozen=True)
class Figure1Scenario:
    """One of the figure's seven scenarios."""

    label: str
    model_name: str  # "base", "super", "great", "good"
    prediction: str  # "none", "correct", "incorrect"
    cycles: int  # cycles from first issue opportunity to last retirement
    timeline: dict[int, list[tuple[int, str]]]  # cycle -> [(seq, stage)]


#: Tracer lifecycle phase -> the figure's stage label.  Phases without a
#: label (fetch, dispatch, wakeup, lsq, mem-access, squash) are not drawn.
_STAGE_LABEL = {
    "issue": "EX",
    "reissue": "EX*",
    "result": "W",
    "equality": "EQ",
    "verify": "V",
    "invalidate": "X",
    "retire": "C",
    "predict": "P",
}


def _run_scenario(
    label: str,
    model: SpeculativeExecutionModel | None,
    prediction: str,
) -> Figure1Scenario:
    trace = chain_trace()
    config = ProcessorConfig(issue_width=4, window_size=24)
    predictor = None
    confidence = None
    if model is not None and prediction != "none":
        offset = 0 if prediction == "correct" else 99
        predictor = FixedValuePredictor(
            {_PCS[0]: _VALUES[0] + offset, _PCS[1]: _VALUES[1] + offset}
        )
        confidence = ConfidentForPCs({_PCS[0], _PCS[1]})
    # Imported here: repro.obs pulls in its exporters, which every
    # importer of repro.harness would otherwise load.
    from repro.obs.tracer import PipelineTracer

    tracer = PipelineTracer()
    simulator = PipelineSimulator(
        trace,
        config,
        model,
        predictor=predictor,
        confidence=confidence,
        update_timing=UpdateTiming.IMMEDIATE,
        tracer=tracer,
    )
    simulator.run()
    marks = tracer.lifecycle_marks()
    dispatch_cycle = min(m.cycle for m in marks if m.phase == "dispatch")
    first_issue = dispatch_cycle + 1  # the figure's cycle t
    last_retire = max(m.cycle for m in marks if m.phase == "retire")
    timeline: dict[int, list[tuple[int, str]]] = {}
    for mark in marks:
        stage = _STAGE_LABEL.get(mark.phase)
        if stage is None:
            continue
        timeline.setdefault(mark.cycle - first_issue, []).append(
            (mark.seq, stage)
        )
    return Figure1Scenario(
        label=label,
        model_name=model.name if model is not None else "base",
        prediction=prediction,
        cycles=last_retire - first_issue + 1,
        timeline=timeline,
    )


def run_figure1() -> list[Figure1Scenario]:
    """All seven scenarios of the paper's Figure 1."""
    scenarios = [_run_scenario("base", None, "none")]
    for model in (SUPER_MODEL, GREAT_MODEL, GOOD_MODEL):
        for prediction in ("correct", "incorrect"):
            scenarios.append(
                _run_scenario(f"{model.name}/{prediction}", model, prediction)
            )
    return scenarios


def render_figure1(scenarios: list[Figure1Scenario]) -> str:
    """ASCII pipeline diagrams, one per scenario."""
    lines: list[str] = [
        "Figure 1: execution of a 3-instruction dependence chain",
        "(cycle t = first issue opportunity; stages: EX execute, EX* reissue,",
        " W write, EQ equality, V verify, X invalidate, C commit, P predict)",
        "",
    ]
    for scenario in scenarios:
        lines.append(
            f"{scenario.label:16s} retires all 3 in {scenario.cycles} cycles"
        )
        max_cycle = max(scenario.timeline) if scenario.timeline else 0
        cells: dict[tuple[int, int], str] = {}
        width = 7
        for cycle in range(0, max_cycle + 1):
            for seq in range(3):
                stages = [
                    stage
                    for (s, stage) in scenario.timeline.get(cycle, [])
                    if s == seq
                ]
                text = ",".join(dict.fromkeys(stages))  # dedupe, keep order
                cells[(seq, cycle)] = text
                width = max(width, len(text) + 1)
        header = "    instr |" + "".join(
            (f"t+{c}" if c else "t").center(width) for c in range(0, max_cycle + 1)
        )
        lines.append(header)
        for seq in range(3):
            row = [f"        {seq + 1} |"]
            for cycle in range(0, max_cycle + 1):
                row.append(cells[(seq, cycle)].center(width))
            lines.append("".join(row).rstrip())
        lines.append("")
    return "\n".join(lines)
