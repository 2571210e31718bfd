"""Visualize execution behaviour over time: base vs the three models.

Rebuilds IPC and instruction-window occupancy samples from each run's
tracer lifecycle marks and renders sparkline timelines — making visible
*where* value speculation wins (phases with predictable dependence
chains) and where the good model's verification latency throttles
retirement.  Occupancy counts correct-path stations only: wrong-path
stations emit no dispatch marks.

Run:  python examples/execution_timeline.py
"""

from repro import GOOD_MODEL, GREAT_MODEL, SUPER_MODEL, ProcessorConfig, kernel
from repro.engine.pipeline import PipelineSimulator
from repro.obs import PipelineTracer
from repro.viz import render_ipc_comparison, render_timeline, samples_from_tracer
from repro.vp.update_timing import UpdateTiming


def main() -> None:
    spec = kernel("m88ksim")
    trace = spec.trace(max_instructions=12_000)
    config = ProcessorConfig(issue_width=8, window_size=48)

    runs = {}
    for model in (None, SUPER_MODEL, GREAT_MODEL, GOOD_MODEL):
        tracer = PipelineTracer()
        PipelineSimulator(
            trace,
            config,
            model,
            update_timing=UpdateTiming.IMMEDIATE,
            tracer=tracer,
        ).run()
        label = model.name if model is not None else "base"
        runs[label] = samples_from_tracer(tracer, interval=50)

    print(f"{spec.name}: IPC over time (50-cycle samples)\n")
    print(render_ipc_comparison(runs))
    print()
    print(render_timeline(runs["great"], label="great model, detail:"))


if __name__ == "__main__":
    main()
