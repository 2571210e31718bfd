"""Visualization tests: sparklines, timelines, samples rebuilt from a
run's tracer."""

import pytest

from repro.engine.config import ProcessorConfig
from repro.engine.pipeline import PipelineSimulator
from repro.obs import PipelineTracer
from repro.trace.synthetic import SyntheticTraceConfig, generate_synthetic_trace
from repro.viz import (
    render_ipc_comparison,
    render_timeline,
    samples_from_tracer,
    sparkline,
)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        out = sparkline([5.0] * 10)
        assert len(out) == 10
        assert len(set(out)) == 1

    def test_monotone_series_rises(self):
        out = sparkline([float(i) for i in range(8)], width=8)
        assert out[0] < out[-1]  # block characters are ordinal

    def test_resampling_to_width(self):
        out = sparkline([float(i) for i in range(1000)], width=40)
        assert len(out) == 40

    def test_short_series_not_padded(self):
        assert len(sparkline([1.0, 2.0], width=40)) == 2

    def test_width_validation(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestEngineSampling:
    """Timelines come from the tracer: samples_from_tracer over the
    lifecycle marks of a traced run."""

    def test_sampling_disabled_by_default(self):
        trace = generate_synthetic_trace(SyntheticTraceConfig(length=100))
        sim = PipelineSimulator(trace, ProcessorConfig(4, 16))
        sim.run()
        assert sim.tracer is None and not sim._obs_on
        assert samples_from_tracer(PipelineTracer()) == []

    def test_samples_cover_the_run(self):
        trace = generate_synthetic_trace(SyntheticTraceConfig(length=600))
        tracer = PipelineTracer()
        sim = PipelineSimulator(
            trace, ProcessorConfig(issue_width=4, window_size=16), tracer=tracer
        )
        counters = sim.run()
        samples = samples_from_tracer(tracer, interval=10)
        assert len(samples) >= 5
        cycles = [s[0] for s in samples]
        assert cycles == sorted(cycles)
        retired = [s[1] for s in samples]
        assert retired == sorted(retired)  # cumulative
        assert retired[-1] == counters.retired
        assert all(0 <= occ <= 16 for __, __, occ in samples)


class TestTimelineRender:
    def test_no_samples_message(self):
        assert "no samples" in render_timeline([], label="x")

    def test_timeline_contains_both_series(self):
        samples = [(10 * i, 8 * i, (i * 3) % 16) for i in range(1, 30)]
        text = render_timeline(samples, label="run")
        assert "IPC" in text and "occupancy" in text
        assert "run" in text

    def test_comparison_alignment(self):
        samples = [(10 * i, 8 * i, 4) for i in range(1, 20)]
        text = render_ipc_comparison({"base": samples, "supermodel": samples})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].index("mean IPC") == lines[1].index("mean IPC")
