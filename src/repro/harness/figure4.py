"""Figure 4 reproduction: average prediction accuracy for the great model.

The paper splits all value predictions into four sets — correct/high
confidence (CH), correct/low (CL), incorrect/high (IH), incorrect/low
(IL) — and reports the arithmetic-mean fractions per configuration and
update timing (with realistic confidence).  The headline findings: total
correct is 63–71%; IH is held under 1% by the resetting counters, but at
the cost of a 20–25% CL set; delayed updating and larger windows lower
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.model import GREAT_MODEL, SpeculativeExecutionModel
from repro.engine.config import PAPER_CONFIGS, ProcessorConfig
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob, run_jobs
from repro.harness.render import render_table
from repro.metrics.accuracy import AccuracyBreakdown, average_breakdown
from repro.programs.suite import select_benchmarks


@dataclass(frozen=True)
class Figure4Cell:
    """One bar group of Figure 4: a (config, timing) accuracy breakdown."""

    config_label: str
    timing: str  # "D" or "I"
    breakdown: AccuracyBreakdown


def plan_figure4(
    max_instructions: int | None = 6000,
    benchmarks: list[str] | None = None,
    configs: tuple[ProcessorConfig, ...] = PAPER_CONFIGS,
    model: SpeculativeExecutionModel = GREAT_MODEL,
) -> tuple[list[SimJob], Callable[[list[SimulationResult]], list[Figure4Cell]]]:
    """Figure 4's grid as ``(job_list, reduce)``: ``reduce`` turns the
    results of ``job_list``, in submission order, into the cells."""
    names = select_benchmarks(benchmarks)
    grid = [(config, timing) for config in configs for timing in ("D", "I")]
    job_list = [
        SimJob(
            name,
            config,
            model,
            max_instructions,
            confidence="R",
            update_timing=timing,
        )
        for config, timing in grid
        for name in names
    ]

    def reduce(results: list[SimulationResult]) -> list[Figure4Cell]:
        results = iter(results)
        cells: list[Figure4Cell] = []
        for config, timing in grid:
            breakdowns = [next(results).accuracy_breakdown for _ in names]
            cells.append(
                Figure4Cell(
                    config_label=config.label,
                    timing=timing,
                    breakdown=average_breakdown(breakdowns),
                )
            )
        return cells

    return job_list, reduce


def run_figure4(
    max_instructions: int | None = 6000,
    benchmarks: list[str] | None = None,
    configs: tuple[ProcessorConfig, ...] = PAPER_CONFIGS,
    model: SpeculativeExecutionModel = GREAT_MODEL,
    jobs: int = 1,
    backend: str | None = None,
) -> list[Figure4Cell]:
    """Measure the CH/CL/IH/IL breakdown for the great model (real
    confidence) across configurations and update timings.  ``jobs`` fans
    the (config x timing x benchmark) grid over worker processes."""
    job_list, reduce = plan_figure4(max_instructions, benchmarks, configs, model)
    return reduce(run_jobs(job_list, jobs=jobs, backend=backend))


def render_figure4(cells: list[Figure4Cell]) -> str:
    """The figure's stacked-bar data as a table (percentages)."""
    rows = []
    for cell in cells:
        b = cell.breakdown
        rows.append(
            (
                cell.config_label,
                cell.timing,
                f"{100 * b.ch:.1f}",
                f"{100 * b.cl:.1f}",
                f"{100 * b.ih:.2f}",
                f"{100 * b.il:.1f}",
                f"{100 * b.correct:.1f}",
            )
        )
    return render_table(
        ("Config", "Timing", "CH %", "CL %", "IH %", "IL %", "Correct %"),
        rows,
        title="Figure 4: Average Prediction Accuracy (great model, real confidence)",
    )
