"""Figure 3 reproduction: average speedup of the speculative execution
models.

The paper reports, for each processor configuration (4/24, 8/48, 16/96)
and each setting (D/R, I/R, D/O, I/O — update timing / confidence), the
harmonic-mean speedup of the good, great and super models over the base
processor across the SPECint95 suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.model import (
    GOOD_MODEL,
    GREAT_MODEL,
    SUPER_MODEL,
    SpeculativeExecutionModel,
)
from repro.engine.config import PAPER_CONFIGS, ProcessorConfig
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob, run_jobs
from repro.harness.render import render_bar, render_table
from repro.metrics.speedup import harmonic_mean
from repro.programs.suite import select_benchmarks

#: The paper's four update-timing/confidence settings.
SETTINGS: tuple[tuple[str, str], ...] = (
    ("D", "R"),
    ("I", "R"),
    ("D", "O"),
    ("I", "O"),
)

MODELS: tuple[SpeculativeExecutionModel, ...] = (GOOD_MODEL, GREAT_MODEL, SUPER_MODEL)


@dataclass(frozen=True)
class Figure3Cell:
    """One bar of Figure 3: a (config, setting, model) harmonic mean."""

    config_label: str
    setting: str  # e.g. "D/R"
    model_name: str
    speedup: float
    per_benchmark: dict[str, float] = field(default_factory=dict, compare=False)


def plan_figure3(
    max_instructions: int | None = 6000,
    benchmarks: list[str] | None = None,
    configs: tuple[ProcessorConfig, ...] = PAPER_CONFIGS,
    models: tuple[SpeculativeExecutionModel, ...] = MODELS,
) -> tuple[list[SimJob], Callable[[list[SimulationResult]], list[Figure3Cell]]]:
    """Figure 3's grid as ``(job_list, reduce)``: ``reduce`` turns the
    results of ``job_list``, in submission order, into the cells."""
    names = select_benchmarks(benchmarks)
    # One flat grid: per config, the baselines then every
    # (setting, model, benchmark) point, submitted together.
    job_list: list[SimJob] = []
    for config in configs:
        job_list.extend(SimJob(n, config, None, max_instructions) for n in names)
        for timing, conf in SETTINGS:
            for model in models:
                job_list.extend(
                    SimJob(
                        n,
                        config,
                        model,
                        max_instructions,
                        confidence=conf,
                        update_timing=timing,
                    )
                    for n in names
                )

    def reduce(results: list[SimulationResult]) -> list[Figure3Cell]:
        results = iter(results)
        cells: list[Figure3Cell] = []
        for config in configs:
            base_cycles = {n: next(results).cycles for n in names}
            for timing, conf in SETTINGS:
                for model in models:
                    per_benchmark = {
                        n: base_cycles[n] / next(results).cycles for n in names
                    }
                    cells.append(
                        Figure3Cell(
                            config_label=config.label,
                            setting=f"{timing}/{conf}",
                            model_name=model.name,
                            speedup=harmonic_mean(per_benchmark.values()),
                            per_benchmark=per_benchmark,
                        )
                    )
        return cells

    return job_list, reduce


def run_figure3(
    max_instructions: int | None = 6000,
    benchmarks: list[str] | None = None,
    configs: tuple[ProcessorConfig, ...] = PAPER_CONFIGS,
    models: tuple[SpeculativeExecutionModel, ...] = MODELS,
    jobs: int = 1,
) -> list[Figure3Cell]:
    """Run the full Figure 3 sweep.

    ``max_instructions`` truncates each kernel trace (the pure-Python
    cycle-level engine is the cost driver — see DESIGN.md); the paper's
    qualitative shape is stable from a few thousand instructions up.
    ``jobs`` fans the whole (config x setting x model x benchmark) grid —
    baselines included — over worker processes; the cells are identical
    for any worker count.
    """
    job_list, reduce = plan_figure3(max_instructions, benchmarks, configs, models)
    return reduce(run_jobs(job_list, jobs=jobs))


def render_figure3(cells: list[Figure3Cell]) -> str:
    """Bar-style rendering grouped the way the paper's figure is."""
    lines = ["Figure 3: Speculative Execution Models Average Speedup", ""]
    config_labels = []
    for cell in cells:
        if cell.config_label not in config_labels:
            config_labels.append(cell.config_label)
    for config_label in config_labels:
        lines.append(f"configuration {config_label}:")
        for setting in (f"{t}/{c}" for t, c in SETTINGS):
            group = [
                c
                for c in cells
                if c.config_label == config_label and c.setting == setting
            ]
            for cell in group:
                # Bars span 0.9 .. 1.5 like the paper's y-axis.
                fraction = (cell.speedup - 0.9) / 0.6
                lines.append(
                    f"  {setting}  {cell.model_name:6s} "
                    f"{render_bar(fraction)} {cell.speedup:.3f}"
                )
        lines.append("")
    return "\n".join(lines)


def render_figure3_per_benchmark(
    cells: list[Figure3Cell], setting: str = "I/R"
) -> str:
    """Per-benchmark speedups for one setting (the detail the paper omits
    "due to space limitations — the individual benchmark behavior is
    similar to the overall")."""
    chosen = [c for c in cells if c.setting == setting]
    if not chosen:
        raise ValueError(f"no cells for setting {setting!r}")
    benchmarks = sorted(
        {name for cell in chosen for name in cell.per_benchmark}
    )
    headers = ["Config", "Model"] + benchmarks + ["HMEAN"]
    rows = []
    for cell in chosen:
        rows.append(
            [cell.config_label, cell.model_name]
            + [f"{cell.per_benchmark.get(b, float('nan')):.3f}" for b in benchmarks]
            + [f"{cell.speedup:.3f}"]
        )
    return render_table(
        headers, rows, title=f"Figure 3 per-benchmark detail ({setting})"
    )


def figure3_table(cells: list[Figure3Cell]) -> str:
    """The same data as an aligned table (model x setting per config)."""
    rows = [
        (c.config_label, c.setting, c.model_name, c.speedup) for c in cells
    ]
    return render_table(
        ("Config", "Setting", "Model", "HM Speedup"),
        rows,
        title="Figure 3 data",
    )
