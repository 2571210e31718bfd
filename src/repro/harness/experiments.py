"""The experiment registry: every paper artifact and ablation by id.

``EXPERIMENTS`` maps DESIGN.md's experiment ids to runnable entries; the
CLI (``python -m repro run <id>``) executes them.  The ``abl-*`` entries
come from :data:`repro.harness.sweeps.SWEEPS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.harness import figure1, figure3, figure4, table1
from repro.harness.sweeps import SWEEPS, Sweep
from repro.programs.suite import kernel, select_benchmarks


#: The grid options every command may pass an experiment.
GRID_OPTIONS = ("max_instructions", "benchmarks", "jobs", "backend")


@dataclass(frozen=True)
class Experiment:
    """A runnable reproduction artifact.

    ``runner`` returns the rendered text and takes the grid options
    named in ``options``; :meth:`run` drops the other grid options, so
    every command (``run``, ``submit``, ``cluster submit``) can pass all
    of them.
    """

    id: str
    title: str
    paper_ref: str
    runner: Callable[..., str]
    options: tuple[str, ...] = GRID_OPTIONS

    def run(self, **kwargs) -> str:
        ignored = set(GRID_OPTIONS).difference(self.options)
        return self.runner(**{k: v for k, v in kwargs.items() if k not in ignored})


def _run_figure3(**grid) -> str:
    cells = figure3.run_figure3(**grid)
    return figure3.render_figure3(cells) + "\n" + figure3.figure3_table(cells)


def _run_limit_study(
    max_instructions: int | None = 6000, benchmarks: list[str] | None = None
) -> str:
    from repro.analysis.limits import limit_study, render_limit_study

    return "\n\n".join(
        render_limit_study(limit_study(kernel(name).trace(max_instructions)), name)
        for name in select_benchmarks(benchmarks)
    )


def _run_sweep(sweep: Sweep, **grid) -> str:
    return sweep.render(sweep(**grid))


#: Options of the artifacts that are pure trace analysis (nothing to fan
#: out over workers).
_ANALYSIS_OPTIONS = ("max_instructions", "benchmarks")

EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment(
            "table1",
            "Benchmark characteristics",
            "Table 1",
            lambda **grid: table1.render_table1(table1.run_table1(**grid)),
            _ANALYSIS_OPTIONS,
        ),
        Experiment(
            "figure1",
            "Pipeline execution example (3-instruction chain)",
            "Figure 1",
            # seven hand-built scenarios: no trace, nothing to fan out
            lambda: figure1.render_figure1(figure1.run_figure1()),
            (),
        ),
        Experiment(
            "figure3",
            "Average speedup of speculative execution models",
            "Figure 3",
            _run_figure3,
        ),
        Experiment(
            "figure4",
            "Average prediction accuracy (CH/CL/IH/IL)",
            "Figure 4",
            lambda **grid: figure4.render_figure4(figure4.run_figure4(**grid)),
        ),
        Experiment(
            "limit-study",
            "Window-constrained ILP limits, base vs perfect value prediction",
            "Section 1 motivation",
            _run_limit_study,
            _ANALYSIS_OPTIONS,
        ),
        *(
            Experiment(s.id, s.title, s.paper_ref, partial(_run_sweep, s))
            for s in SWEEPS.values()
        ),
    )
}
