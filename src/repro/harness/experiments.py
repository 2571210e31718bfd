"""The experiment registry: every paper artifact and ablation by id.

``EXPERIMENTS`` maps DESIGN.md's experiment ids to runnable entries; the
CLI (``python -m repro run <id>``) executes them.  The ``abl-*`` entries
come from :data:`repro.harness.sweeps.SWEEPS`.  :func:`run_reproduction`
runs every artifact and sweep section at once, as one plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.harness import figure1, figure3, figure4, parallel, table1
from repro.harness.render import render_table
from repro.harness.sweeps import SWEEPS, Sweep, SweepPoint
from repro.programs.suite import kernel, select_benchmarks


#: The grid options every command may pass an experiment.
GRID_OPTIONS = ("max_instructions", "benchmarks", "jobs", "backend")


@dataclass(frozen=True)
class Experiment:
    """A runnable reproduction artifact.

    ``runner`` returns the rendered text and takes the grid options
    named in ``options``; :meth:`run` drops the other grid options, so
    every command (``run``, ``submit``) can pass all of them.
    """

    id: str
    title: str
    paper_ref: str
    runner: Callable[..., str]
    options: tuple[str, ...] = GRID_OPTIONS

    def run(self, **kwargs) -> str:
        ignored = set(GRID_OPTIONS).difference(self.options)
        return self.runner(**{k: v for k, v in kwargs.items() if k not in ignored})


def _render_figure3(cells: list[figure3.Figure3Cell]) -> str:
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
            lambda **grid: _render_figure3(figure3.run_figure3(**grid)),
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


# A grid section's presenter: its cells or points as the section's
# record in the results document, and as its rendered text.


def _figure3_section(cells: list[figure3.Figure3Cell]) -> tuple[list, str]:
    record = [
        {
            "config": c.config_label,
            "setting": c.setting,
            "model": c.model_name,
            "speedup": round(c.speedup, 4),
            "per_benchmark": {k: round(v, 4) for k, v in c.per_benchmark.items()},
        }
        for c in cells
    ]
    return record, _render_figure3(cells)


def _figure4_section(cells: list[figure4.Figure4Cell]) -> tuple[list, str]:
    record = [
        {
            "config": c.config_label,
            "timing": c.timing,
            **{k: round(v, 4) for k, v in c.breakdown.as_dict().items()},
        }
        for c in cells
    ]
    return record, figure4.render_figure4(cells)


def _sweep_section(points: list[SweepPoint]) -> tuple[dict, str]:
    rows = [(p.label, p.speedup) for p in points]
    record = {p.label: round(p.speedup, 4) for p in points}
    return record, render_table(("Point", "HM Speedup"), rows)


def run_reproduction(
    trace_limit: int | None = 8000,
    sweep_limit: int | None = 5000,
    jobs: int = 1,
    done: Callable[[str], None] = lambda title: None,
) -> tuple[dict, str]:
    """The full reproduction: every paper artifact and every sweep with
    a ``section``, all eight kernels, the three paper configurations.

    Returns ``(report, text)``: the JSON document of the measured values
    (``results/full_results.json``) and the rendered sections.
    ``done(title)`` is called as each section is ready.

    Table 1 and Figure 1 need no grid and run first.  Figure 3 and
    Figure 4 (at ``trace_limit`` instructions) and the sweep sections
    (at ``sweep_limit``) each plan ``(job_list, reduce)``; their job
    lists are joined in section order and run by one
    :func:`~repro.harness.parallel.run_jobs` call.  A point several
    sections share (Figure 4 is a slice of Figure 3, and most sweeps
    share their baselines) thus runs once, every trace is staged once,
    and one longest-first pool runs the whole set.  Each reducer then
    gets its own slice of the results, so every section equals what its
    own runner returns.
    """
    report: dict = {
        "trace_limit": trace_limit, "sweep_limit": sweep_limit, "jobs": jobs,
    }
    parts: list[str] = []

    def section(key: str, title: str, record, body: str) -> None:
        report[key] = record
        parts.append(f"### {title}\n\n```\n{body}\n```\n")
        done(title)

    begin = time.time()
    rows = table1.run_table1(max_instructions=None)
    section("table1", "Table 1", [
        {
            "benchmark": r.benchmark,
            "dynamic": r.dynamic_instructions,
            "predicted_pct": round(r.predicted_pct, 1),
            "paper_predicted_pct": r.paper_predicted_pct,
        }
        for r in rows
    ], table1.render_table1(rows))
    scenarios = figure1.run_figure1()
    section("figure1", "Figure 1", {s.label: s.cycles for s in scenarios},
            figure1.render_figure1(scenarios))

    plans = [
        ("figure3", "Figure 3",
         figure3.plan_figure3(max_instructions=trace_limit), _figure3_section),
        ("figure4", "Figure 4",
         figure4.plan_figure4(max_instructions=trace_limit), _figure4_section),
        *(
            (s.section, s.section, s.plan(max_instructions=sweep_limit),
             _sweep_section)
            for s in SWEEPS.values() if s.section is not None
        ),
    ]
    results = parallel.run_jobs(
        [job for _, _, (job_list, _), _ in plans for job in job_list], jobs=jobs
    )
    start = 0
    for key, title, (job_list, reduce), present in plans:
        stop = start + len(job_list)
        section(key, title, *present(reduce(results[start:stop])))
        start = stop
    report["wall_seconds"] = round(time.time() - begin, 1)
    return report, "\n".join(parts)
