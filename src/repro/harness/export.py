"""Structured data export for plotting and downstream analysis.

Every experiment's *data* (not its rendered text) as CSV: Figure 3 cells,
Figure 4 breakdowns, and any sweep's points (with per-benchmark columns).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Callable, Sequence

from repro.harness.figure3 import Figure3Cell, run_figure3
from repro.harness.figure4 import Figure4Cell, run_figure4
from repro.harness.sweeps import SWEEPS
from repro.harness.table1 import Table1Row, run_table1


def _csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


def table1_csv(rows: list[Table1Row]) -> str:
    """Table 1 rows as CSV."""
    return _csv(
        ("benchmark", "input", "dynamic_instructions", "predicted_pct",
         "paper_dynamic_mil", "paper_predicted_pct"),
        [
            (r.benchmark, r.input_label, r.dynamic_instructions,
             round(r.predicted_pct, 2), r.paper_dynamic_mil,
             r.paper_predicted_pct)
            for r in rows
        ],
    )


def figure3_csv(cells: list[Figure3Cell]) -> str:
    """Figure 3 cells as long-format CSV (one row per benchmark value)."""
    rows = []
    for cell in cells:
        rows.append(
            (cell.config_label, cell.setting, cell.model_name, "HMEAN",
             round(cell.speedup, 4))
        )
        for benchmark, value in sorted(cell.per_benchmark.items()):
            rows.append(
                (cell.config_label, cell.setting, cell.model_name,
                 benchmark, round(value, 4))
            )
    return _csv(("config", "setting", "model", "benchmark", "speedup"), rows)


def figure4_csv(cells: list[Figure4Cell]) -> str:
    """Figure 4 breakdowns as CSV."""
    rows = [
        (c.config_label, c.timing, round(c.breakdown.ch, 4),
         round(c.breakdown.cl, 4), round(c.breakdown.ih, 4),
         round(c.breakdown.il, 4), round(c.breakdown.correct, 4))
        for c in cells
    ]
    return _csv(("config", "timing", "CH", "CL", "IH", "IL", "correct"), rows)


def sweep_csv(points) -> str:
    """Any sweep's points as long-format CSV."""
    rows = []
    for point in points:
        rows.append((point.label, "HMEAN", round(point.speedup, 4)))
        for key, value in sorted(point.detail.items()):
            rows.append((point.label, key, round(value, 4)))
    return _csv(("point", "benchmark", "speedup"), rows)


#: Exportable datasets: id -> (runner, csv-formatter).  Runner kwargs are
#: the usual (max_instructions=..., benchmarks=...).  Every sweep in
#: :data:`~repro.harness.sweeps.SWEEPS` exports with :func:`sweep_csv`.
EXPORTS: dict[str, tuple[Callable, Callable]] = {
    "table1": (run_table1, table1_csv),
    "figure3": (run_figure3, figure3_csv),
    "figure4": (run_figure4, figure4_csv),
    **{sweep.id: (sweep, sweep_csv) for sweep in SWEEPS.values()},
}


def export_csv(experiment_id: str, path: str | Path | None = None, **kwargs) -> str:
    """Run an exportable experiment and return (and optionally write) CSV."""
    entry = EXPORTS.get(experiment_id)
    if entry is None:
        raise KeyError(
            f"no CSV export for {experiment_id!r}; know {sorted(EXPORTS)}"
        )
    runner, formatter = entry
    text = formatter(runner(**kwargs))
    if path is not None:
        Path(path).write_text(text)
    return text
