"""Table 1 reproduction: benchmark characteristics.

Paper columns: benchmark, input flags, dynamic instructions (millions),
instructions predicted (%).  Our kernels are small stand-ins, so the
dynamic count is reported in raw instructions alongside the paper's
millions; the predicted-% column is the directly comparable quantity
(the kernels were tuned to land near the paper's per-benchmark values).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.render import render_table
from repro.programs.suite import kernel, select_benchmarks
from repro.trace.stats import compute_stats


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's characteristics, measured and paper-reference."""

    benchmark: str
    input_label: str
    dynamic_instructions: int
    predicted_pct: float
    paper_dynamic_mil: int
    paper_predicted_pct: float


def run_table1(
    max_instructions: int | None = None, benchmarks: list[str] | None = None
) -> list[Table1Row]:
    """Execute the selected kernels (default: all) and measure their
    Table 1 characteristics."""
    rows: list[Table1Row] = []
    for name in select_benchmarks(benchmarks):
        spec = kernel(name)
        trace = spec.trace(max_instructions)
        stats = compute_stats(trace)
        rows.append(
            Table1Row(
                benchmark=spec.name,
                input_label=spec.input_label,
                dynamic_instructions=stats.total,
                predicted_pct=100.0 * stats.prediction_eligible_fraction,
                paper_dynamic_mil=spec.paper_dynamic_mil,
                paper_predicted_pct=spec.paper_predicted_pct,
            )
        )
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Print the Table 1 shape with paper reference columns."""
    return render_table(
        headers=(
            "Benchmark",
            "Input",
            "Dyn Instr",
            "Predicted %",
            "Paper Instr (mil)",
            "Paper Predicted %",
        ),
        rows=[
            (
                r.benchmark,
                r.input_label,
                r.dynamic_instructions,
                f"{r.predicted_pct:.1f}",
                r.paper_dynamic_mil,
                f"{r.paper_predicted_pct:.1f}",
            )
            for r in rows
        ],
        title="Table 1: Benchmark Characteristics (measured vs paper)",
    )
