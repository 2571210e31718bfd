"""Run the full-scale reproduction and dump results for EXPERIMENTS.md.

Runs every experiment in the registry at publication scale (all eight
kernels, all three paper configurations) and writes both the rendered
text and a JSON results file under ``results/``.

Usage:  python scripts/run_full_experiments.py [--trace-limit N] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.harness.figure1 import render_figure1, run_figure1
from repro.harness.figure3 import figure3_table, render_figure3, run_figure3
from repro.harness.figure4 import render_figure4, run_figure4
from repro.harness.render import render_table
from repro.harness.sweeps import SWEEPS
from repro.harness.table1 import render_table1, run_table1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-limit", type=int, default=8000)
    parser.add_argument("--sweep-limit", type=int, default=5000)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for every simulation grid (0 = all cores); "
        "results are identical for any value",
    )
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(exist_ok=True)
    report: dict = {"trace_limit": args.trace_limit, "jobs": args.jobs}
    text_parts: list[str] = []

    def section(title: str, body: str) -> None:
        text_parts.append(f"### {title}\n\n```\n{body}\n```\n")
        print(f"[done] {title}", flush=True)

    t0 = time.time()

    rows = run_table1(max_instructions=None)
    report["table1"] = [
        {
            "benchmark": r.benchmark,
            "dynamic": r.dynamic_instructions,
            "predicted_pct": round(r.predicted_pct, 1),
            "paper_predicted_pct": r.paper_predicted_pct,
        }
        for r in rows
    ]
    section("Table 1", render_table1(rows))

    scenarios = run_figure1()
    report["figure1"] = {s.label: s.cycles for s in scenarios}
    section("Figure 1", render_figure1(scenarios))

    cells = run_figure3(max_instructions=args.trace_limit, jobs=args.jobs)
    report["figure3"] = [
        {
            "config": c.config_label,
            "setting": c.setting,
            "model": c.model_name,
            "speedup": round(c.speedup, 4),
            "per_benchmark": {k: round(v, 4) for k, v in c.per_benchmark.items()},
        }
        for c in cells
    ]
    section("Figure 3", render_figure3(cells) + "\n" + figure3_table(cells))

    f4 = run_figure4(max_instructions=args.trace_limit, jobs=args.jobs)
    report["figure4"] = [
        {
            "config": c.config_label,
            "timing": c.timing,
            **{k: round(v, 4) for k, v in c.breakdown.as_dict().items()},
        }
        for c in f4
    ]
    section("Figure 4", render_figure4(f4))

    for sweep in SWEEPS.values():
        if sweep.section is None:
            continue
        points = sweep(max_instructions=args.sweep_limit, jobs=args.jobs)
        report[sweep.section] = {p.label: round(p.speedup, 4) for p in points}
        section(
            sweep.section,
            render_table(("Point", "HM Speedup"),
                         [(p.label, p.speedup) for p in points]),
        )

    report["wall_seconds"] = round(time.time() - t0, 1)
    (out_dir / "full_results.json").write_text(json.dumps(report, indent=2))
    (out_dir / "full_results.txt").write_text("\n".join(text_parts))
    print(f"total wall time: {report['wall_seconds']}s")


if __name__ == "__main__":
    main()
