"""Run the full-scale reproduction and dump results for EXPERIMENTS.md.

Runs every experiment in the registry at publication scale (all eight
kernels, all three paper configurations) through
:func:`repro.harness.experiments.run_reproduction` and writes both the
rendered text and a JSON results file under ``results/``.

Usage:  python scripts/run_full_experiments.py [--trace-limit N]
            [--sweep-limit N] [--jobs N] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.harness.experiments import run_reproduction


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
    report, text = run_reproduction(
        args.trace_limit, args.sweep_limit, args.jobs,
        done=lambda title: print(f"[done] {title}", flush=True),
    )
    (out_dir / "full_results.json").write_text(json.dumps(report, indent=2))
    (out_dir / "full_results.txt").write_text(text)
    print(f"total wall time: {report['wall_seconds']}s")


if __name__ == "__main__":
    main()
