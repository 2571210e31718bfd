"""Compare two results files of ``bench/run.py``: the parent (A) and a
change (B).

Usage: python3 bench/compare.py A.json B.json [--claim METRIC@WORKLOAD]...

For every end-to-end metric in ``BENCHMARK.json`` and every workload in
both files it prints A's and B's medians and quartiles over runs, B's
change and one verdict:

* ``ok`` -- B's median is no worse than A's by more than the metric's
  bound (a share of A's median);
* ``REGRESSION`` -- it is worse by more than the bound;
* ``unresolved`` -- A's own interquartile spread is wider than the bound,
  so a change that size cannot be told from noise; ``better (every run)``
  when every run of B still beats every run of A.

It also prints failed/attempted operations per workload.  ``--claim``
checks that B improved METRIC on WORKLOAD: runs are paired by repetition,
B must win at least nine tenths of the pairs (ties count for neither) out
of at least ten, and the medians must differ by more than A's
interquartile spread.  Exit status 1 on a regression, a rise in failed
operations or a claim not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import load_benchmark, summarize

#: Pairs a claim needs, and the share of them B must win.
CLAIM_PAIRS = 10
CLAIM_WINS = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """A results file's end-to-end runs by workload, in repetition order."""
    doc = json.loads(Path(path).read_text())
    if doc.get("trace"):
        raise ValueError(f"{path} holds traced runs; compare untraced ones")
    runs: dict[str, list[dict]] = {}
    for run in sorted(doc["runs"], key=lambda run: run["rep"]):
        runs.setdefault(run["workload"], []).append(run)
    return runs


def _better(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def change(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sa, sb = summarize(a), summarize(b)
    if (sa["q3"] - sa["q1"]) / sa["median"] > bound:
        if all(_better(y, x, better) for x in a for y in b):
            return "better (every run)"
        return "unresolved"
    if change(sa["median"], sb["median"], better) > bound:
        return "REGRESSION"
    return "ok"


def claim(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    """The paired-wins rule for a claimed improvement of B over A."""
    pairs = list(zip(a, b))
    wins = sum(_better(y, x, better) for x, y in pairs)
    sa, sb = summarize(a), summarize(b)
    spread = sa["q3"] - sa["q1"]
    gap = abs(sb["median"] - sa["median"])
    holds = (
        len(pairs) >= CLAIM_PAIRS
        and wins >= CLAIM_WINS * len(pairs)
        and _better(sb["median"], sa["median"], better)
        and gap > spread
    )
    return holds, (
        f"B won {wins}/{len(pairs)} pairs; medians differ by {gap:.6g}, "
        f"A's interquartile spread is {spread:.6g}"
    )


def _cell(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    workloads = [w for w in a_runs if w in b_runs]
    bad = False
    print(f"{'workload':12s} {'metric':16s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            a = [run["metrics"][name] for run in a_runs[workload]]
            b = [run["metrics"][name] for run in b_runs[workload]]
            sa, sb = summarize(a), summarize(b)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad |= outcome == "REGRESSION"
            worse = change(sa["median"], sb["median"], metric["better"])
            print(f"{workload:12s} {name:16s} {_cell(sa):>34s} {_cell(sb):>34s} "
                  f"{worse:>+7.1%} {metric['bound']:>6.0%}  {outcome}")
        failed = [
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in (a_runs[workload], b_runs[workload])
        ]
        rise = failed[1][0] / failed[1][1] > failed[0][0] / failed[0][1]
        bad |= rise
        print(f"{workload:12s} failed: A {failed[0][0]}/{failed[0][1]}, "
              f"B {failed[1][0]}/{failed[1][1]}{'  FAILURES ROSE' if rise else ''}")
    for text in args.claim:
        name, _, workload = text.partition("@")
        if name not in metrics or workload not in workloads:
            parser.error(f"--claim {text}: no such metric@workload in both files")
        holds, detail = claim(
            [run["metrics"][name] for run in a_runs[workload]],
            [run["metrics"][name] for run in b_runs[workload]],
            metrics[name]["better"],
        )
        bad |= not holds
        print(f"claim {text}: {'met' if holds else 'NOT MET'} ({detail})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
