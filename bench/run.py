"""End-to-end benchmark of the reproduction: four workloads, per-layer
times measured from outside the program.

Usage (from the repository root; no install or PYTHONPATH needed):

    python3 bench/run.py --workload fig3 --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --reps 3              # every workload, interleaved
    python3 bench/run.py --reps 10 --record    # rewrite bench/baseline.json

A *run* of a workload is a sequence of passes, each a fresh Python
process (``bench/workloads.py``) with fresh trace-cache and result-store
directories, started until about ``--seconds`` have gone by; a run
reports the median of its passes.  ``--reps`` runs every selected
workload that many times, round-robin (fig3, sweeps, long_pool2,
service_mix, fig3, ...) with seeds ``--seed``, ``--seed`` + 1, ..., so a
slow period on a shared host hits every workload alike.

With ``--trace 0`` a run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it wraps the layer boundaries and
reports the per-layer metrics instead (a traced run is never used for an
end-to-end number).  Every pass's results are checked against
``bench/expected.json``; a mismatch counts its operations as failed and
makes the exit code 1.  The last line of standard output is the JSON
summary of the last run; the full results, for ``bench/compare.py``, go
to ``<out>/results-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
BASELINE = BENCH / "baseline.json"

#: Environment variables that change what the program does; a pass sees
#: none of the caller's, so the defaults users get are what is measured.
SCRUBBED_PREFIX = "REPRO_"

#: A pass that has not finished by then is killed and the run fails.
PASS_TIMEOUT_S = 150


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` cuts them)
    and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _child_env(directory: Path, kind: str) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(SCRUBBED_PREFIX)
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    (directory / "tmp").mkdir()
    env["TMPDIR"] = str(directory / "tmp")
    env["REPRO_TRACE_CACHE"] = str(directory / "traces")
    if kind != "service_mix":
        # The service is given its store directory, as `repro serve
        # --store` does; with the variable unset its runs do not store twice.
        env["REPRO_RESULT_STORE"] = "off"
    return env


def run_pass(workload: str, params: dict, *, seed: int, trace: bool, out: Path,
             expected, record: bool) -> dict:
    """One pass in a fresh process; returns what it wrote."""
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        spec_path = directory / "spec.json"
        spec = {
            "workload": workload, "params": params, "seed": seed,
            "dir": str(directory), "expected": expected, "record": record,
            "trace": trace, "trace_out": str(out),
        }
        env = _child_env(directory, params["kind"])
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        # The pass's output goes to standard error (file descriptor 2):
        # standard output ends with this run's result line.
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "workloads.py"), "--spec", str(spec_path)],
            env=env, stdout=2, start_new_session=True,
        )
        try:
            code = child.wait(timeout=PASS_TIMEOUT_S)
        finally:
            # The pass stops what it starts; this catches a pass that
            # could not (killed, timed out) before its directory goes.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if code != 0:
            raise RuntimeError(f"{workload} pass exited with code {code}")
        return json.loads((directory / "result.json").read_text())
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_workload(workload: str, params: dict, *, seed: int, seconds: float,
                 trace: bool, out: Path, expected, record: bool = False) -> dict:
    """Passes until about ``seconds`` have gone by (at least one); the
    run's metrics are the medians of its passes."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, params, seed=seed, trace=trace, out=out,
                               expected=expected, record=record))
        elapsed = time.monotonic() - start
        # Stop unless another pass would end mostly within the budget.
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    if trace:
        metrics = {
            name: statistics.median(p["layers"][name] for p in passes)
            for name in passes[0]["layers"]
        }
    else:
        metrics = {
            name: statistics.median(p[name] for p in passes)
            for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "latency_p95_ms")
        }
        metrics["sim_ips"] = statistics.median(
            p["instructions"] / p["wall_s"] for p in passes
        )
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "passes": passes,
    }


def _recorded_digests(runs: list[dict]) -> dict:
    """The digests every pass agreed on, by workload; raises if two
    passes of one workload disagree."""
    digests: dict = {}
    for run in runs:
        for one in (p["digests"] for p in run["passes"]):
            if isinstance(one, dict):
                merged = digests.setdefault(run["workload"], {})
                for key, value in one.items():
                    if merged.setdefault(key, value) != value:
                        raise RuntimeError(f"{run['workload']}: {key} is not deterministic")
            elif digests.setdefault(run["workload"], one) != one:
                raise RuntimeError(f"{run['workload']}: results are not deterministic")
    return digests


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def summaries(runs: list[dict], units: dict[str, str]) -> dict:
    """Per workload and metric: median, quartiles and n over runs."""
    table: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return {
        workload: {
            name: {**summarize(values), "unit": units.get(name, "")}
            for name, values in metrics.items()
        }
        for workload, metrics in table.items()
    }


def _print_summary(table: dict) -> None:
    for workload, metrics in table.items():
        print(f"{workload}:")
        for name, s in metrics.items():
            print(f"  {name:28s} {s['median']:>14.6g} {s['unit']:8s}"
                  f" [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--reps", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="results, Chrome traces and scratch space")
    parser.add_argument("--record", action="store_true",
                        help="also run each workload traced, and rewrite "
                             "bench/baseline.json (and bench/expected.json "
                             "when it is missing)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else None
    if expected is None and not args.record:
        print(f"error: {EXPECTED} is missing; create it with --record", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    units = {
        **UNITS,
        **{m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]},
    }

    plan = [(bool(args.trace), args.reps)]
    if args.record and not args.trace:
        plan.append((True, 1))
    runs = []
    for trace, reps in plan:
        for rep in range(reps):
            for name in names:
                run = run_workload(
                    name, workloads.WORKLOADS[name], seed=args.seed + rep, seconds=args.seconds,
                    trace=trace, out=args.out, expected=expected, record=args.record,
                )
                run["rep"] = rep
                runs.append(run)
                shown = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                print(f"[{name} rep {rep} seed {run['seed']}{' traced' if trace else ''}] "
                      f"{len(run['passes'])} passes, {run['failed']}/{run['attempted']} "
                      f"failed: {shown}", flush=True)

    measured = [run for run in runs if run["trace"] == bool(args.trace)]
    table = summaries(measured, units)
    _print_summary(table)
    results = {
        "revision": _revision(), "nproc": os.cpu_count(), "seconds": args.seconds,
        "reps": args.reps, "trace": bool(args.trace), "runs": measured,
        "summary": table,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"results-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"results: {path}")

    if args.record:
        # With expected.json present every pass was checked against it.
        digests = _recorded_digests(runs)
        if expected is None:
            EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        baseline = {
            key: results[key] for key in ("revision", "nproc", "seconds", "reps")
        }
        baseline["end_to_end"] = summaries(
            [run for run in runs if not run["trace"]], units)
        baseline["per_layer"] = summaries([run for run in runs if run["trace"]], units)
        baseline["expected"] = digests
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")

    last = measured[-1]
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {
            m["name"]: {"value": last["metrics"][m["name"]], "unit": m["unit"]}
            for m in benchmark[section]
        },
    }))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
