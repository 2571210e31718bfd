#!/usr/bin/env python3
"""Diff a fresh BENCH_engine_perf.json against the committed record.

CI regenerates the throughput record on every run, but absolute ips
numbers are host-dependent; this script turns the two records into
per-model ratios so a human can spot a real regression at a glance.  It
is deliberately **non-blocking**: it always exits 0 unless asked to
gate via ``--fail-below`` (cross-host ratios are too noisy for a hard
CI gate — see docs/PERFORMANCE.md, "Methodology").

Usage::

    python scripts/perf_diff.py BENCH_engine_perf.json            # text
    python scripts/perf_diff.py BENCH_engine_perf.json --markdown # CI summary
    python scripts/perf_diff.py new.json --baseline old.json

With no ``--baseline`` the committed record is read from ``git show
HEAD:BENCH_engine_perf.json`` (the file in the worktree has just been
overwritten by the benchmark run).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_RECORD = "BENCH_engine_perf.json"


def _committed_record() -> dict | None:
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:{_RECORD}"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if shown.returncode != 0:
        return None
    try:
        return json.loads(shown.stdout)
    except json.JSONDecodeError:
        return None


def _load_record(path: str) -> dict | None:
    """Read a record file, degrading to ``None`` (with a note) on
    missing/unreadable/malformed input instead of crashing."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"cannot read {path}: {exc.strerror or exc}")
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"{path} is not valid JSON ({exc}); skipping")
        return None
    if not isinstance(record, dict):
        print(f"{path} has an unrecognised schema (expected an object); skipping")
        return None
    return record


def _model_aggregates(report: dict) -> dict[str, int]:
    """Per-model aggregate ips, recomputed from points when the record
    predates the ``model_aggregate_ips`` field.

    Tolerates older point schemas: entries missing the expected keys are
    skipped rather than crashing, so a stale committed record degrades
    to an empty (or partial) column instead of a traceback.
    """
    aggregates = report.get("model_aggregate_ips")
    if isinstance(aggregates, dict) and aggregates:
        return dict(aggregates)
    instructions: dict[str, int] = {}
    seconds: dict[str, float] = {}
    points = report.get("points")
    for point in points if isinstance(points, list) else []:
        if not isinstance(point, dict):
            continue
        model = point.get("model")
        count = point.get("instructions")
        best = point.get("best_seconds")
        if model is None or count is None or best is None:
            continue
        instructions[model] = instructions.get(model, 0) + count
        seconds[model] = seconds.get(model, 0.0) + best
    return {
        model: round(instructions[model] / seconds[model])
        for model in instructions
        if seconds.get(model)
    }


def _service_block(report: dict) -> dict | None:
    """The record's ``service`` block (SLO summary written by
    ``scripts/service_load.py``), or ``None`` for records that predate
    the simulation service or carry a malformed block — old-schema
    records must keep diffing cleanly."""
    block = report.get("service")
    if not isinstance(block, dict):
        return None
    if not isinstance(block.get("p50_ms"), (int, float)):
        return None
    return block


def service_rows(new: dict, baseline: dict) -> list[tuple[str, object, object]]:
    """Rows of (metric label, fresh value, committed value) for the
    service SLO block.  Empty when the fresh record has no service
    block; a committed record without one renders "-" cells.
    """
    fresh = _service_block(new)
    if fresh is None:
        return []
    committed = _service_block(baseline) or {}
    rows: list[tuple[str, object, object]] = []
    for field, label in (
        ("p50_ms", "latency p50 (ms)"),
        ("p95_ms", "latency p95 (ms)"),
        ("p99_ms", "latency p99 (ms)"),
        ("throughput_rps", "throughput (req/s)"),
        ("warm_hit_ratio", "warm-hit ratio"),
        ("saturation_clients", "saturation point (clients)"),
    ):
        value = fresh.get(field)
        if not isinstance(value, (int, float)):
            continue
        rows.append((label, value, committed.get(field)))
    return rows


def _ablation_block(report: dict) -> dict | None:
    """The record's ablation importance block, or ``None`` for records
    that predate the ablation framework or carry a malformed block —
    old-schema records must keep diffing cleanly.

    Two shapes are accepted: a throughput record embedding the compact
    block under ``"ablation"`` (``repro.ablation.report.report_record``),
    and a standalone ablation report (``kind == "ablation"``) whose
    ranked ``components`` list is reduced to the same compact shape.
    """
    block = report.get("ablation")
    if isinstance(block, dict) and isinstance(block.get("importance"), dict):
        importance = {
            name: value
            for name, value in block["importance"].items()
            if isinstance(value, (int, float))
        }
        if importance:
            return {
                "importance": importance,
                "baseline_speedup": block.get("baseline_speedup"),
                "harmful": [
                    str(name)
                    for name in block.get("harmful", [])
                    if isinstance(name, str)
                ]
                if isinstance(block.get("harmful"), list)
                else [],
            }
        return None
    if report.get("kind") != "ablation":
        return None
    components = report.get("components")
    if not isinstance(components, list):
        return None
    importance = {}
    harmful = []
    for entry in components:
        if not isinstance(entry, dict):
            continue
        names = entry.get("components")
        value = entry.get("importance")
        if not isinstance(names, list) or not isinstance(value, (int, float)):
            continue
        label = "+".join(str(name) for name in names)
        importance[label] = value
        if entry.get("harmful"):
            harmful.append(label)
    if not importance:
        return None
    baseline = report.get("baseline")
    baseline_speedup = (
        baseline.get("speedup") if isinstance(baseline, dict) else None
    )
    return {
        "importance": importance,
        "baseline_speedup": baseline_speedup,
        "harmful": harmful,
    }


def ablation_rows(new: dict, baseline: dict) -> list[tuple[str, str, str]]:
    """Rows of (component, fresh cell, committed cell) for the ablation
    importance block, ranked by fresh importance.  Importance deltas are
    host-independent (they are ratios of deterministic cycle counts), so
    fresh-vs-committed drift here means the *model* changed, not the
    machine.  Empty when the fresh record has no ablation block; a
    committed record without one renders "-" cells.
    """
    fresh = _ablation_block(new)
    if fresh is None:
        return []
    committed = _ablation_block(baseline) or {"importance": {}, "harmful": []}
    rows: list[tuple[str, str, str]] = []
    speedup = fresh.get("baseline_speedup")
    if isinstance(speedup, (int, float)):
        old_speedup = committed.get("baseline_speedup")
        rows.append(
            (
                "baseline speedup",
                f"{speedup:.4f}",
                f"{old_speedup:.4f}"
                if isinstance(old_speedup, (int, float))
                else "-",
            )
        )
    ranked = sorted(
        fresh["importance"].items(), key=lambda item: item[1], reverse=True
    )
    for name, value in ranked:
        flag = " [HARMFUL]" if name in fresh["harmful"] else ""
        old_value = committed["importance"].get(name)
        rows.append(
            (
                f"{name}{flag}",
                f"{value:+.4f}",
                f"{old_value:+.4f}"
                if isinstance(old_value, (int, float))
                else "-",
            )
        )
    return rows


def _service_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, int):
        return str(value)
    return "-"


def dirty_warnings(new: dict, baseline: dict) -> list[str]:
    """Warnings for records whose revision does not identify the code.

    A ``-dirty`` suffix means the benchmark ran on a tree with
    uncommitted changes, so the recorded numbers cannot be attributed to
    the named commit; an ``unknown`` revision means git was unavailable.
    Either way the record is still diffable — the warning asks for a
    regeneration, it does not block.
    """
    warnings = []
    for label, record in (("fresh", new), ("committed baseline", baseline)):
        revision = str(record.get("git_revision", ""))
        if revision.endswith("-dirty"):
            warnings.append(
                f"warning: the {label} record was generated from a dirty "
                f"tree ({revision}); regenerate it from a clean checkout "
                "so its revision identifies the measured code"
            )
        elif revision in ("", "unknown"):
            warnings.append(
                f"warning: the {label} record has no git revision; "
                "regenerate it inside the repository so the measurement "
                "is attributable"
            )
    return warnings


def diff(new: dict, baseline: dict) -> list[tuple[str, int | None, int, float | None]]:
    """Rows of (model, baseline ips, new ips, ratio)."""
    new_aggregates = _model_aggregates(new)
    base_aggregates = _model_aggregates(baseline)
    rows = []
    for model, new_ips in new_aggregates.items():
        old_ips = base_aggregates.get(model)
        ratio = new_ips / old_ips if old_ips else None
        rows.append((model, old_ips, new_ips, ratio))
    return rows


def render_text(rows, new: dict, baseline: dict) -> str:
    lines = [
        f"engine throughput: {new.get('git_revision', '?')} vs "
        f"committed {baseline.get('git_revision', '?')}",
        f"{'model':8s} {'committed':>12s} {'new':>12s} {'ratio':>8s}",
    ]
    for model, old_ips, new_ips, ratio in rows:
        old_text = f"{old_ips:,}" if old_ips else "-"
        ratio_text = f"{ratio:.3f}" if ratio else "-"
        lines.append(f"{model:8s} {old_text:>12s} {new_ips:>12,} {ratio_text:>8s}")
    slo = service_rows(new, baseline)
    if slo:
        lines.append("service SLO (scripts/service_load.py, same host):")
        for label, fresh, committed in slo:
            lines.append(
                f"  {label:28s} {_service_cell(fresh):>10s}  "
                f"(committed: {_service_cell(committed)})"
            )
    ablation = ablation_rows(new, baseline)
    if ablation:
        lines.append(
            "ablation importance (speedup lost when the component is "
            "lesioned; host-independent):"
        )
        for label, fresh, committed in ablation:
            lines.append(
                f"  {label:36s} {fresh:>10s}  (committed: {committed})"
            )
    lines.append(
        "(ips are host-dependent; ratios across different machines are "
        "indicative only)"
    )
    return "\n".join(lines)


def render_markdown(rows, new: dict, baseline: dict) -> str:
    lines = [
        "### Engine throughput vs committed record",
        "",
        f"`{new.get('git_revision', '?')}` vs committed "
        f"`{baseline.get('git_revision', '?')}` "
        f"(trace limit {new.get('trace_limit', '?')}, "
        f"best-of-{new.get('reps_best_of', '?')} process time)",
        "",
        "| model | committed ips | new ips | ratio |",
        "|---|---:|---:|---:|",
    ]
    for model, old_ips, new_ips, ratio in rows:
        old_text = f"{old_ips:,}" if old_ips else "–"
        ratio_text = f"{ratio:.3f}" if ratio else "–"
        lines.append(f"| {model} | {old_text} | {new_ips:,} | {ratio_text} |")
    slo = service_rows(new, baseline)
    if slo:
        lines += [
            "",
            "**Simulation service SLO** (scripts/service_load.py on the "
            "runner — absolute numbers are host-dependent):",
            "",
            "| metric | fresh | committed |",
            "|---|---:|---:|",
        ]
        for label, fresh, committed in slo:
            lines.append(
                f"| {label} | {_service_cell(fresh)} | "
                f"{_service_cell(committed)} |"
            )
    ablation = ablation_rows(new, baseline)
    if ablation:
        lines += [
            "",
            "**Ablation importance** (harmonic-mean speedup lost when "
            "the component is lesioned — deterministic cycle ratios, "
            "host-independent):",
            "",
            "| component | fresh | committed |",
            "|---|---:|---:|",
        ]
        for label, fresh, committed in ablation:
            lines.append(f"| {label} | {fresh} | {committed} |")
    lines += [
        "",
        "_ips are host-dependent; this check is informational, not a gate._",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="freshly generated BENCH_engine_perf.json")
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline record (default: `git show HEAD:{_RECORD}`)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit a GitHub step summary"
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 when any per-model ratio drops below RATIO",
    )
    args = parser.parse_args(argv)

    new = _load_record(args.new)
    if new is None:
        print("no fresh record to diff; skipping")
        return 0
    if args.baseline is not None:
        baseline = _load_record(args.baseline)
    else:
        baseline = _committed_record()
    if baseline is None:
        print(f"no committed {_RECORD} to diff against; skipping")
        return 0
    if not _model_aggregates(baseline):
        print(
            f"committed {_RECORD} has no usable per-model aggregates "
            "(older schema?); skipping"
        )
        return 0

    rows = diff(new, baseline)
    warnings = dirty_warnings(new, baseline)
    if args.markdown:
        body = render_markdown(rows, new, baseline)
        if warnings:
            body += "\n\n" + "\n".join(f"> ⚠️ {w}" for w in warnings)
        print(body)
    else:
        print(render_text(rows, new, baseline))
        for warning in warnings:
            print(warning, file=sys.stderr)

    if args.fail_below is not None:
        failing = [r for r in rows if r[3] is not None and r[3] < args.fail_below]
        if failing:
            print(
                f"ratio below {args.fail_below} for: "
                + ", ".join(model for model, *_ in failing),
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
