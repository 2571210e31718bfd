"""scripts/perf_diff.py: graceful degradation on missing/old records."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_diff.py"


@pytest.fixture(scope="module")
def perf_diff():
    spec = importlib.util.spec_from_file_location("perf_diff", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_diff"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("perf_diff", None)


def _record(**overrides) -> dict:
    record = {
        "git_revision": "abc1234",
        "trace_limit": 1000,
        "reps_best_of": 3,
        "model_aggregate_ips": {"base": 100_000, "good": 80_000},
    }
    record.update(overrides)
    return record


def test_normal_diff_exits_zero(perf_diff, tmp_path, capsys):
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record()))
    old.write_text(json.dumps(_record(model_aggregate_ips={"base": 50_000})))
    assert perf_diff.main([str(new), "--baseline", str(old)]) == 0
    out = capsys.readouterr().out
    assert "2.000" in out  # 100k vs 50k


def test_missing_new_record_is_informational(perf_diff, tmp_path, capsys):
    assert perf_diff.main([str(tmp_path / "nope.json")]) == 0
    out = capsys.readouterr().out
    assert "cannot read" in out and "skipping" in out


def test_missing_baseline_is_informational(perf_diff, tmp_path, capsys):
    new = tmp_path / "new.json"
    new.write_text(json.dumps(_record()))
    assert perf_diff.main([str(new), "--baseline",
                           str(tmp_path / "absent.json")]) == 0
    out = capsys.readouterr().out
    assert "skipping" in out


def test_malformed_baseline_is_informational(perf_diff, tmp_path, capsys):
    new = tmp_path / "new.json"
    bad = tmp_path / "bad.json"
    new.write_text(json.dumps(_record()))
    bad.write_text("{not json")
    assert perf_diff.main([str(new), "--baseline", str(bad)]) == 0
    assert "not valid JSON" in capsys.readouterr().out


def test_non_object_baseline_is_informational(perf_diff, tmp_path, capsys):
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record()))
    old.write_text(json.dumps([1, 2, 3]))  # pre-dict schema
    assert perf_diff.main([str(new), "--baseline", str(old)]) == 0
    assert "unrecognised schema" in capsys.readouterr().out


def test_old_schema_without_aggregates_is_informational(perf_diff, tmp_path, capsys):
    """A baseline record with neither aggregates nor usable points
    degrades to a note, not a traceback."""
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record()))
    old.write_text(json.dumps({
        "git_revision": "old0000",
        "points": [{"benchmark": "compress", "seconds": 1.0}],  # old keys
    }))
    assert perf_diff.main([str(new), "--baseline", str(old)]) == 0
    assert "no usable per-model aggregates" in capsys.readouterr().out


def test_aggregates_recomputed_from_points(perf_diff):
    report = {
        "points": [
            {"model": "good", "instructions": 1000, "best_seconds": 0.5},
            {"model": "good", "instructions": 1000, "best_seconds": 0.5},
            {"benchmark": "stray-old-schema-point"},  # skipped, not fatal
        ]
    }
    assert perf_diff._model_aggregates(report) == {"good": 2000}


def test_fail_below_still_gates(perf_diff, tmp_path, capsys):
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record(model_aggregate_ips={"base": 50_000})))
    old.write_text(json.dumps(_record(model_aggregate_ips={"base": 100_000})))
    assert perf_diff.main([str(new), "--baseline", str(old),
                           "--fail-below", "0.9"]) == 1


def test_old_record_with_batched_block_still_diffs(perf_diff, tmp_path, capsys):
    """Records written while the batched engine existed carry a
    ``batched`` block; they diff like any other record and the block is
    ignored in both renderings."""
    batched = {
        "grid_lanes": 78, "grid_speedup": 1.08,
        "itiming_lanes": 26, "itiming_speedup": 1.18,
    }
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record(batched=batched)))
    old.write_text(json.dumps(_record(
        model_aggregate_ips={"base": 50_000}, batched=batched,
    )))
    for extra in ([], ["--markdown"]):
        assert perf_diff.main([str(new), "--baseline", str(old)] + extra) == 0
        out = capsys.readouterr().out
        assert "2.000" in out
        assert "batched" not in out.lower()


def test_old_record_with_sampled_block_still_diffs(perf_diff, tmp_path, capsys):
    """Records written while phase sampling existed carry a ``sampled``
    block; they diff like any other record and the block is ignored in
    both renderings."""
    sampled = {
        "chunk_records": 16_000,
        "phases": 3,
        "workloads": {"phased_alu": {"cpi_error": 0.0009, "speedup": 13.0}},
    }
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record()))
    old.write_text(json.dumps(_record(
        model_aggregate_ips={"base": 50_000}, sampled=sampled,
    )))
    for extra in ([], ["--markdown"]):
        assert perf_diff.main([str(new), "--baseline", str(old)] + extra) == 0
        out = capsys.readouterr().out
        assert "2.000" in out
        assert "sampled" not in out.lower()


def test_service_block_rendered_and_old_schema_tolerated(
    perf_diff, tmp_path, capsys
):
    """A fresh record carrying the service SLO block renders it even
    when the committed baseline predates the simulation service."""
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record(
        service={
            "p50_ms": 2.5, "p95_ms": 4.75, "p99_ms": 6.0,
            "throughput_rps": 950.0, "warm_hit_ratio": 1.0,
            "saturation_clients": 4,
        },
    )))
    old.write_text(json.dumps(_record()))  # no service block
    assert perf_diff.main([str(new), "--baseline", str(old)]) == 0
    out = capsys.readouterr().out
    assert "service SLO" in out
    assert "latency p95 (ms)" in out and "4.750" in out
    assert "saturation point (clients)" in out
    assert perf_diff.main([str(new), "--baseline", str(old),
                           "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "**Simulation service SLO**" in out and "950.000" in out


def test_service_rows_absent_malformed_and_paired(perf_diff):
    assert perf_diff.service_rows(_record(), _record()) == []
    # malformed blocks (wrong type, non-numeric p50) degrade to no rows
    assert perf_diff.service_rows(
        _record(service="fast"), _record()
    ) == []
    assert perf_diff.service_rows(
        _record(service={"p50_ms": "quick"}), _record()
    ) == []
    rows = perf_diff.service_rows(
        _record(service={"p50_ms": 2.0, "p95_ms": 4.0,
                         "warm_hit_ratio": 1.0}),
        _record(service={"p50_ms": 3.0}),
    )
    assert ("latency p50 (ms)", 2.0, 3.0) in rows
    assert ("latency p95 (ms)", 4.0, None) in rows
    # fields missing from the fresh block are skipped, not rendered
    assert all(label != "latency p99 (ms)" for label, *_ in rows)


def _ablation_block(**overrides) -> dict:
    block = {
        "fingerprint": "f" * 24,
        "baseline_speedup": 1.21,
        "importance": {
            "confidence-gating": 0.18,
            "verification-network": 0.05,
            "delayed-update": -0.01,
        },
        "harmful": ["delayed-update"],
    }
    block.update(overrides)
    return block


def test_ablation_block_rendered_and_old_schema_tolerated(
    perf_diff, tmp_path, capsys
):
    new = tmp_path / "new.json"
    old = tmp_path / "old.json"
    new.write_text(json.dumps(_record(ablation=_ablation_block())))
    old.write_text(json.dumps(_record()))  # no ablation block
    assert perf_diff.main([str(new), "--baseline", str(old)]) == 0
    out = capsys.readouterr().out
    assert "ablation importance" in out
    assert "confidence-gating" in out and "+0.1800" in out
    assert "delayed-update [HARMFUL]" in out and "-0.0100" in out
    assert "baseline speedup" in out and "1.2100" in out
    assert perf_diff.main([str(new), "--baseline", str(old),
                           "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "**Ablation importance**" in out
    # Ranked by fresh importance, committed cells degrade to "-".
    lines = [l for l in out.splitlines() if l.startswith("| confidence")]
    assert lines and lines[0].endswith("| - |")


def test_ablation_rows_ranked_and_paired(perf_diff):
    rows = perf_diff.ablation_rows(
        _record(ablation=_ablation_block()),
        _record(ablation=_ablation_block(
            importance={"confidence-gating": 0.20}, harmful=[],
            baseline_speedup=1.19,
        )),
    )
    labels = [label for label, *_ in rows]
    assert labels == [
        "baseline speedup",
        "confidence-gating",
        "verification-network",
        "delayed-update [HARMFUL]",
    ]
    assert ("confidence-gating", "+0.1800", "+0.2000") in rows
    assert ("verification-network", "+0.0500", "-") in rows
    assert ("baseline speedup", "1.2100", "1.1900") in rows


def test_ablation_rows_absent_or_malformed(perf_diff):
    assert perf_diff.ablation_rows(_record(), _record()) == []
    assert perf_diff.ablation_rows(
        _record(ablation="broken"), _record()
    ) == []
    assert perf_diff.ablation_rows(
        _record(ablation={"importance": "not-a-dict"}), _record()
    ) == []
    # Non-numeric importances are dropped; all-dropped means no block.
    assert perf_diff.ablation_rows(
        _record(ablation={"importance": {"x": "fast"}}), _record()
    ) == []


def test_ablation_rows_accept_standalone_report(perf_diff):
    report = {
        "v": 1,
        "kind": "ablation",
        "baseline": {"speedup": 1.1},
        "components": [
            {"components": ["a"], "importance": 0.2, "harmful": False},
            {"components": ["b", "c"], "importance": -0.1, "harmful": True},
            "not-a-dict",
        ],
    }
    rows = perf_diff.ablation_rows(report, {})
    assert ("baseline speedup", "1.1000", "-") in rows
    assert ("a", "+0.2000", "-") in rows
    assert ("b+c [HARMFUL]", "-0.1000", "-") in rows
