"""Reproduction-report generator tests."""

import json
from pathlib import Path

import pytest

from repro.harness.report import Verdict, check_claims, render_report

_RESULTS = Path(__file__).resolve().parent.parent / "results" / "full_results.json"


def _synthetic_results(good_below_base=True):
    """A minimal, paper-shaped results dict."""
    configs = ["4/24", "8/48"]
    settings = ["D/R", "I/R", "D/O", "I/O"]
    figure3 = []
    for ci, config in enumerate(configs):
        for setting in settings:
            bonus = 0.05 * ci + (0.03 if "O" in setting else 0.0)
            figure3.append(
                {"config": config, "setting": setting, "model": "good",
                 "speedup": (0.99 if good_below_base and ci == 0 else 1.01)
                 + bonus}
            )
            figure3.append(
                {"config": config, "setting": setting, "model": "great",
                 "speedup": 1.05 + bonus}
            )
            figure3.append(
                {"config": config, "setting": setting, "model": "super",
                 "speedup": 1.08 + bonus}
            )
    return {
        "trace_limit": 1000,
        "table1": [
            {"benchmark": "compress", "predicted_pct": 71.0,
             "paper_predicted_pct": 70.5}
        ],
        "figure1": {
            "base": 5, "super/correct": 3, "great/correct": 3,
            "good/correct": 4, "super/incorrect": 5,
            "great/incorrect": 6, "good/incorrect": 7,
        },
        "figure3": figure3,
        "figure4": [
            {"config": "4/24", "timing": "D", "CH": 0.30, "CL": 0.20,
             "IH": 0.01, "IL": 0.49},
            {"config": "4/24", "timing": "I", "CH": 0.35, "CL": 0.25,
             "IH": 0.01, "IL": 0.39},
            {"config": "8/48", "timing": "D", "CH": 0.28, "CL": 0.18,
             "IH": 0.01, "IL": 0.53},
            {"config": "8/48", "timing": "I", "CH": 0.35, "CL": 0.25,
             "IH": 0.01, "IL": 0.39},
        ],
        "ABL-L latency sensitivity": {
            "Exec-Eq-Verification=0": 1.06, "Exec-Eq-Verification=2": 0.98,
            "Exec-Eq-Invalidation=0": 1.06, "Exec-Eq-Invalidation=2": 1.05,
            "Invalidation-Reissue=0": 1.06, "Invalidation-Reissue=2": 1.06,
        },
    }


def test_all_claims_pass_on_paper_shaped_data():
    verdicts = check_claims(_synthetic_results())
    assert len(verdicts) == 10
    assert all(v.reproduced for v in verdicts)


def test_deviation_detected():
    results = _synthetic_results()
    # break the Figure 1 misprediction ordering
    results["figure1"]["good/incorrect"] = 4
    verdicts = check_claims(results)
    broken = [v for v in verdicts if "misprediction ordering" in v.claim]
    assert broken and not broken[0].reproduced
    assert broken[0].tag == "DEVIATION"


def test_render_report_contains_tables():
    text = render_report(_synthetic_results())
    assert "# Reproduction report" in text
    assert "REPRODUCED" in text
    assert "| 4/24 | D/R |" in text


def test_render_report_header_names_the_worker_count():
    results = _synthetic_results()
    results.update(trace_limit=20000, wall_seconds=150.9)
    assert "wall time 150.9s." in render_report(results)
    results["jobs"] = 2
    assert "wall time 150.9s with `--jobs 2`." in render_report(results)


@pytest.mark.skipif(not _RESULTS.exists(), reason="no full-results run yet")
def test_actual_full_results_reproduce_all_claims():
    """The committed full-scale run must pass every shape check."""
    results = json.loads(_RESULTS.read_text())
    verdicts = check_claims(results)
    failures = [v for v in verdicts if not v.reproduced]
    assert not failures, [f"{v.claim}: {v.evidence}" for v in failures]


def test_verdict_tags():
    assert Verdict("x", True, "e").tag == "REPRODUCED"
    assert Verdict("x", False, "e").tag == "DEVIATION"
