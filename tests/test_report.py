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
             "paper_predicted_pct": 70.5},
            {"benchmark": "ijpeg", "predicted_pct": 83.0,
             "paper_predicted_pct": 82.0},
            {"benchmark": "xlisp", "predicted_pct": 72.5,
             "paper_predicted_pct": 70.0},
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
            "Verification-Branch=0": 1.06, "Verification-Branch=2": 1.05,
            "Verification-FreeRes=0": 1.06, "Verification-FreeRes=2": 1.06,
        },
        "ABL-V verification schemes": {
            "parallel-network": 1.05, "hierarchical": 1.03,
            "retirement-based": 0.70, "hybrid": 0.97,
        },
        "ABL-I invalidation schemes": {
            "selective-parallel": 1.05, "selective-hierarchical": 1.05,
            "complete": 0.95,
        },
        "ABL-R resolution policies": {
            "valid-only (paper)": 1.05, "speculative-branches": 1.07,
            "speculative-memory": 1.07, "speculative-both": 1.09,
        },
        "ABL-W width scaling": {
            "2/12": 1.01, "4/24": 1.02, "8/48": 1.05, "16/96": 1.08,
            "32/192": 1.09,
        },
        "ABL-P predictors": {
            "context": 1.05, "last-value": 1.00, "stride": 1.01,
            "hybrid": 1.05, "tagged-context": 1.05,
        },
    }


def test_all_claims_pass_on_paper_shaped_data():
    verdicts = check_claims(_synthetic_results())
    assert len(verdicts) == 18
    assert all(v.reproduced for v in verdicts)


def _row(results, section, **match):
    return next(
        row for row in results[section]
        if all(row[k] == v for k, v in match.items())
    )


#: One value flipped per ported claim family, and the one claim it breaks.
_FLIPS = [
    ("Table 1: ijpeg is the most predictable", lambda r: _row(
        r, "table1", benchmark="xlisp").update(predicted_pct=73.5)),
    ("Figure 3: good is significantly worse", lambda r: _row(
        r, "figure3", config="8/48", setting="D/R", model="good",
    ).update(speedup=1.12)),
    ("Figure 3: confidence moves performance", lambda r: _row(
        r, "figure3", config="4/24", setting="I/R", model="super",
    ).update(speedup=1.11)),
    ("Figure 4: immediate update", lambda r: _row(
        r, "figure4", config="4/24", timing="I").update(CH=0.20)),
    ("Conclusion: fast verification essential", lambda r: r[
        "ABL-L latency sensitivity"].update({"Exec-Eq-Invalidation=2": 0.98})),
    ("ABL-L: more verification latency never helps", lambda r: r[
        "ABL-L latency sensitivity"].update({"Verification-Branch=2": 1.08})),
    ("ABL-V:", lambda r: r["ABL-V verification schemes"].update(
        {"retirement-based": 1.04})),
    ("ABL-I:", lambda r: r["ABL-I invalidation schemes"].update(complete=1.06)),
    ("ABL-R:", lambda r: r["ABL-R resolution policies"].update(
        {"speculative-both": 1.02})),
    ("ABL-W:", lambda r: r["ABL-W width scaling"].update({"4/24": 1.10})),
    ("ABL-P:", lambda r: r["ABL-P predictors"].update({"last-value": 0.92})),
]


@pytest.mark.parametrize(
    "claim, flip", _FLIPS, ids=[claim.rstrip(":") for claim, _ in _FLIPS]
)
def test_one_flipped_value_breaks_only_its_claim(claim, flip):
    results = _synthetic_results()
    flip(results)
    broken = [v for v in check_claims(results) if not v.reproduced]
    assert len(broken) == 1 and broken[0].claim.startswith(claim)
    assert broken[0].margin < 0


def test_absent_sweep_sections_skip_their_claims():
    results = _synthetic_results()
    for section in [k for k in results if k.startswith("ABL-")]:
        del results[section]
    assert len(check_claims(results)) == 11


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
    assert "| REPRODUCED | +0.0000 | Figure 1: base processor" in text


def test_render_report_header_names_the_worker_count():
    results = _synthetic_results()
    results.update(trace_limit=20000, wall_seconds=150.9)
    assert "wall time 150.9s." in render_report(results)
    results["jobs"] = 2
    assert "wall time 150.9s with `--jobs 2`." in render_report(results)


def test_render_report_header_names_both_budgets():
    results = _synthetic_results()
    results.update(trace_limit=20000, sweep_limit=6000)
    header = render_report(results).splitlines()[2]
    assert header.startswith(
        "Trace limit: 20000 instructions/kernel, sweep limit 6000;"
    )


@pytest.mark.skipif(not _RESULTS.exists(), reason="no full-results run yet")
def test_actual_full_results_reproduce_all_claims():
    """The committed full-scale run must pass every shape check."""
    results = json.loads(_RESULTS.read_text())
    verdicts = check_claims(results)
    failures = [v for v in verdicts if not v.reproduced]
    assert not failures, [f"{v.claim}: {v.evidence}" for v in failures]


@pytest.mark.skipif(not _RESULTS.exists(), reason="no full-results run yet")
def test_actual_full_results_have_nonnegative_margins():
    results = json.loads(_RESULTS.read_text())
    margins = {v.claim: v.margin for v in check_claims(results)}
    assert all(m >= 0 for m in margins.values()), margins


def test_verdict_tags():
    assert Verdict("x", True, "e").tag == "REPRODUCED"
    assert Verdict("x", False, "e").tag == "DEVIATION"
