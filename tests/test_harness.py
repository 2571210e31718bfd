"""Harness tests: every experiment runs and has the paper's shape."""

from pathlib import Path

import pytest

from repro.engine.config import ProcessorConfig
from repro.harness.figure1 import render_figure1, run_figure1
from repro.harness.figure3 import figure3_table, render_figure3, run_figure3
from repro.harness.figure4 import render_figure4, run_figure4
from repro.harness.render import render_bar, render_table
from repro.harness.sweeps import (
    invalidation_scheme_sweep,
    latency_sensitivity_sweep,
    predictor_sweep,
    verification_scheme_sweep,
)
from repro.harness.table1 import render_table1, run_table1

_SMALL = dict(max_instructions=1500, benchmarks=["compress", "perl"])
_TINY_CONFIGS = (
    ProcessorConfig(issue_width=4, window_size=24),
)
_RESULTS_TXT = (
    Path(__file__).resolve().parent.parent / "results" / "full_results.txt"
)


class TestRender:
    def test_table_alignment(self):
        text = render_table(("A", "Bee"), [("x", 1.5), ("longer", 2)], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text
        assert "longer" in text

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(("A",), [("x", "y")])

    def test_bar(self):
        assert render_bar(0.0, width=10) == ".........."
        assert render_bar(1.0, width=10) == "##########"
        assert render_bar(1.2, width=10).endswith("+")
        assert len(render_bar(0.5, width=10)) == 10


class TestTable1:
    def test_rows_and_render(self):
        rows = run_table1(max_instructions=2000)
        assert len(rows) == 8
        by_name = {r.benchmark: r for r in rows}
        assert by_name["ijpeg"].paper_predicted_pct == 82.0
        text = render_table1(rows)
        assert "compress" in text and "Paper Predicted %" in text


class TestFigure1:
    def test_seven_scenarios(self):
        scenarios = run_figure1()
        assert len(scenarios) == 7
        labels = [s.label for s in scenarios]
        assert labels[0] == "base"
        assert "good/incorrect" in labels
        text = render_figure1(scenarios)
        assert "retires all 3" in text

    def test_render_matches_committed_results(self):
        """Every stage cell of the committed Figure 1, not only the cycle
        counts, is reproduced byte for byte."""
        head = "### Figure 1\n\n```\n"
        committed = _RESULTS_TXT.read_text()
        start = committed.index(head) + len(head)
        block = committed[start : committed.index("\n```\n", start)]
        assert render_figure1(run_figure1()) == block


class TestFigure3:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_figure3(configs=_TINY_CONFIGS, **_SMALL)

    def test_cell_grid_complete(self, cells):
        assert len(cells) == 1 * 4 * 3  # configs x settings x models
        settings = {c.setting for c in cells}
        assert settings == {"D/R", "I/R", "D/O", "I/O"}

    def test_models_ordered_good_worst(self, cells):
        for setting in ("D/R", "I/R", "D/O", "I/O"):
            group = {c.model_name: c.speedup for c in cells if c.setting == setting}
            assert group["good"] <= group["super"] + 0.02

    def test_render(self, cells):
        assert "Figure 3" in render_figure3(cells)
        assert "HM Speedup" in figure3_table(cells)

    def test_per_benchmark_render(self, cells):
        from repro.harness.figure3 import render_figure3_per_benchmark

        text = render_figure3_per_benchmark(cells, setting="I/R")
        assert "per-benchmark" in text
        assert "compress" in text and "perl" in text
        with pytest.raises(ValueError):
            render_figure3_per_benchmark(cells, setting="Z/Z")

    def test_empty_benchmark_selection_rejected(self):
        with pytest.raises(ValueError):
            run_figure3(benchmarks=["nonexistent"], configs=_TINY_CONFIGS)


class TestFigure4:
    def test_breakdown_shape(self):
        cells = run_figure4(
            max_instructions=2000,
            benchmarks=["compress", "m88ksim"],
            configs=_TINY_CONFIGS,
        )
        assert len(cells) == 2  # one config x {D, I}
        for cell in cells:
            total = (
                cell.breakdown.ch
                + cell.breakdown.cl
                + cell.breakdown.ih
                + cell.breakdown.il
            )
            assert abs(total - 1.0) < 1e-9
        text = render_figure4(cells)
        assert "CH %" in text


class TestSweeps:
    def test_latency_sensitivity(self):
        points = latency_sensitivity_sweep(
            max_instructions=1200, benchmarks=["perl"], values=(0, 1)
        )
        assert len(points) == 12  # 6 fields x 2 values
        labels = {p.label for p in points}
        assert "Verification-Branch=0" in labels

    def test_verification_schemes(self):
        points = verification_scheme_sweep(
            max_instructions=1200, benchmarks=["perl"]
        )
        by_label = {p.label: p.speedup for p in points}
        assert set(by_label) == {
            "parallel-network", "hierarchical", "retirement-based", "hybrid",
        }
        # the paper's taxonomy: the flattened network has the highest
        # performance potential
        assert by_label["parallel-network"] >= max(
            v for k, v in by_label.items() if k != "parallel-network"
        ) - 1e-9

    def test_invalidation_schemes(self):
        points = invalidation_scheme_sweep(
            max_instructions=1200, benchmarks=["perl"]
        )
        assert {p.label for p in points} == {
            "selective-parallel", "selective-hierarchical", "complete",
        }

    def test_predictor_sweep(self):
        points = predictor_sweep(max_instructions=1200, benchmarks=["perl"])
        assert {p.label for p in points} == {
            "context", "last-value", "stride", "hybrid", "tagged-context",
        }
