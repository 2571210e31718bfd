"""The ablation framework: registry, planner, executor, reporter.

The tentpole invariants: run IDs are stable content hashes (same spec →
same IDs across processes and registry orderings), inapplicable lesions
become skipped-with-reason entries rather than crashes, and the report
document validates, ranks, and renders in all three shapes.
"""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ablation import (
    AblationPlan,
    AblationPoint,
    AblationSpec,
    Component,
    ComponentRegistry,
    NotApplicable,
    build_report,
    default_registry,
    execute_plan,
    plan_ablation,
    render_csv,
    render_text,
    validate_report,
    write_report,
)
from repro.core.model import GREAT_MODEL, SpeculativeExecutionModel
from repro.core.variables import (
    InvalidationScheme,
    ModelVariables,
    VerificationScheme,
    WakeupPolicy,
)
from repro.engine.config import ProcessorConfig, paper_config
from repro.vp.confidence import AlwaysConfidentEstimator

_CONFIG = ProcessorConfig(issue_width=4, window_size=24)
_LIMIT = 600


def _point(**overrides) -> AblationPoint:
    defaults = dict(config=_CONFIG, model=GREAT_MODEL)
    defaults.update(overrides)
    return AblationPoint(**defaults)


def _spec(**overrides) -> AblationSpec:
    defaults = dict(
        benchmarks=("micro:fib",), point=_point(), max_instructions=_LIMIT
    )
    defaults.update(overrides)
    return AblationSpec(**defaults)


class TestRegistry:
    def test_default_registry_has_the_advertised_components(self):
        registry = default_registry()
        assert len(registry) >= 6
        names = registry.names()
        for expected in (
            "verification-network",
            "selective-invalidation",
            "confidence-gating",
            "delayed-update",
            "predictor-depth",
            "selection-priority",
        ):
            assert expected in names

    def test_iteration_is_sorted_regardless_of_registration_order(self):
        components = default_registry().components()
        reordered = ComponentRegistry(list(reversed(components)))
        assert [c.name for c in reordered] == [
            c.name for c in default_registry()
        ]

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register(registry.components()[0])

    def test_unknown_component_lookup(self):
        with pytest.raises(KeyError, match="unknown component"):
            default_registry().get("flux-capacitor")

    def test_model_component_requires_lesion(self):
        with pytest.raises(ValueError, match="needs a lesion"):
            Component(name="x", title="x", description="x", lesion_label="x")

    def test_every_model_lesion_changes_the_job_fingerprint(self):
        from repro.cluster.serial import job_key

        point = _point()
        baseline_key = job_key(point.job("micro:fib", _LIMIT))
        for component in default_registry():
            lesioned = component.apply(point)
            assert (
                job_key(lesioned.job("micro:fib", _LIMIT)) != baseline_key
            ), component.name

    def test_lesions_not_applicable_report_a_reason(self):
        already_complete = _point().with_variables(
            invalidation=InvalidationScheme.COMPLETE
        )
        with pytest.raises(NotApplicable, match="already squashes completely"):
            default_registry().get("selective-invalidation").apply(
                already_complete
            )
        with pytest.raises(NotApplicable, match="immediately"):
            default_registry().get("delayed-update").apply(
                _point(update_timing="I")
            )
        with pytest.raises(NotApplicable, match="unconditionally"):
            default_registry().get("confidence-gating").apply(
                _point(confidence=AlwaysConfidentEstimator)
            )


class TestPlanner:
    def test_baseline_first_then_sorted_leave_one_out(self):
        plan = plan_ablation(_spec())
        assert plan.runs[0].is_baseline
        assert plan.runs[0].label == "baseline"
        lesioned = [run.components for run in plan.lesioned]
        assert lesioned == sorted(lesioned)
        assert all(len(components) == 1 for components in lesioned)

    def test_pairs_appends_two_component_runs(self):
        single = plan_ablation(_spec())
        paired = plan_ablation(_spec(), pairs=True)
        assert len(paired.runs) > len(single.runs)
        assert any(len(run.components) == 2 for run in paired.lesioned)
        # Single-lesion runs keep their IDs when pairs are added.
        singles = {run.components: run.run_id for run in single.lesioned}
        for run in paired.lesioned:
            if len(run.components) == 1:
                assert singles[run.components] == run.run_id

    def test_limit_counts_dropped_runs_instead_of_silently_truncating(self):
        plan = plan_ablation(_spec(), limit=2)
        assert len(plan.lesioned) == 2
        full = plan_ablation(_spec())
        assert plan.runs_dropped == len(full.lesioned) - 2

    def test_inapplicable_component_yields_skipped_with_reason(self):
        # A baseline already running complete invalidation cannot have
        # its selective invalidation removed: the planner must record
        # why, not crash, and must not emit a run for it.
        point = _point().with_variables(
            invalidation=InvalidationScheme.COMPLETE
        )
        plan = plan_ablation(_spec(point=point))
        skipped = {entry.components: entry.reason for entry in plan.skipped}
        assert ("selective-invalidation",) in skipped
        assert "already squashes completely" in skipped[
            ("selective-invalidation",)
        ]
        assert all(
            "selective-invalidation" not in run.components
            for run in plan.runs
        )

    def test_skipped_reasons_propagate_through_pairs(self):
        point = _point(update_timing="I")
        plan = plan_ablation(_spec(point=point), pairs=True)
        assert any(
            "delayed-update" in entry.components and len(entry.components) == 2
            for entry in plan.skipped
        )

    def test_run_ids_insensitive_to_registry_order(self):
        components = default_registry().components()
        forward = plan_ablation(_spec(), ComponentRegistry(components))
        backward = plan_ablation(
            _spec(), ComponentRegistry(list(reversed(components)))
        )
        assert [run.run_id for run in forward.runs] == [
            run.run_id for run in backward.runs
        ]
        assert forward.fingerprint == backward.fingerprint

    @settings(max_examples=10, deadline=None)
    @given(st.permutations(default_registry().names()))
    def test_run_ids_insensitive_to_any_registry_permutation(self, order):
        source = {c.name: c for c in default_registry()}
        plan = plan_ablation(
            _spec(), ComponentRegistry([source[name] for name in order])
        )
        reference = plan_ablation(_spec())
        assert [run.run_id for run in plan.runs] == [
            run.run_id for run in reference.runs
        ]

    def test_run_ids_stable_across_processes(self):
        # The whole point of content-hash IDs: a fresh interpreter
        # planning the same spec emits byte-identical IDs.
        plan = plan_ablation(_spec())
        script = (
            "from repro.ablation import *\n"
            "from repro.core.model import GREAT_MODEL\n"
            "from repro.engine.config import ProcessorConfig\n"
            "spec = AblationSpec(benchmarks=('micro:fib',),"
            " point=AblationPoint(config=ProcessorConfig(issue_width=4,"
            f" window_size=24), model=GREAT_MODEL), max_instructions={_LIMIT})\n"
            "plan = plan_ablation(spec)\n"
            "print('\\n'.join(run.run_id for run in plan.runs))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [run.run_id for run in plan.runs]

    def test_default_spec_baseline_run_id_is_pinned(self):
        # `repro ablate` with every default.  The run-ID text keeps its
        # empty `engine=` line, so IDs in reports written while engine
        # components existed still match today's plans.
        spec = AblationSpec(
            benchmarks=("micro:fib",),
            point=AblationPoint(
                config=paper_config("8/48"), model=GREAT_MODEL,
                update_timing="D",
            ),
            max_instructions=3000,
        )
        assert plan_ablation(spec).baseline.run_id == "28656ecf068fd84c6f716eb5"

    def test_run_ids_sensitive_to_spec_content(self):
        base = plan_ablation(_spec())
        other_limit = plan_ablation(_spec(max_instructions=_LIMIT + 1))
        other_bench = plan_ablation(_spec(benchmarks=("micro:reduction",)))
        assert base.baseline.run_id != other_limit.baseline.run_id
        assert base.baseline.run_id != other_bench.baseline.run_id

    def test_run_id_shape_matches_job_key_discipline(self):
        for run in plan_ablation(_spec()).runs:
            assert len(run.run_id) == 24
            int(run.run_id, 16)  # hex

    def test_empty_benchmark_set_rejected(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            AblationSpec(benchmarks=(), point=_point())


@pytest.fixture(scope="module")
def executed_report():
    """One executed tiny ablation shared by the report tests."""
    plan = plan_ablation(_spec())
    executed = execute_plan(plan)
    report = build_report(plan, executed, revision="test")
    return plan, executed, report


class TestExecuteAndReport:

    def test_report_validates_and_ranks_by_importance(self, executed_report):
        _, _, report = executed_report
        validate_report(report)
        importances = [e["importance"] for e in report["components"]]
        assert importances == sorted(importances, reverse=True)
        assert len(report["components"]) >= 6

    def test_harmful_flag_tracks_negative_importance(self, executed_report):
        _, _, report = executed_report
        for entry in report["components"]:
            assert entry["harmful"] == (entry["importance"] < 0)

    def test_header_block_matches_perf_record_convention(
        self, executed_report
    ):
        plan, _, report = executed_report
        assert report["v"] == 1
        assert report["kind"] == "ablation"
        assert report["revision"] == "test"
        assert report["fingerprint"] == plan.fingerprint

    def test_renderings_cover_every_component(self, executed_report):
        _, _, report = executed_report
        text = render_text(report)
        csv = render_csv(report)
        for entry in report["components"]:
            joined = "+".join(entry["components"])
            assert joined in text
            assert joined in csv
        assert "baseline" in csv.splitlines()[1]
        assert len(csv.splitlines()) == 2 + len(report["components"])

    def test_write_report_round_trips(self, executed_report, tmp_path):
        _, _, report = executed_report
        path = write_report(report, tmp_path / "nested" / "report.json")
        assert json.loads(path.read_text()) == report

    def test_executed_runs_align_with_plan(self, executed_report):
        plan, executed, _ = executed_report
        assert [item.run.run_id for item in executed] == [
            run.run_id for run in plan.runs
        ]
        for item in executed:
            assert len(item.results) == len(item.run.jobs)
            assert len(item.base_results) == len(item.run.base_jobs)

    def test_model_lesions_change_simulation_outcomes(self, executed_report):
        # At least one mechanism must matter on this workload, or the
        # whole framework is measuring nothing.
        _, _, report = executed_report
        assert any(
            e["importance"] != 0.0 for e in report["components"]
        )


class TestBackendEquivalence:
    def test_pool_and_service_bit_identical_to_serial(
        self, executed_report, pool_service
    ):
        plan, serial, _ = executed_report
        pooled = execute_plan(plan, jobs=2)
        # A running service on a two-process pool.
        served = execute_plan(plan, backend="service")
        for label, other in (("pool", pooled), ("service", served)):
            assert [item.run.run_id for item in other] == [
                item.run.run_id for item in serial
            ], label
            for mine, reference in zip(other, serial):
                assert [r.counters for r in mine.results] == [
                    r.counters for r in reference.results
                ], (label, mine.run.label)
                assert [r.counters for r in mine.base_results] == [
                    r.counters for r in reference.base_results
                ], (label, mine.run.label)


class TestValidateReport:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_report([])

    def test_rejects_wrong_kind(self, executed_report):
        _, _, report = executed_report
        with pytest.raises(ValueError, match="not an ablation report"):
            validate_report({**report, "kind": "throughput"})

    def test_rejects_missing_fields(self, executed_report):
        _, _, report = executed_report
        broken = dict(report)
        del broken["fingerprint"]
        with pytest.raises(ValueError, match="fingerprint"):
            validate_report(broken)

    def test_rejects_malformed_run_id(self, executed_report):
        _, _, report = executed_report
        broken = json.loads(json.dumps(report))
        broken["components"][0]["run_id"] = "short"
        with pytest.raises(ValueError, match="malformed run_id"):
            validate_report(broken)
