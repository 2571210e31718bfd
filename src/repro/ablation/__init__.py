"""Automated ablation framework over model variables.

Declare ablatable components (:mod:`repro.ablation.registry`), expand a
baseline into the leave-one-out run set with stable content-hash run
IDs (:mod:`repro.ablation.plan`), execute it on any harness backend
(:mod:`repro.ablation.execute`), and rank per-component importance
(:mod:`repro.ablation.report`).  See docs/ABLATION.md; CLI entry point:
``repro ablate``.
"""

from repro.ablation.execute import RunResults, execute_plan
from repro.ablation.plan import (
    AblationPlan,
    AblationSpec,
    PlannedRun,
    SkippedRun,
    plan_ablation,
)
from repro.ablation.registry import (
    AblationPoint,
    Component,
    ComponentRegistry,
    NotApplicable,
    default_registry,
)
from repro.ablation.report import (
    build_report,
    render_csv,
    render_text,
    validate_report,
    write_report,
)

__all__ = [
    "AblationPlan",
    "AblationPoint",
    "AblationSpec",
    "Component",
    "ComponentRegistry",
    "NotApplicable",
    "PlannedRun",
    "RunResults",
    "SkippedRun",
    "build_report",
    "default_registry",
    "execute_plan",
    "plan_ablation",
    "render_csv",
    "render_text",
    "validate_report",
    "write_report",
]
