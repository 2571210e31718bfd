"""Design-space sweeps beyond the paper's headline figures.

These regenerate the ablations DESIGN.md indexes: per-latency-variable
sensitivity (ABL-L), the Section 3.2 verification-scheme comparison
(ABL-V), the Section 3.1 invalidation-scheme comparison (ABL-I), a
value-predictor comparison (extension) and ten more.

Each sweep is declared once, as a :class:`Sweep` in :data:`SWEEPS`: its
id, list title, paper reference, rendered heading and the builder of its
variants.  ``repro run abl-*`` (:data:`repro.harness.experiments.EXPERIMENTS`),
``repro export`` (:data:`repro.harness.export.EXPORTS`) and the full
reproduction (:func:`repro.harness.experiments.run_reproduction`) all
read the table.  Each entry is also importable under its builder's name
(``verification_scheme_sweep`` and so on); calling it runs the sweep.

Every sweep flattens its whole grid — the baseline runs *and* every
variant x benchmark point — into a single batch (:meth:`Sweep.plan`)
for :func:`repro.harness.parallel.run_jobs`, so ``jobs=N`` fans the
entire sweep out over N worker processes while ``jobs=1`` (the default)
runs the identical batch inline.  Results are merged positionally, so
the sweep output is bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.core.latency import GREAT_LATENCIES, LatencyModel
from repro.core.model import GREAT_MODEL, SpeculativeExecutionModel
from repro.core.variables import (
    BranchResolution,
    InvalidationScheme,
    MemoryResolution,
    ModelVariables,
    VerificationScheme,
)
from repro.engine.config import ProcessorConfig
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob, run_jobs
from repro.harness.render import render_table
from repro.metrics.counters import SimCounters
from repro.metrics.speedup import harmonic_mean
from repro.programs.suite import select_benchmarks
from repro.vp.base import ValuePredictor
from repro.vp.confidence import (
    HistoryConfidenceEstimator,
    ResettingConfidenceEstimator,
    SaturatingConfidenceEstimator,
)
from repro.vp.context import ContextValuePredictor
from repro.vp.hybrid import HybridPredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.oracle import OracleConfidence
from repro.vp.stride import StridePredictor
from repro.vp.tagged import TaggedContextPredictor


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a sweep."""

    label: str
    speedup: float
    detail: dict[str, float]


@dataclass(frozen=True)
class SweepVariant:
    """One sweep variant: the settings for a suite-wide engine run.

    ``base_config`` names the baseline (no-speculation) configuration the
    variant's speedups are normalised against; ``None`` means "its own
    config" (the common case — sweeps that perturb the processor itself,
    like branch predictors or width scaling, compare against a base
    machine with the same perturbation).

    Variants are the unit of re-instrumentation: hand one to
    :func:`instrument_variant` to re-run any sweep point with the
    observability tracer attached.
    """

    label: str
    config: ProcessorConfig
    model: SpeculativeExecutionModel
    confidence: object = "R"
    update_timing: str = "I"
    predictor: Callable | None = None
    base_config: ProcessorConfig | None = None

    @property
    def baseline(self) -> ProcessorConfig:
        return self.base_config if self.base_config is not None else self.config


def instrument_variant(
    variant: SweepVariant,
    benchmark: str,
    max_instructions: int | None = 5000,
):
    """Re-run one sweep point instrumented; returns an
    :class:`repro.obs.run.InstrumentedRun`.

    ``benchmark`` accepts suite kernel names and the ``micro:<name>``
    form.  The run reproduces the variant's exact settings (config,
    model, confidence scheme, update timing, predictor), so a sweep
    anomaly can be drilled into with latency-event histograms and a
    Chrome trace without re-deriving the configuration by hand.
    """
    from repro.engine.sim import run_trace
    from repro.obs.run import InstrumentedRun, resolve_trace
    from repro.obs.tracer import PipelineTracer

    trace = resolve_trace(benchmark, max_instructions)
    tracer = PipelineTracer()
    confidence = (
        variant.confidence() if callable(variant.confidence) else variant.confidence
    )
    result = run_trace(
        trace,
        variant.config,
        variant.model,
        confidence=confidence,
        update_timing=variant.update_timing,
        predictor=variant.predictor() if variant.predictor is not None else None,
        tracer=tracer,
    )
    return InstrumentedRun(
        benchmark=benchmark,
        model_name=variant.model.name,
        tracer=tracer,
        result=result,
    )


@dataclass(frozen=True)
class Sweep:
    """One design-space sweep, declared once.

    ``variants(config, **axes)`` builds the sweep's variants around the
    base machine ``config``; its docstring gives the reason for the
    sweep.  ``extra_detail`` adds suite-wide figures to each point's
    detail, and ``section`` names the sweep's section of the full
    reproduction (``None``: not part of it).  Calling the entry runs
    the sweep.
    """

    id: str
    title: str
    paper_ref: str
    heading: str
    variants: Callable[..., list[SweepVariant]]
    section: str | None = None
    extra_detail: Callable[[list[SimulationResult]], dict[str, float]] | None = None

    def plan(
        self,
        max_instructions: int | None = 5000,
        benchmarks: list[str] | None = None,
        config: ProcessorConfig | None = None,
        **axes,
    ) -> tuple[list[SimJob], Callable[[list[SimulationResult]], list[SweepPoint]]]:
        """The sweep's full grid as ``(job_list, reduce)``: ``reduce``
        turns the results of ``job_list``, in submission order, into
        the points.

        The grid is: one baseline run per distinct baseline config per
        benchmark, then every variant x benchmark point.  ``axes`` are
        the builder's own keywords (``values=``, ``counter_bits=`` and
        so on).
        """
        config = config or ProcessorConfig(issue_width=8, window_size=48)
        names = select_benchmarks(benchmarks)
        variants = self.variants(config, **axes)
        base_configs: list[ProcessorConfig] = []
        for variant in variants:
            if variant.baseline not in base_configs:
                base_configs.append(variant.baseline)
        job_list = [
            SimJob(name, base_config, None, max_instructions)
            for base_config in base_configs
            for name in names
        ]
        for variant in variants:
            job_list.extend(
                SimJob(
                    name,
                    variant.config,
                    variant.model,
                    max_instructions,
                    confidence=variant.confidence,
                    update_timing=variant.update_timing,
                    predictor=variant.predictor,
                )
                for name in names
            )

        def reduce(results: list[SimulationResult]) -> list[SweepPoint]:
            width = len(names)
            base_cycles: dict[ProcessorConfig, dict[str, int]] = {}
            for i, base_config in enumerate(base_configs):
                chunk = results[i * width : (i + 1) * width]
                base_cycles[base_config] = {n: r.cycles for n, r in zip(names, chunk)}
            points: list[SweepPoint] = []
            offset = len(base_configs) * width
            for i, variant in enumerate(variants):
                chunk = results[offset + i * width : offset + (i + 1) * width]
                base = base_cycles[variant.baseline]
                per_benchmark = {n: base[n] / r.cycles for n, r in zip(names, chunk)}
                detail = dict(per_benchmark)
                if self.extra_detail is not None:
                    detail.update(self.extra_detail(chunk))
                points.append(
                    SweepPoint(
                        variant.label, harmonic_mean(per_benchmark.values()), detail
                    )
                )
            return points

        return job_list, reduce

    def __call__(
        self,
        max_instructions: int | None = 5000,
        benchmarks: list[str] | None = None,
        config: ProcessorConfig | None = None,
        jobs: int = 1,
        backend: str | None = None,
        **axes,
    ) -> list[SweepPoint]:
        """Run the sweep's full grid (:meth:`plan`) as one parallel
        batch, so a multi-benchmark, multi-variant sweep saturates the
        worker pool instead of synchronising per variant."""
        job_list, reduce = self.plan(max_instructions, benchmarks, config, **axes)
        return reduce(run_jobs(job_list, jobs=jobs, backend=backend))

    def render(self, points: list[SweepPoint]) -> str:
        """The points as a table under the sweep's heading."""
        return render_table(
            ("Point", "HM Speedup"),
            [(p.label, p.speedup) for p in points],
            title=self.heading,
        )


#: Every sweep by id, in the order the full reproduction runs them.
SWEEPS: dict[str, Sweep] = {}


def _sweep(id: str, title: str, paper_ref: str, heading: str, **options):
    """Declare the decorated variant builder as sweep ``id`` in
    :data:`SWEEPS`; the builder's name becomes the entry."""

    def declare(variants: Callable[..., list[SweepVariant]]) -> Sweep:
        entry = Sweep(id, title, paper_ref, heading, variants, **options)
        SWEEPS[id] = entry
        return entry

    return declare


#: The latency variables the sensitivity sweep perturbs, as LatencyModel
#: field names mapped to display labels.
LATENCY_FIELDS: dict[str, str] = {
    "equality_to_verification": "Exec-Eq-Verification",
    "equality_to_invalidation": "Exec-Eq-Invalidation",
    "invalidation_to_reissue": "Invalidation-Reissue",
    "verification_to_branch": "Verification-Branch",
    "verification_addr_to_mem_access": "VerifAddr-MemAccess",
    "verification_to_free_issue": "Verification-FreeRes",
}


@_sweep(
    "abl-latency", "Latency-variable sensitivity sweep", "Section 6 discussion",
    "ABL-L: per-latency-variable sensitivity (around great)",
    section="ABL-L latency sensitivity",
)
def latency_sensitivity_sweep(
    config: ProcessorConfig,
    values: tuple[int, ...] = (0, 1, 2),
    base_latencies: LatencyModel = GREAT_LATENCIES,
) -> list[SweepVariant]:
    """ABL-L: vary each latency variable independently around a base model.

    Reproduces the paper's core claim of *non-uniform sensitivity*: fast
    verification matters; with infrequent misspeculation, invalidation and
    reissue latency barely do.
    """
    variants: list[SweepVariant] = []
    for field_name, label in LATENCY_FIELDS.items():
        for value in values:
            overrides = {field_name: value}
            if field_name == "verification_to_free_issue":
                overrides["verification_to_free_retirement"] = value
            latencies = replace(base_latencies, **overrides)
            model = SpeculativeExecutionModel(
                f"great[{label}={value}]", GREAT_MODEL.variables, latencies
            )
            variants.append(SweepVariant(f"{label}={value}", config, model))
    return variants


@_sweep(
    "abl-verify", "Verification scheme comparison", "Section 3.2",
    "ABL-V: verification schemes (great latencies)",
    section="ABL-V verification schemes",
)
def verification_scheme_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """ABL-V: the Section 3.2 verification approaches under great latencies."""
    return [
        SweepVariant(
            scheme.value,
            config,
            SpeculativeExecutionModel(
                f"great-verify-{scheme.value}",
                ModelVariables(verification=scheme),
                GREAT_LATENCIES,
            ),
        )
        for scheme in VerificationScheme
    ]


@_sweep(
    "abl-inval", "Invalidation scheme comparison", "Section 3.1",
    "ABL-I: invalidation schemes (great latencies)",
    section="ABL-I invalidation schemes",
)
def invalidation_scheme_sweep(
    config: ProcessorConfig, confidence: str = "R"
) -> list[SweepVariant]:
    """ABL-I: selective (parallel/hierarchical) vs complete invalidation."""
    return [
        SweepVariant(
            scheme.value,
            config,
            SpeculativeExecutionModel(
                f"great-inval-{scheme.value}",
                ModelVariables(invalidation=scheme),
                GREAT_LATENCIES,
            ),
            confidence=confidence,
        )
        for scheme in InvalidationScheme
    ]


#: Predictor factories for the predictor-comparison sweep.
PREDICTOR_FACTORIES: dict[str, type[ValuePredictor]] = {
    "context": ContextValuePredictor,
    "last-value": LastValuePredictor,
    "stride": StridePredictor,
    "hybrid": HybridPredictor,
    "tagged-context": TaggedContextPredictor,
}


@_sweep(
    "abl-predictor", "Value predictor comparison", "extension",
    "ABL-P: value predictors (great model)",
    section="ABL-P predictors",
)
def predictor_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Extension: compare value predictors under the great model."""
    return [
        SweepVariant(label, config, GREAT_MODEL, predictor=factory)
        for label, factory in PREDICTOR_FACTORIES.items()
    ]


@_sweep(
    "abl-resolution", "Branch/memory resolution policy comparison",
    "Section 3.2 discussion",
    "ABL-R: branch/memory resolution policies (great latencies)",
    section="ABL-R resolution policies",
)
def resolution_policy_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Section 3.2 follow-up: resolve branches/memory with valid operands
    only (the paper's choice) versus allowing speculative resolution.

    With speculative resolution allowed, the Verification–Branch and
    Verification-Address–Memory-Access latencies become irrelevant (the
    model validator enforces they be zero), so instructions stop waiting
    for the network at the price of acting on possibly-wrong inputs.
    """
    variants: list[SweepVariant] = []
    for label, branch_res, memory_res in (
        ("valid-only (paper)", BranchResolution.VALID_ONLY,
         MemoryResolution.VALID_ONLY),
        ("speculative-branches", BranchResolution.SPECULATIVE_ALLOWED,
         MemoryResolution.VALID_ONLY),
        ("speculative-memory", BranchResolution.VALID_ONLY,
         MemoryResolution.SPECULATIVE_ALLOWED),
        ("speculative-both", BranchResolution.SPECULATIVE_ALLOWED,
         MemoryResolution.SPECULATIVE_ALLOWED),
    ):
        latencies = replace(
            GREAT_LATENCIES,
            verification_to_branch=(
                0 if branch_res is BranchResolution.SPECULATIVE_ALLOWED
                else GREAT_LATENCIES.verification_to_branch
            ),
            verification_addr_to_mem_access=(
                0 if memory_res is MemoryResolution.SPECULATIVE_ALLOWED
                else GREAT_LATENCIES.verification_addr_to_mem_access
            ),
        )
        model = SpeculativeExecutionModel(
            f"great-{label}",
            ModelVariables(
                branch_resolution=branch_res, memory_resolution=memory_res
            ),
            latencies,
        )
        variants.append(SweepVariant(label, config, model))
    return variants


@_sweep(
    "abl-confidence", "Confidence counter-width sweep", "Section 3.6 discussion",
    "ABL-C: confidence counter width (great model, I timing)",
    section="ABL-C confidence width",
)
def confidence_strength_sweep(
    config: ProcessorConfig, counter_bits: tuple[int, ...] = (1, 2, 3, 4)
) -> list[SweepVariant]:
    """Section 3.6 follow-up: vary the resetting-counter width.

    Wider counters demand longer correct streaks before speculating:
    misspeculation falls (toward the oracle's zero) but more correct
    predictions go unused (the CL set grows) — the coverage/accuracy
    trade-off behind the paper's real-vs-oracle gap.
    """
    variants = [
        SweepVariant(
            f"{bits}-bit counters",
            config,
            GREAT_MODEL,
            confidence=partial(ResettingConfidenceEstimator, counter_bits=bits),
        )
        for bits in counter_bits
    ]
    variants.append(SweepVariant("oracle", config, GREAT_MODEL, confidence="O"))
    return variants


def _misspeculation_rate(chunk: list[SimulationResult]) -> dict[str, float]:
    combined = SimCounters.merged(r.counters for r in chunk)
    return {"_misspeculation_rate": combined.misspeculation_rate}


@_sweep(
    "abl-confidence-scheme", "Confidence estimation scheme comparison",
    "Section 3.6 discussion",
    "ABL-CS: confidence estimation schemes (great model, I timing)",
    section="ABL-CS confidence schemes",
    extra_detail=_misspeculation_rate,
)
def confidence_scheme_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Section 3.6: compare confidence estimation mechanisms.

    The paper evaluates resetting counters against an oracle and points
    at Calder et al.'s levels and Bekerman et al.'s history scheme as
    alternatives; this sweep runs all of them under the great model.
    """
    schemes = {
        "resetting (paper)": ResettingConfidenceEstimator,
        "saturating": SaturatingConfidenceEstimator,
        "history": HistoryConfidenceEstimator,
        "oracle": OracleConfidence,
    }
    return [
        SweepVariant(label, config, GREAT_MODEL, confidence=factory)
        for label, factory in schemes.items()
    ]


@_sweep(
    "abl-selective", "Selective value prediction by instruction class",
    "Sections 3.5-3.6 discussion",
    "ABL-S: selective value prediction by instruction class",
    section="ABL-S selective prediction",
)
def selective_prediction_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Selective value prediction (Calder et al. [8], discussed in the
    paper's Sections 3.5–3.6): restrict prediction to instruction classes.

    Loads and other long-latency producers are where a correct prediction
    buys the most; predicting everything buys breadth at the cost of
    predictor pressure (and, in real designs, ports and power).
    """
    return [
        SweepVariant(
            policy,
            config.with_overrides(predict_classes=policy),
            GREAT_MODEL,
            base_config=config,
        )
        for policy in ("all", "long-latency", "loads", "alu")
    ]


@_sweep(
    "abl-ports", "Value-predictor port count", "Section 3 (deferred dimension)",
    "ABL-PT: value-predictor ports per cycle",
    section="ABL-PT predictor ports",
)
def vp_ports_sweep(
    config: ProcessorConfig, ports: tuple[int, ...] = (1, 2, 4, 0)
) -> list[SweepVariant]:
    """Predictor-port sensitivity: how many predictions per cycle the
    dispatch stage may request (0 = unlimited, the paper's assumption)."""
    return [
        SweepVariant(
            "unlimited" if count == 0 else f"{count} port(s)",
            config.with_overrides(vp_ports=count),
            GREAT_MODEL,
            base_config=config,
        )
        for count in ports
    ]


@_sweep(
    "abl-bpred", "Branch predictors x value speculation",
    "Section 5.1 configuration",
    "ABL-B: branch predictors x value speculation (great model)",
    section="ABL-B branch predictors",
)
def branch_predictor_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Front-end direction predictors and their interaction with value
    speculation: each point reports the VP speedup *relative to a base
    processor with the same branch predictor*, so the column isolates how
    branch quality modulates what value speculation can add (fewer
    squashes leave longer stretches of useful speculative work — but also
    fewer pipeline drains to re-seed the delayed-update predictor)."""
    return [
        SweepVariant(
            f"{bp} (paper)" if bp == "gshare" else bp,
            config.with_overrides(branch_predictor=bp),
            GREAT_MODEL,
        )
        for bp in ("bimodal", "local", "gshare", "tournament")
    ]


@_sweep(
    "abl-equality", "Approximate (non-strict) value equality",
    "Section 3.3 (explicitly unexplored)",
    "ABL-E: approximate (non-strict) equality",
    section="ABL-E approximate equality",
)
def approximate_equality_sweep(
    config: ProcessorConfig, low_bits: tuple[int, ...] = (0, 4, 8, 16)
) -> list[SweepVariant]:
    """Section 3.3 extension: non-strict equality.

    "Alternatives that do not require strict equality have been suggested
    but have not been explored" — this sweep explores them: the EQ
    comparators ignore the low N bits, accepting near-miss predictions
    (timing-only tolerance; architectural results are unaffected).
    """
    return [
        SweepVariant(
            "strict (paper)" if bits == 0 else f"ignore low {bits} bits",
            config.with_overrides(equality_ignore_low_bits=bits),
            GREAT_MODEL,
            base_config=config,
        )
        for bits in low_bits
    ]


@_sweep(
    "abl-scaling", "Width/window scaling beyond the paper's three points",
    "Section 6 trend",
    "ABL-W: width/window scaling (great model, I/R)",
    section="ABL-W width scaling",
)
def width_scaling_sweep(
    config: ProcessorConfig,
    widths: tuple[int, ...] = (2, 4, 8, 16, 32),
    window_per_width: int = 6,
) -> list[SweepVariant]:
    """Extend the paper's width/window axis beyond its three points.

    Gabbay & Mendelson's argument, which the paper confirms at 4/24–16/96:
    "wider processors expose more dependences and hence increase the
    potential of value speculation."  This sweep continues the curve.
    Every point is its own machine, so the base ``config`` is unused.
    """
    if any(w <= 0 for w in widths) or window_per_width <= 0:
        raise ValueError("widths and window_per_width must be positive")
    return [
        SweepVariant(
            f"{width}/{width * window_per_width}",
            ProcessorConfig(
                issue_width=width, window_size=width * window_per_width
            ),
            GREAT_MODEL,
        )
        for width in widths
    ]


@_sweep(
    "abl-tables", "Predictor table-size sweep", "Section 3 (deferred dimension)",
    "ABL-T: predictor table sizes (great model)",
)
def predictor_size_sweep(
    config: ProcessorConfig, table_bits: tuple[int, ...] = (8, 10, 12, 16)
) -> list[SweepVariant]:
    """Predictor table-size sensitivity (the "tables configuration"
    dimension the paper defers): shrink the context predictor's level-1
    and level-2 tables and watch aliasing erode speedup."""
    return [
        SweepVariant(
            f"{1 << bits}-entry tables",
            config,
            GREAT_MODEL,
            predictor=partial(
                ContextValuePredictor, history_bits=bits, context_bits=bits
            ),
        )
        for bits in table_bits
    ]


@_sweep(
    "abl-frontend", "Frontend idealism (ideal targets vs BTB+RAS)",
    "Section 5.1 assumption",
    "ABL-F: frontend idealism (great model vs per-frontend base)",
)
def frontend_idealism_sweep(config: ProcessorConfig) -> list[SweepVariant]:
    """Relax the paper's ideal-target front end: control-transfer targets
    come from a BTB and return-address stack instead of being free."""
    return [
        SweepVariant(
            label,
            config.with_overrides(ideal_branch_targets=ideal),
            GREAT_MODEL,
        )
        for label, ideal in (("ideal targets (paper)", True), ("BTB + RAS", False))
    ]
