"""Processor configuration.

The paper evaluates three machine sizes, identified by issue-width/window:
4/24, 8/48 and 16/96.  Everything else — cache geometry, branch predictor,
port counts — follows Section 5.1 and is held constant across sizes except
the D-cache port count, which is half the issue width.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ProcessorConfig:
    """Microarchitectural parameters independent of the speculation model."""

    issue_width: int = 8
    window_size: int = 48
    #: Per-cycle bandwidths; the paper gives only the issue width, so fetch,
    #: dispatch and retire default to it (SimpleScalar's convention).
    fetch_width: int | None = None
    dispatch_width: int | None = None
    retire_width: int | None = None
    #: Cycles between fetching an instruction and it entering the window
    #: (front-end depth).  Determines, with resolution time, the branch
    #: misprediction penalty.
    dispatch_latency: int = 2
    #: Fetch-redirect bubble after a resolved branch misprediction.
    redirect_penalty: int = 1
    #: D-cache ports: the paper's "as many ports as half the issue width".
    dcache_ports: int | None = None
    #: Model wrong-path fetch/execution occupancy after branch mispredicts.
    model_wrong_path: bool = True
    #: Paper's front-end idealism: control-transfer targets always correct
    #: when the direction is correct.
    ideal_branch_targets: bool = True
    #: Branch direction predictor: "gshare" (the paper), "bimodal",
    #: "local", or "tournament".
    branch_predictor: str = "gshare"
    #: gshare geometry (16-bit history, 64K entries).
    branch_history_bits: int = 16
    branch_table_bits: int = 16
    #: Safety net for runaway simulations.
    max_cycles: int = 5_000_000
    #: Which instructions receive value predictions: "all" (the paper's
    #: configuration), "loads", "long-latency" (loads + complex int + FP),
    #: or "alu" — the selective-prediction dimension of Calder et al. that
    #: the paper's Sections 3.5–3.6 discuss.
    predict_classes: str = "all"
    #: Value-predictor ports: predictions granted per cycle at dispatch
    #: (0 = unlimited, the paper's implicit assumption).  One of the
    #: "number of ports" dimensions the paper defers.
    vp_ports: int = 0
    #: Idealization switches for limit-style runs: perfect branch
    #: direction prediction, and caches that always hit at L1 latency.
    perfect_branches: bool = False
    perfect_caches: bool = False
    #: Approximate equality (paper Section 3.3: "alternatives that do not
    #: require strict equality have been suggested but have not been
    #: explored"): a prediction whose value matches the computed result in
    #: all but the low N bits is treated as correct by the EQ comparators.
    #: Models tolerance for low-precision consumers; 0 = strict (paper).
    equality_ignore_low_bits: int = 0

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.window_size <= 0:
            raise ValueError("issue_width and window_size must be positive")
        if self.window_size < self.issue_width:
            raise ValueError("window must hold at least one issue group")
        for name in ("fetch_width", "dispatch_width", "retire_width"):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, self.issue_width)
            elif value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.dcache_ports is None:
            object.__setattr__(self, "dcache_ports", max(1, self.issue_width // 2))
        elif self.dcache_ports <= 0:
            raise ValueError("dcache_ports must be positive")
        if self.branch_predictor not in (
            "gshare", "bimodal", "local", "tournament"
        ):
            raise ValueError(
                "branch_predictor must be gshare, bimodal, local or tournament"
            )
        if self.predict_classes not in ("all", "loads", "long-latency", "alu"):
            raise ValueError(
                "predict_classes must be one of: all, loads, long-latency, alu"
            )
        if self.vp_ports < 0:
            raise ValueError("vp_ports must be non-negative (0 = unlimited)")
        if not 0 <= self.equality_ignore_low_bits < 64:
            raise ValueError("equality_ignore_low_bits must be in [0, 64)")

    @property
    def label(self) -> str:
        """The paper's width/window notation, e.g. ``8/48``."""
        return f"{self.issue_width}/{self.window_size}"

    def with_overrides(self, **kwargs) -> "ProcessorConfig":
        return replace(self, **kwargs)


#: The three configurations of Section 6.
PAPER_CONFIGS: tuple[ProcessorConfig, ...] = (
    ProcessorConfig(issue_width=4, window_size=24),
    ProcessorConfig(issue_width=8, window_size=48),
    ProcessorConfig(issue_width=16, window_size=96),
)


def paper_config(label: str) -> ProcessorConfig:
    """Look up a paper configuration by its ``width/window`` label."""
    for config in PAPER_CONFIGS:
        if config.label == label:
            return config
    raise KeyError(f"unknown configuration {label!r}; know " +
                   ", ".join(c.label for c in PAPER_CONFIGS))
