"""Automated reproduction report: results JSON → markdown with verdicts.

Consumes the JSON written by ``scripts/run_full_experiments.py`` and
renders a markdown report that re-checks every qualitative claim the
paper makes against the measured data, marking each REPRODUCED or
DEVIATION.  The checks are the machine-verifiable core of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """One checked claim."""

    claim: str
    reproduced: bool
    evidence: str

    @property
    def tag(self) -> str:
        return "REPRODUCED" if self.reproduced else "DEVIATION"


def _figure3_grid(results: dict) -> dict[tuple[str, str, str], float]:
    return {
        (c["config"], c["setting"], c["model"]): c["speedup"]
        for c in results["figure3"]
    }


def check_claims(results: dict) -> list[Verdict]:
    """Evaluate the paper's stated findings against measured results."""
    verdicts: list[Verdict] = []

    # Table 1: predicted-% within tolerance per benchmark.
    worst = max(
        (abs(row["predicted_pct"] - row["paper_predicted_pct"]), row["benchmark"])
        for row in results["table1"]
    )
    verdicts.append(
        Verdict(
            "Table 1: per-benchmark predicted-instruction share matches",
            worst[0] < 6.0,
            f"worst deviation {worst[0]:.1f} points ({worst[1]})",
        )
    )

    # Figure 1: base takes 5 cycles; model ordering.
    f1 = results["figure1"]
    verdicts.append(
        Verdict(
            "Figure 1: base processor retires the chain in 5 cycles",
            f1["base"] == 5,
            f"measured {f1['base']}",
        )
    )
    verdicts.append(
        Verdict(
            "Figure 1: correct-prediction ordering super=great<good<base",
            f1["super/correct"] == f1["great/correct"]
            < f1["good/correct"] < f1["base"],
            f"{f1['super/correct']}/{f1['great/correct']}/"
            f"{f1['good/correct']}/{f1['base']}",
        )
    )
    verdicts.append(
        Verdict(
            "Figure 1: misprediction ordering super<great<good",
            f1["super/incorrect"] < f1["great/incorrect"] < f1["good/incorrect"],
            f"{f1['super/incorrect']}/{f1['great/incorrect']}/"
            f"{f1['good/incorrect']}",
        )
    )

    grid = _figure3_grid(results)
    configs = sorted({k[0] for k in grid}, key=lambda c: int(c.split("/")[0]))
    settings = sorted({k[1] for k in grid})

    # Speedups grow with width/window.
    monotone = all(
        grid[(configs[i], s, m)] <= grid[(configs[i + 1], s, m)] + 0.01
        for s in settings
        for m in ("good", "great", "super")
        for i in range(len(configs) - 1)
    )
    verdicts.append(
        Verdict(
            "Figure 3: benefits increase with issue width and window size",
            monotone,
            "checked all models/settings across configurations",
        )
    )

    # good significantly worse; sometimes below base.
    good_below_super = all(
        grid[(c, s, "good")] < grid[(c, s, "super")]
        for c in configs
        for s in settings
    )
    good_below_base_somewhere = any(
        grid[(c, s, "good")] < 1.0 for c in configs for s in settings
    )
    verdicts.append(
        Verdict(
            "Figure 3: good is significantly worse, sometimes below base",
            good_below_super and good_below_base_somewhere,
            f"good<super everywhere: {good_below_super}; "
            f"good<1.0 somewhere: {good_below_base_somewhere}",
        )
    )

    # Confidence matters more than update timing (largest config).
    big = configs[-1]
    conf_gain = grid[(big, "I/O", "super")] - grid[(big, "I/R", "super")]
    timing_gain = grid[(big, "I/R", "super")] - grid[(big, "D/R", "super")]
    verdicts.append(
        Verdict(
            "Figure 3: confidence moves performance more than update timing",
            conf_gain >= timing_gain,
            f"R->O gain {conf_gain:.3f} vs D->I gain {timing_gain:.3f} at {big}",
        )
    )

    # Figure 4: IH small, CL large, delayed degrades with geometry.
    f4 = {(c["config"], c["timing"]): c for c in results["figure4"]}
    ih_small = all(cell["IH"] < 0.02 for cell in f4.values())
    cl_large = all(cell["CL"] > 0.10 for cell in f4.values())
    d_correct = [
        f4[(c, "D")]["CH"] + f4[(c, "D")]["CL"] for c in configs if (c, "D") in f4
    ]
    d_degrades = all(
        d_correct[i] >= d_correct[i + 1] - 0.02 for i in range(len(d_correct) - 1)
    )
    verdicts.append(
        Verdict(
            "Figure 4: resetting counters keep IH tiny at a large CL cost",
            ih_small and cl_large,
            f"max IH {max(c['IH'] for c in f4.values()):.3f}, "
            f"min CL {min(c['CL'] for c in f4.values()):.3f}",
        )
    )
    verdicts.append(
        Verdict(
            "Figure 4: delayed-update accuracy decreases with width/window",
            d_degrades,
            f"D-timing correct fractions: "
            + ", ".join(f"{v:.3f}" for v in d_correct),
        )
    )

    # ABL-L: verification most sensitive; invalidation/reissue not.
    abl = results.get("ABL-L latency sensitivity")
    if abl:
        ver_drop = abl["Exec-Eq-Verification=0"] - abl["Exec-Eq-Verification=2"]
        inv_drop = abl["Exec-Eq-Invalidation=0"] - abl["Exec-Eq-Invalidation=2"]
        reissue_drop = abl["Invalidation-Reissue=0"] - abl["Invalidation-Reissue=2"]
        verdicts.append(
            Verdict(
                "Conclusion: fast verification essential; slow invalidation "
                "acceptable when misspeculation is infrequent",
                ver_drop > inv_drop and ver_drop > reissue_drop,
                f"0->2 cycle cost: verification {ver_drop:.3f}, "
                f"invalidation {inv_drop:.3f}, reissue {reissue_drop:.3f}",
            )
        )
    return verdicts


def render_report(results: dict) -> str:
    """Markdown report with the verdict table and the headline data."""
    verdicts = check_claims(results)
    reproduced = sum(1 for v in verdicts if v.reproduced)
    jobs = results.get("jobs")
    lines = [
        "# Reproduction report",
        "",
        f"Trace limit: {results.get('trace_limit')} instructions/kernel, "
        f"sweep limit {results.get('sweep_limit')}; "
        f"wall time {results.get('wall_seconds', '?')}s"
        + ("." if jobs is None else f" with `--jobs {jobs}`."),
        "",
        f"**{reproduced}/{len(verdicts)} checked claims reproduced.**",
        "",
        "| Verdict | Claim | Evidence |",
        "|---------|-------|----------|",
    ]
    for v in verdicts:
        lines.append(f"| {v.tag} | {v.claim} | {v.evidence} |")
    lines.append("")
    lines.append("## Figure 3 headline (harmonic-mean speedups)")
    lines.append("")
    grid = _figure3_grid(results)
    configs = sorted({k[0] for k in grid}, key=lambda c: int(c.split("/")[0]))
    settings = sorted({k[1] for k in grid})
    lines.append("| Config | Setting | good | great | super |")
    lines.append("|--------|---------|------|-------|-------|")
    for config in configs:
        for setting in settings:
            lines.append(
                f"| {config} | {setting} | "
                f"{grid[(config, setting, 'good')]:.3f} | "
                f"{grid[(config, setting, 'great')]:.3f} | "
                f"{grid[(config, setting, 'super')]:.3f} |"
            )
    return "\n".join(lines)
