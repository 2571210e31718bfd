"""Automated reproduction report: results JSON → markdown with verdicts.

Consumes the JSON written by ``scripts/run_full_experiments.py`` and
renders a markdown report that re-checks every qualitative claim the
paper makes against the measured data, marking each REPRODUCED or
DEVIATION with the margin by which it held or failed.  The checks are
the machine-verifiable core of EXPERIMENTS.md and the one place the
paper's shape is asserted; CI runs them on a reduced-budget
reproduction and fails on any DEVIATION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """One checked claim.

    ``margin`` is the slack of the claim's tightest comparison, in the
    claim's own unit (points, cycles or speedup): negative on a
    DEVIATION, 0 for an exact-equality claim that holds.
    """

    claim: str
    reproduced: bool
    evidence: str
    margin: float = 0.0

    @property
    def tag(self) -> str:
        return "REPRODUCED" if self.reproduced else "DEVIATION"


class _Bar:
    """The comparisons one claim makes: it holds when all of them do, and
    its margin is their least slack."""

    def __init__(self) -> None:
        self.holds = True
        self.margin = math.inf

    def _add(self, holds: bool, slack: float) -> None:
        self.holds = self.holds and holds
        self.margin = min(self.margin, slack)

    def ge(self, value: float, bound: float) -> None:
        self._add(value >= bound, value - bound)

    def gt(self, value: float, bound: float) -> None:
        self._add(value > bound, value - bound)

    def eq(self, value: float, expected: float) -> None:
        self._add(value == expected, -abs(value - expected))

    def verdict(self, claim: str, evidence: str) -> Verdict:
        return Verdict(claim, self.holds, evidence, self.margin)


def _figure3_grid(results: dict) -> dict[tuple[str, str, str], float]:
    return {
        (c["config"], c["setting"], c["model"]): c["speedup"]
        for c in results["figure3"]
    }


def _by_width(configs) -> list[str]:
    return sorted(set(configs), key=lambda c: int(c.split("/")[0]))


def _listing(section: dict) -> str:
    return ", ".join(f"{label} {value:.3f}" for label, value in section.items())


def _table1_claims(results: dict) -> list[Verdict]:
    rows = results["table1"]
    worst = max(
        (abs(row["predicted_pct"] - row["paper_predicted_pct"]), row["benchmark"])
        for row in rows
    )
    share = _Bar()
    share.gt(6.0, worst[0])

    # ijpeg is the most predictable kernel, xlisp among the least.
    predicted = {row["benchmark"]: row["predicted_pct"] for row in rows}
    ijpeg, xlisp = predicted["ijpeg"], predicted["xlisp"]
    runner_up = max(v for name, v in predicted.items() if name != "ijpeg")
    order = _Bar()
    order.ge(ijpeg, runner_up)
    order.ge(ijpeg - 10, xlisp)
    return [
        share.verdict(
            "Table 1: per-benchmark predicted-instruction share matches",
            f"worst deviation {worst[0]:.1f} points ({worst[1]})",
        ),
        order.verdict(
            "Table 1: ijpeg is the most predictable kernel; xlisp is at "
            "least 10 points below it",
            f"ijpeg {ijpeg:.1f}, next {runner_up:.1f}, xlisp {xlisp:.1f}",
        ),
    ]


def _figure1_claims(results: dict) -> list[Verdict]:
    f1 = results["figure1"]
    base = _Bar()
    base.eq(f1["base"], 5)
    correct = _Bar()
    correct.eq(f1["super/correct"], f1["great/correct"])
    correct.gt(f1["good/correct"], f1["great/correct"])
    correct.gt(f1["base"], f1["good/correct"])
    incorrect = _Bar()
    incorrect.gt(f1["great/incorrect"], f1["super/incorrect"])
    incorrect.gt(f1["good/incorrect"], f1["great/incorrect"])
    return [
        base.verdict(
            "Figure 1: base processor retires the chain in 5 cycles",
            f"measured {f1['base']}",
        ),
        correct.verdict(
            "Figure 1: correct-prediction ordering super=great<good<base",
            f"{f1['super/correct']}/{f1['great/correct']}/"
            f"{f1['good/correct']}/{f1['base']}",
        ),
        incorrect.verdict(
            "Figure 1: misprediction ordering super<great<good",
            f"{f1['super/incorrect']}/{f1['great/incorrect']}/"
            f"{f1['good/incorrect']}",
        ),
    ]


def _figure3_claims(results: dict) -> list[Verdict]:
    grid = _figure3_grid(results)
    configs = _by_width(k[0] for k in grid)
    settings = sorted({k[1] for k in grid})

    # Speedups grow with width/window.
    wider = _Bar()
    for s in settings:
        for m in ("good", "great", "super"):
            for small, large in zip(configs, configs[1:]):
                wider.ge(grid[(large, s, m)] + 0.01, grid[(small, s, m)])

    # good significantly worse than great and super; sometimes below base.
    cells = [(c, s) for c in configs for s in settings]
    below_super = min(grid[(*k, "super")] - grid[(*k, "good")] for k in cells)
    above_great = max(grid[(*k, "good")] - grid[(*k, "great")] for k in cells)
    lowest_good = min(grid[(*k, "good")] for k in cells)
    good = _Bar()
    good.gt(below_super, 0.0)
    good.ge(0.01, above_great)
    good.gt(1.0, lowest_good)

    # Confidence matters more than update timing: strictly at the largest
    # config, within 0.02 at every config (super model).
    gains = {
        c: (
            grid[(c, "I/O", "super")] - grid[(c, "I/R", "super")],
            grid[(c, "I/R", "super")] - grid[(c, "D/R", "super")],
        )
        for c in configs
    }
    big = configs[-1]
    confidence = _Bar()
    confidence.ge(gains[big][0], gains[big][1])
    for conf_gain, timing_gain in gains.values():
        confidence.ge(conf_gain, timing_gain - 0.02)
    return [
        wider.verdict(
            "Figure 3: benefits increase with issue width and window size",
            "checked all models/settings across configurations",
        ),
        good.verdict(
            "Figure 3: good is significantly worse, sometimes below base",
            f"least super-good {below_super:.3f}, most good-great "
            f"{above_great:+.3f}, lowest good {lowest_good:.3f}",
        ),
        confidence.verdict(
            "Figure 3: confidence moves performance more than update timing",
            f"R->O gain {gains[big][0]:.3f} vs D->I gain {gains[big][1]:.3f} "
            f"at {big}; within 0.02 at every config",
        ),
    ]


def _figure4_claims(results: dict) -> list[Verdict]:
    f4 = {(c["config"], c["timing"]): c for c in results["figure4"]}
    configs = _by_width(c for c, _ in f4)

    def correct(config: str, timing: str) -> float:
        return f4[(config, timing)]["CH"] + f4[(config, timing)]["CL"]

    max_ih = max(cell["IH"] for cell in f4.values())
    min_cl = min(cell["CL"] for cell in f4.values())
    exposure = _Bar()
    exposure.gt(0.02, max_ih)
    exposure.gt(min_cl, 0.10)

    d_correct = [correct(c, "D") for c in configs if (c, "D") in f4]
    delayed = _Bar()
    for small, large in zip(d_correct, d_correct[1:]):
        delayed.ge(small, large - 0.02)

    paired = [c for c in configs if (c, "D") in f4 and (c, "I") in f4]
    immediate = _Bar()
    for c in paired:
        immediate.ge(correct(c, "I"), correct(c, "D") - 0.02)
    return [
        exposure.verdict(
            "Figure 4: resetting counters keep IH tiny at a large CL cost",
            f"max IH {max_ih:.3f}, min CL {min_cl:.3f}",
        ),
        delayed.verdict(
            "Figure 4: delayed-update accuracy decreases with width/window",
            "D-timing correct fractions: "
            + ", ".join(f"{v:.3f}" for v in d_correct),
        ),
        immediate.verdict(
            "Figure 4: immediate update predicts no worse than delayed",
            "I vs D correct fractions: "
            + ", ".join(
                f"{correct(c, 'I'):.3f}/{correct(c, 'D'):.3f}" for c in paired
            ),
        ),
    ]


def _latency_claims(abl: dict) -> list[Verdict]:
    def drop(variable: str) -> float:
        return abl[f"{variable}=0"] - abl[f"{variable}=2"]

    ver_drop = drop("Exec-Eq-Verification")
    inv_drop = drop("Exec-Eq-Invalidation")
    reissue_drop = drop("Invalidation-Reissue")
    asymmetry = _Bar()
    asymmetry.gt(ver_drop, 0.01)
    asymmetry.gt(ver_drop, inv_drop + 0.005)
    asymmetry.gt(ver_drop, reissue_drop + 0.005)

    monotone_vars = (
        "Exec-Eq-Verification", "Verification-Branch", "Verification-FreeRes",
    )
    monotone = _Bar()
    for variable in monotone_vars:
        monotone.ge(abl[f"{variable}=0"], abl[f"{variable}=2"] - 0.01)
    return [
        asymmetry.verdict(
            "Conclusion: fast verification essential; slow invalidation "
            "acceptable when misspeculation is infrequent",
            f"0->2 cycle cost: verification {ver_drop:.3f}, "
            f"invalidation {inv_drop:.3f}, reissue {reissue_drop:.3f}",
        ),
        monotone.verdict(
            "ABL-L: more verification latency never helps",
            "0->2 cycle cost: "
            + ", ".join(f"{v} {drop(v):.3f}" for v in monotone_vars),
        ),
    ]


def _verification_claims(abl: dict) -> list[Verdict]:
    parallel, hierarchical = abl["parallel-network"], abl["hierarchical"]
    retirement = abl["retirement-based"]
    bar = _Bar()
    bar.ge(parallel, hierarchical - 1e-9)
    bar.ge(parallel, retirement - 1e-9)
    bar.ge(hierarchical, retirement)
    return [bar.verdict(
        "ABL-V: the parallel network has the highest potential; "
        "retirement-based verification trails hierarchical",
        _listing(abl),
    )]


def _invalidation_claims(abl: dict) -> list[Verdict]:
    parallel = abl["selective-parallel"]
    bar = _Bar()
    bar.gt(0.03, abs(parallel - abl["selective-hierarchical"]))
    bar.ge(parallel + 1e-9, abl["complete"])
    return [bar.verdict(
        "ABL-I: selective schemes are nearly indistinguishable; complete "
        "invalidation is no better",
        _listing(abl),
    )]


def _resolution_claims(abl: dict) -> list[Verdict]:
    valid = abl["valid-only (paper)"]
    bar = _Bar()
    for label in ("speculative-both", "speculative-branches"):
        bar.ge(abl[label], valid - 0.02)
    return [bar.verdict(
        "ABL-R: speculative branch/memory resolution never hurts",
        _listing(abl),
    )]


def _width_claims(abl: dict) -> list[Verdict]:
    speedups = list(abl.values())
    bar = _Bar()
    bar.ge(speedups[-1], speedups[0] - 0.01)
    bar.ge(max(speedups[-2:]), max(speedups[:-2]))
    return [bar.verdict(
        "ABL-W: wider machines benefit more; the best is one of the two widest",
        _listing(abl),
    )]


def _predictor_claims(abl: dict) -> list[Verdict]:
    bar = _Bar()
    bar.ge(abl["hybrid"], min(abl["context"], abl["stride"]) - 0.02)
    bar.gt(min(abl.values()), 0.93)
    return [bar.verdict(
        "ABL-P: the hybrid keeps up with its weaker component; every "
        "predictor stays near base or above",
        _listing(abl),
    )]


#: Sweep sections with shape claims, in report order.
_SWEEP_CLAIMS = (
    ("ABL-L latency sensitivity", _latency_claims),
    ("ABL-V verification schemes", _verification_claims),
    ("ABL-I invalidation schemes", _invalidation_claims),
    ("ABL-R resolution policies", _resolution_claims),
    ("ABL-W width scaling", _width_claims),
    ("ABL-P predictors", _predictor_claims),
)


def check_claims(results: dict) -> list[Verdict]:
    """Evaluate the paper's stated findings against measured results.

    A sweep section's claims are skipped when the section is absent.
    """
    verdicts = (
        _table1_claims(results)
        + _figure1_claims(results)
        + _figure3_claims(results)
        + _figure4_claims(results)
    )
    for section, claims in _SWEEP_CLAIMS:
        if results.get(section):
            verdicts += claims(results[section])
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
        "| Verdict | Margin | Claim | Evidence |",
        "|---------|--------|-------|----------|",
    ]
    for v in verdicts:
        lines.append(f"| {v.tag} | {v.margin:+.4f} | {v.claim} | {v.evidence} |")
    lines.append("")
    lines.append("## Figure 3 headline (harmonic-mean speedups)")
    lines.append("")
    grid = _figure3_grid(results)
    configs = _by_width(k[0] for k in grid)
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
