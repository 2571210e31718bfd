"""Sparkline time-series rendering of run samples.

Samples are cumulative ``(cycle, retired, occupancy)`` triples, rebuilt
by :func:`samples_from_tracer` from the lifecycle marks of a
:class:`~repro.obs.PipelineTracer` attached to the run.  Occupancy counts
correct-path stations only: wrong-path stations emit no dispatch marks.
"""

from __future__ import annotations

from typing import Sequence

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a unicode sparkline, resampled to ``width``."""
    if not values:
        return ""
    if width < 1:
        raise ValueError("width must be positive")
    # resample by bucket means
    buckets: list[float] = []
    count = min(width, len(values))
    for i in range(count):
        lo = i * len(values) // count
        hi = max(lo + 1, (i + 1) * len(values) // count)
        chunk = values[lo:hi]
        buckets.append(sum(chunk) / len(chunk))
    top = max(buckets)
    bottom = min(buckets)
    span = top - bottom
    if span <= 0:
        return _BLOCKS[4] * count
    out = []
    for value in buckets:
        index = int((value - bottom) / span * (len(_BLOCKS) - 1))
        out.append(_BLOCKS[index])
    return "".join(out)


def _ipc_series(samples: Sequence[tuple[int, int, int]]) -> list[float]:
    """Per-interval IPC from cumulative (cycle, retired, occupancy)."""
    series: list[float] = []
    prev_cycle = prev_retired = 0
    for cycle, retired, __ in samples:
        dc = cycle - prev_cycle
        if dc > 0:
            series.append((retired - prev_retired) / dc)
        prev_cycle, prev_retired = cycle, retired
    return series


def render_timeline(
    samples: Sequence[tuple[int, int, int]], label: str = "", width: int = 60
) -> str:
    """IPC and window-occupancy sparklines for one run's samples."""
    if not samples:
        return f"{label}: no samples (build them with samples_from_tracer)"
    ipc = _ipc_series(samples)
    occupancy = [float(s[2]) for s in samples]
    lines = []
    if label:
        lines.append(label)
    lines.append(
        f"  IPC       [{min(ipc):4.1f}..{max(ipc):4.1f}] "
        + sparkline(ipc, width)
    )
    lines.append(
        f"  occupancy [{min(occupancy):4.0f}..{max(occupancy):4.0f}] "
        + sparkline(occupancy, width)
    )
    return "\n".join(lines)


def samples_from_tracer(
    tracer, interval: int = 100
) -> list[tuple[int, int, int]]:
    """Reconstruct cumulative (cycle, retired, occupancy) samples from a
    tracer's lifecycle marks.

    Dispatch marks grow window occupancy; retire and squash marks shrink
    it (retire also advances the retired count).  Only correct-path
    stations emit dispatch marks, so occupancy excludes wrong-path
    stations.  One sample is emitted
    per ``interval`` cycles, carrying the state at the end of that
    interval, so the output plugs straight into :func:`render_timeline`.
    Marks beyond the tracer's ring capacity are dropped oldest-first,
    in which case the series covers only the retained suffix of the run.
    """
    if interval < 1:
        raise ValueError("interval must be positive")
    deltas: dict[int, tuple[int, int]] = {}  # cycle -> (d_retired, d_occupancy)
    for mark in tracer.lifecycle_marks():
        if mark.phase == "dispatch":
            d_ret, d_occ = deltas.get(mark.cycle, (0, 0))
            deltas[mark.cycle] = (d_ret, d_occ + 1)
        elif mark.phase == "retire":
            d_ret, d_occ = deltas.get(mark.cycle, (0, 0))
            deltas[mark.cycle] = (d_ret + 1, d_occ - 1)
        elif mark.phase == "squash":
            d_ret, d_occ = deltas.get(mark.cycle, (0, 0))
            deltas[mark.cycle] = (d_ret, d_occ - 1)
    if not deltas:
        return []
    samples: list[tuple[int, int, int]] = []
    retired = occupancy = 0
    boundary = interval
    for cycle in sorted(deltas):
        while cycle >= boundary:
            samples.append((boundary, retired, max(occupancy, 0)))
            boundary += interval
        d_ret, d_occ = deltas[cycle]
        retired += d_ret
        occupancy += d_occ
    samples.append((boundary, retired, max(occupancy, 0)))
    return samples


def render_ipc_comparison(
    runs: dict[str, Sequence[tuple[int, int, int]]], width: int = 60
) -> str:
    """Aligned IPC sparklines for several runs (e.g. base vs models)."""
    label_width = max((len(label) for label in runs), default=0)
    lines = []
    for label, samples in runs.items():
        ipc = _ipc_series(samples)
        if not ipc:
            continue
        mean = sum(ipc) / len(ipc)
        lines.append(
            f"{label.ljust(label_width)}  mean IPC {mean:5.2f}  "
            + sparkline(ipc, width)
        )
    return "\n".join(lines)
