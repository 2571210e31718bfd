"""Textual visualization of simulation behaviour.

Terminal-friendly renderings: sparkline time series of IPC and window
occupancy (rebuilt from a tracer's lifecycle marks) and side-by-side run
comparisons.
"""

from repro.viz.timeline import (
    sparkline,
    samples_from_tracer,
    render_timeline,
    render_ipc_comparison,
)

__all__ = [
    "sparkline",
    "samples_from_tracer",
    "render_timeline",
    "render_ipc_comparison",
]
