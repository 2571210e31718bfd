"""Job identity and wire forms.

The harness's grids — every figure, table and ablation — reduce to a
batch of independent :class:`~repro.harness.parallel.SimJob` points.
:mod:`repro.cluster.serial` names each point by a canonical content
hash (:func:`job_key`), carries it as a job blob, and carries its
:class:`~repro.engine.sim.SimulationResult` in a JSON wire form.  The
result store, the simulation service, the ablation planner and the
harness's dedup all key on that hash, so a point computed once is
never recomputed under another name.
"""

from repro.cluster.serial import job_key

__all__ = ["job_key"]
