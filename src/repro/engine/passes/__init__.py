"""The planner's pass pipeline (§III optimization freedom, staged).

Each module here is one pass over the shared immutable :class:`~repro.
engine.passes.ir.PlanIR`:

``normalize`` → ``cse`` → ``fuse`` → ``schedule``

Passes are pure functions ``PlanIR -> PlanIR`` (schedule excepted — it
is the single point that commits the accumulated decisions onto the DAG
nodes), so a pass that faults is simply skipped: the previous IR is
still valid and the forcing proceeds without that pass's rewrites.  The
driver lives in :mod:`repro.engine.fusion`.
"""

from __future__ import annotations

from .ir import NodeInfo, PlanIR  # noqa: F401

__all__ = ["NodeInfo", "PlanIR"]
