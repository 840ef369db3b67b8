"""The planner's pass pipeline (§III optimization freedom, staged).

Each module here is one pass over the shared immutable :class:`~repro.
engine.passes.ir.PlanIR`:

``fuse`` → ``schedule``

``fuse`` is a pure function ``PlanIR -> PlanIR``; ``schedule`` is the
single point that commits the accumulated decisions onto the DAG
nodes.  A pass that faults is simply skipped: the previous IR is still
valid and the forcing proceeds without that pass's rewrites.  The
driver lives in :mod:`repro.engine.fusion`.
"""

from __future__ import annotations

from .ir import PlanIR  # noqa: F401

__all__ = ["PlanIR"]
