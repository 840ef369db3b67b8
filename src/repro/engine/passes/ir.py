"""The shared plan IR every planner pass operates on.

A :class:`PlanIR` is a snapshot of the pending subgraph a forcing call
collected, plus the decisions the passes have accumulated so far.  The
invariants that make the pipeline safe to interrupt anywhere:

* ``nodes`` is the subgraph in topological (deps-first) order and is
  never reordered or filtered by a pass.
* Passes never mutate :class:`~repro.engine.dag.Node` objects.  All
  decisions live in the IR (``fusions``, ``elided``) until the
  terminal *schedule* pass commits them onto the nodes in one shot,
  under ``GRAPH_LOCK``.
* ``replace`` returns a new IR; the input IR stays valid.  A faulting
  pass therefore loses only its own rewrites — the driver keeps the
  previous IR and moves on (§V resilience at the planner layer).
"""

from __future__ import annotations

from typing import Any

from ..dag import Node

__all__ = ["PlanIR"]


class PlanIR:
    """Immutable carrier of one forcing's planning state."""

    __slots__ = ("nodes", "fusions", "elided", "stage_counts")

    def __init__(
        self,
        nodes: tuple[Node, ...],
        fusions: tuple = (),
        elided: frozenset[int] = frozenset(),
        stage_counts: tuple[int, int] = (0, 0),
    ):
        self.nodes = tuple(nodes)
        #: (consumer Node, FusionPlan)
        self.fusions = tuple(fusions)
        #: ids of producers absorbed into some fusion plan
        self.elided = frozenset(elided)
        #: (selects_hoisted, transposes_elided) across fusion splices
        self.stage_counts = stage_counts

    def replace(self, **kw: Any) -> "PlanIR":
        """A copy with the given fields replaced (the only way state
        moves between passes)."""
        fields = {
            "nodes": self.nodes, "fusions": self.fusions,
            "elided": self.elided, "stage_counts": self.stage_counts,
        }
        fields.update(kw)
        return PlanIR(**fields)
