"""The shared plan IR every planner pass operates on.

A :class:`PlanIR` is a snapshot of the pending subgraph a forcing call
collected, plus the decisions the passes have accumulated so far.  The
invariants that make the pipeline safe to interrupt anywhere:

* ``nodes`` is the subgraph in topological (deps-first) order and is
  never reordered or filtered by a pass.
* Passes never mutate :class:`~repro.engine.dag.Node` objects.  All
  decisions live in the IR (``aliases``, ``fusions``, ``elided``)
  until the terminal *schedule* pass commits them onto the nodes in
  one shot, under ``GRAPH_LOCK``.
* ``replace`` returns a new IR; the input IR stays valid.  A faulting
  pass therefore loses only its own rewrites — the driver keeps the
  previous IR and moves on (§V resilience at the planner layer).
* ``locked`` is the claim set: once a pass claims a node for one
  optimization (a CSE alias or representative, a memo hit), later
  passes must leave it alone.  Claims only grow.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..dag import Node

__all__ = ["NodeInfo", "PlanIR"]


class NodeInfo:
    """Per-node analysis facts computed by the normalize pass.

    ``key``    — structural identity (hash-consing key) or ``None``.
    ``stages`` — the node's stage list after per-node normalization
    (transpose pairs cancelled, value-independent selects hoisted), or
    ``None`` for non-stage nodes.
    """

    __slots__ = ("key", "stages")

    def __init__(self, key: tuple | None, stages: list | None):
        self.key = key
        self.stages = stages


class PlanIR:
    """Immutable carrier of one forcing's planning state."""

    __slots__ = (
        "nodes", "info", "aliases", "fusions", "elided", "locked",
        "stage_counts", "memo_hits", "memo_entries",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...],
        info: Mapping[int, NodeInfo] = (),
        aliases: Mapping[int, Node] = (),
        fusions: tuple = (),
        elided: frozenset[int] = frozenset(),
        locked: frozenset[int] = frozenset(),
        stage_counts: tuple[int, int] = (0, 0),
        memo_hits: tuple = (),
        memo_entries: tuple = (),
    ):
        self.nodes = tuple(nodes)
        self.info = dict(info)
        #: id(duplicate node) -> representative Node
        self.aliases = dict(aliases)
        #: (consumer Node, FusionPlan)
        self.fusions = tuple(fusions)
        #: ids of producers absorbed into some fusion plan
        self.elided = frozenset(elided)
        #: ids claimed by an optimization; later passes must skip them
        self.locked = frozenset(locked)
        #: (selects_hoisted, transposes_elided) across fusion splices
        self.stage_counts = stage_counts
        #: (node, cached carrier to republish) — cross-forcing memo hits
        self.memo_hits = tuple(memo_hits)
        #: (node, (memo key, dep uids)) for the post-run store
        self.memo_entries = tuple(memo_entries)

    @classmethod
    def initial(
        cls, nodes: list[Node], memo_hits: list = (), memo_entries: list = (),
    ) -> "PlanIR":
        """The IR a forcing starts from: its subgraph plus what the
        gate's direct memo consult found.  Memo hits are claimed from
        the start — every pass must leave them alone."""
        return cls(
            tuple(nodes), memo_hits=memo_hits, memo_entries=memo_entries,
            locked=frozenset(id(node) for node, _ in memo_hits),
        )

    def replace(self, **kw: Any) -> "PlanIR":
        """A copy with the given fields replaced (the only way state
        moves between passes)."""
        fields = {
            "nodes": self.nodes, "info": self.info, "aliases": self.aliases,
            "fusions": self.fusions,
            "elided": self.elided, "locked": self.locked,
            "stage_counts": self.stage_counts,
            "memo_hits": self.memo_hits,
            "memo_entries": self.memo_entries,
        }
        fields.update(kw)
        return PlanIR(**fields)

    def node_info(self, node: Node) -> NodeInfo | None:
        return self.info.get(id(node))
