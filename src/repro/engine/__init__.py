"""Lazy expression-DAG execution engine for nonblocking mode (§III, §V).

Deferred methods become :mod:`~repro.engine.dag` nodes; forcing calls
run :func:`repro.engine.scheduler.force`, which plans kernel fusion
(:mod:`~repro.engine.fusion`) and executes the needed subgraph in
dependency order.  :data:`repro.engine.stats.STATS`
records what the optimizer did.

Only :mod:`~repro.engine.stats` is imported eagerly: the core layer
imports this package, and the heavier engine modules import the core —
submodules are loaded on first use to keep the import graph acyclic.
"""

from .stats import STATS, EngineStats

__all__ = ["STATS", "EngineStats"]
