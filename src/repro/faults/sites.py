"""Registry of known fault-injection site names.

Purely documentary — :func:`repro.faults.plane.maybe_inject` accepts
any string — but keeping the canonical list in one place lets tests
assert coverage and lets the CLI/docs enumerate what a fault schedule
can target.  Site names are hierarchical (``layer.point``) so fnmatch
patterns like ``kernel.*`` or ``store.*`` select a whole layer.
"""

from __future__ import annotations

#: site name -> (layer, description)
SITES: dict[str, tuple[str, str]] = {
    # -- kernel boundaries (internals/*) -----------------------------------
    "kernel.mxm": ("kernel", "SpGEMM entry (internals/mxm.mxm)"),
    "kernel.mxv": ("kernel", "SpMV entry (internals/mxm.mxv)"),
    "kernel.vxm": ("kernel", "vector-matrix entry (internals/mxm.vxm)"),
    "kernel.build": ("kernel", "tuple assembly (internals/build)"),
    "kernel.apply": ("kernel", "unary map kernels (internals/applyselect)"),
    "kernel.select": ("kernel", "filter kernels (internals/applyselect)"),
    "kernel.pipeline": ("kernel", "fused stage pipelines (internals/applyselect)"),
    "kernel.ewise": ("kernel", "eWise merge/intersect (internals/ewise)"),
    "kernel.reduce": ("kernel", "monoid reductions (internals/reduce)"),
    "kernel.extract": ("kernel", "sub-container extract (internals/extract)"),
    "kernel.assign": ("kernel", "sub-container assign (internals/assign)"),
    "kernel.kron": ("kernel", "Kronecker product (internals/kron)"),
    # -- planner pass boundaries (engine/passes/*) --------------------------
    "planner.fuse": ("planner", "fusion grouping pass (engine/passes/fuse)"),
    "planner.schedule": ("planner", "decision-commit pass (engine/passes/schedule)"),
    # -- engine (engine/*) --------------------------------------------------
    "txn.commit": ("engine", "transactional commit gate (engine/txn)"),
    "parallel.worker": ("engine", "mxm row-block pool worker (internals/mxm)"),
    # -- durability plane (serve/recovery.py) -------------------------------
    # Crash-kill schedules (kind="crash") target these plus any of the
    # kernel/planner/engine boundaries above: a SimulatedCrash at the
    # site hard-terminates the service mid-operation, and the recovery
    # harness then proves restore() parity against an uncrashed oracle.
    "journal.append": ("durability", "WAL record framed + written (serve/recovery)"),
    "journal.commit": ("durability", "WAL record flushed/fsynced — the ack point"),
    "checkpoint.write": ("durability", "snapshot blob/manifest write (serve/recovery)"),
    "restore.replay": ("durability", "journal record replay during restore"),
    # -- warm-start store (store/store.py) ----------------------------------
    # Both sites degrade, never surface: an injected read fault is a
    # store miss (cold rebuild), an injected write fault skips the
    # store-behind (the entry is simply not persisted).
    "store.read": ("store", "warm-start store entry probe (store/store)"),
    "store.write": ("store", "warm-start store entry persist (store/store)"),
}


def layer(site: str) -> str:
    """The layer a (possibly unregistered) site name belongs to."""
    if site in SITES:
        return SITES[site][0]
    return site.split(".", 1)[0]
