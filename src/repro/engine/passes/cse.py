"""Pass 2 — hash-cons common subexpression elimination + result memo.

Two pending nodes with identical structural keys (same pure operation,
same captured inputs, same output domain — see
:func:`repro.engine.dag.structural_key`) compute the same carrier, so
only the first (the *representative*) need run its kernel; every later
duplicate becomes an alias that publishes the representative's result
through the normal commit gate.  Input identities are canonicalized
through the aliases found so far, so transitive duplicates
(``f(g(a))`` vs ``f(g′(a))`` with ``g ≡ g′``) collide too.

The **cross-forcing result memo** (:mod:`repro.engine.memo`) shares
this pass's eligibility rule but not its machinery: the planner's gate
calls :func:`consult_memo` on every eligible node directly — one
:func:`~repro.engine.dag.memo_key`, one dict probe — whether or not any
pass runs.  A node whose key matches a carrier committed by an
*earlier* forcing becomes a memo hit — the scheduler republishes the
cached carrier through the commit gate and the kernel never runs.
Misses record the key so the scheduler can store the committed result
for later forcings.  Memo hits are locked exactly like CSE endpoints: a
fused-away node would no longer publish the cached value.

**Precondition** (:func:`signature`): the pass can only alias two
pending nodes that agree on kind, operation and output domain, so the
gate runs it only when two eligible nodes of one forcing share a
signature.

Eligibility is deliberately narrow: pure nodes built from *built-in*
operators only (user-defined functions carry no determinism guarantee),
and never a node another pass has claimed.  Aliases and representatives
are locked against fusion — an elided representative would no longer
hold the shared value.

§V transparency: if the representative fails, each alias falls back to
running its own kernel under its own label (the scheduler's
``cse_fallbacks`` path); a memo republish that fails the commit gate
re-runs its own kernel too (``memo_fallbacks``) — both exactly the
blocking-mode outcome.
"""

from __future__ import annotations

from ...internals import config
from ..dag import PENDING, Node, memo_key, structural_key
from .ir import PlanIR

__all__ = ["run"]


def signature(node: Node) -> tuple | None:
    """What two nodes must share before this pass could alias them —
    :func:`~repro.engine.dag.structural_key` minus the input
    identities, at a fraction of its cost — or ``None`` for a node that
    is never hash-consed (nor memoized: the eligibility is the same)."""
    if not node.pure or node.thunk is not None:
        return None
    if node.opkey is not None:
        if not node.cse_safe:
            return None
        return (node.kind, node.opkey, id(node.out_type))
    if node.stages is not None:
        return (
            node.kind,
            tuple(st[0] if len(st) == 1 else (st[0], id(st[1]))
                  for st in node.stages),
            id(node.out_type),
        )
    return None


def consult_memo(node: Node, hits: list, entries: list) -> None:
    """Look *node* up in its context's result memo: a hit appends
    ``(node, carrier)`` to *hits*, a miss ``(node, (key, dep uids))``
    to *entries*.  Planning never *writes* the memo — stores happen in
    the scheduler after the carrier passes the commit gate.

    An in-place node (its output handle is among its inputs, the
    ``apply(f, …, f)`` of a BFS level) records no entry: its key names
    a handle version that its own submission superseded, so nothing
    could ever read the store.  A hit is still possible — another
    object may have computed the same value from that version."""
    ctx = getattr(node.owner, "_ctx", None)
    if ctx is None:
        return
    keyed = memo_key(node)
    if keyed is None:
        return
    memo = ctx.result_memo()
    if memo is None:
        return
    carrier = memo.lookup(keyed[0])
    if carrier is not None:
        hits.append((node, carrier))
    elif node.owner._uid not in keyed[1]:
        entries.append((node, keyed))


def run(ir: PlanIR) -> PlanIR:
    if not config.ENGINE_CSE:
        return ir
    seen: dict[tuple, Node] = {}
    aliases: dict[int, Node] = {}
    canon: dict[int, int] = {}
    for node in ir.nodes:
        if node.state != PENDING or id(node) in ir.locked:
            continue
        inf = ir.node_info(node)
        if inf is None or inf.key is None:
            continue
        key = structural_key(node, canon)
        if key is None:
            continue
        rep = seen.get(key)
        if rep is None:
            seen[key] = node
        else:
            aliases[id(node)] = rep
            canon[id(node)] = canon.get(id(rep), id(rep))
    if not aliases:
        return ir
    locked = set(ir.locked)
    for nid, rep in aliases.items():
        locked.add(nid)
        locked.add(id(rep))
    return ir.replace(aliases=aliases, locked=frozenset(locked))
