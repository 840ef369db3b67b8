"""Pass 3 — cost model: arbitrate pushdown-vs-fusion conflicts.

Mask pushdown and fusion compete for the same producers: a masked
stage-form consumer over a pending mxm can either push its key filter
into the SpGEMM kernel (off-mask products die before sort/compress) or
absorb the producer into a fused pipeline (the intermediate carrier is
never materialized).  The fixed ``cse → pushdown → fuse`` order always
let pushdown claim first; this pass decides per conflict by **estimated
kernel savings** instead:

* ``push_gain``  ≈ products the mask filter kills before the ESC
  sort/compress phase × the calibrated per-product cost.
* ``fuse_gain``  ≈ intermediate entries whose materialization (commit,
  cast, second pass over stored values) fusion avoids × the calibrated
  per-entry stage cost.

Work estimates are nnz-based: materialized carriers report exact nnz,
pending producers are estimated from *their* inputs (mxm via the
classic ``nnz(A)·nnz(B)/inner`` expected-products model, eWise via
intersection/union bounds).  The per-element rates are **calibrated
from observed kernel spans**: :mod:`repro.engine.stats` already records
wall time per kernel kind, and this pass feeds back its own estimates,
so the ratio ``observed ms / estimated elements`` tracks the machine
the process actually runs on (falling back to static rates until both
kernels have been seen).

The pass only *advises*: winners land in ``ir.decisions`` (producer id
→ ``"pushdown"`` | ``"fuse"``), the pushdown pass skips producers
decided ``"fuse"`` (fusion then absorbs them normally), and every
decision emits a ``cost:`` trace instant with both estimates — so
``--trace-out`` shows *why* a producer was pushed into vs fused.  A
skipped or disabled cost pass (``ENGINE_COSTMODEL=0``) degrades to the
fixed order.

The same calibrated model also scores result-memo entries
(:func:`entry_savings_ms`): what a hit on a node would save feeds the
eviction order in :mod:`repro.engine.memo`.
"""

from __future__ import annotations

import threading

from ...internals import config
from ...internals.containers import (
    DcsrData,
    MatData,
    choose_mat_format,
    dcsr_from_csr,
    mat_format,
)
from ..dag import PENDING, Node
from ..stats import STATS, register_reset_hook
from .ir import PlanIR

__all__ = [
    "run", "estimate_nnz", "calibrated_rates", "entry_savings_ms",
    "export_calibration", "seed_calibration",
    "commit_format", "should_delta_patch",
]

#: Static per-element rates (ms) used until calibration has data:
#: accumulating + sorting + compressing one SpGEMM product vs pushing
#: one intermediate entry through a materialize + cast + stage pass.
#: The 5:1 prior reflects that a product pays hash/sort work while a
#: stage entry is one vectorized copy; calibration replaces both with
#: measured rates as soon as kernels of each kind have run.
_BASE_PRODUCT_MS = 5e-6
_BASE_STAGE_MS = 1e-6

_cal_lock = threading.Lock()
#: Cumulative elements this pass estimated per bucket, matched against
#: the cumulative kernel wall time STATS records for the same kinds.
_estimated_elems = {"product": 0.0, "stage": 0.0}
#: Warm-restart priors (checkpoint rehydration): measured rates from a
#: previous process image, used instead of the static ``_BASE_*``
#: defaults until *this* process has its own measurements.
_seeded_rates: dict = {}


def _reset_calibration() -> None:
    """Stats epoch rolled over (``STATS.reset``): drop the estimate
    accumulators so the ratio against the freshly-zeroed kernel times
    stays consistent, along with any warm-restart priors."""
    with _cal_lock:
        _estimated_elems["product"] = 0.0
        _estimated_elems["stage"] = 0.0
        _seeded_rates.clear()


def export_calibration() -> dict:
    """The current calibrated rates, as a checkpoint-manifest payload."""
    product_ms, stage_ms = calibrated_rates()
    return {"product_ms": product_ms, "stage_ms": stage_ms}


def seed_calibration(rates: dict) -> None:
    """Install measured rates from a checkpoint as warm priors.

    Seeded rates replace the static defaults in
    :func:`calibrated_rates` until live measurements exist; a stats
    reset clears them (a new epoch starts genuinely cold).
    """
    with _cal_lock:
        for bucket in ("product_ms", "stage_ms"):
            try:
                value = float(rates.get(bucket, 0.0))
            except (TypeError, ValueError):
                continue
            if value > 0.0:
                _seeded_rates[bucket] = value


register_reset_hook(_reset_calibration)


def _source_nnz(src, depth: int) -> float:
    if src is None:
        return 0.0
    if src.node is not None:
        return _node_nnz(src.node, depth)
    data = src.data
    return float(getattr(data, "nvals", 0) or 0)


def _node_nnz(node: Node, depth: int = 0) -> float:
    """Estimated output nnz of a (possibly pending) node."""
    if depth > 8:  # deep chains: stop refining, any estimate will do
        return 0.0
    if node.state != PENDING and node.result is not None:
        return float(getattr(node.result, "nvals", 0) or 0)
    ins = [_source_nnz(s, depth + 1) for s in node.inputs]
    kind = node.kind
    if kind in ("mxm", "mxv", "vxm"):
        # Expected surviving entries ≈ expected products (upper bound;
        # compression only shrinks it).
        return estimate_products(node, depth)
    if kind == "eWiseMult":
        return min(ins[:2] or [0.0])
    if kind == "eWiseAdd":
        return sum(ins[:2])
    if node.stages is not None and node.inputs:
        return _source_nnz(node.inputs[node.pipe_input], depth + 1)
    return max(ins or [0.0])


def _inner_dim(node: Node) -> float:
    a = node.inputs[0].node.result if node.inputs[0].node is not None \
        else node.inputs[0].data
    ncols = getattr(a, "ncols", None)
    if ncols is None:
        ncols = getattr(a, "size", None)
    try:
        return max(1.0, float(ncols))
    except (TypeError, ValueError):
        return 1.0


def estimate_products(node: Node, depth: int = 0) -> float:
    """Expected multiply-stream length of an mxm-family node: the
    uniform-distribution SpGEMM model ``nnz(A)·nnz(B)/inner``."""
    if len(node.inputs) < 2:
        return 0.0
    nnz_a = _source_nnz(node.inputs[0], depth + 1)
    nnz_b = _source_nnz(node.inputs[1], depth + 1)
    if not nnz_a or not nnz_b:
        return 0.0
    return max(nnz_a, nnz_b, nnz_a * nnz_b / _inner_dim(node))


def estimate_nnz(node: Node) -> float:
    """Public spelling of the per-node nnz estimate (tests, tooling)."""
    return _node_nnz(node)


def _mask_kill_fraction(mask_source, complement: bool) -> float:
    """Fraction of products the pushed filter is expected to kill."""
    data = mask_source.data if mask_source.node is None \
        else mask_source.node.result
    if data is None:
        return 0.5  # unknown: neutral prior
    nvals = float(getattr(data, "nvals", 0) or 0)
    nrows = getattr(data, "nrows", None)
    if nrows is not None:
        space = float(nrows * data.ncols)
    else:
        space = float(getattr(data, "size", 0) or 0)
    if space <= 0:
        return 0.5
    density = min(1.0, nvals / space)
    # A normal mask keeps on-mask positions (kills 1 - density); a
    # complemented mask keeps off-mask positions (kills density).
    return density if complement else 1.0 - density


def calibrated_rates() -> tuple[float, float]:
    """(ms per product, ms per stage entry), from observed kernel spans.

    ``STATS.kernel_time`` accumulates wall time per kernel kind; this
    pass accumulates the element estimates it made for the same nodes.
    Once both sides have data the ratio *is* the machine's measured
    rate; until then the static defaults stand in.
    """
    kernel_time = STATS.kernel_times()
    with _cal_lock:
        est = dict(_estimated_elems)
        seeded = dict(_seeded_rates)
    product_ms = seeded.get("product_ms", _BASE_PRODUCT_MS)
    stage_ms = seeded.get("stage_ms", _BASE_STAGE_MS)
    spgemm_ms = sum(
        kernel_time.get(k, 0.0) * 1e3 for k in ("mxm", "mxv", "vxm")
    )
    if spgemm_ms > 0 and est["product"] > 0:
        product_ms = spgemm_ms / est["product"]
    stage_time_ms = sum(
        t * 1e3 for k, t in kernel_time.items()
        if k in ("apply", "select") or k.startswith("fused:")
    )
    if stage_time_ms > 0 and est["stage"] > 0:
        stage_ms = stage_time_ms / est["stage"]
    return product_ms, stage_ms


def _record_estimates(products: float, stage_elems: float) -> None:
    with _cal_lock:
        _estimated_elems["product"] += products
        _estimated_elems["stage"] += stage_elems


def entry_savings_ms(node: Node) -> float:
    """What a future result-memo hit on *node* is worth: the products
    its kernel would stream (mxm family) or the entries it would
    rewrite, priced at the calibrated rates.  Used as the entry's
    rebuild-cost score by the cost-weighted eviction policy."""
    try:
        product_ms, stage_ms = calibrated_rates()
        products = estimate_products(node)
        if products > 0:
            return products * product_ms
        return _node_nnz(node) * stage_ms
    except Exception:
        return 0.0


def commit_format(label: str, carrier):
    """Cost-model format decision at the transaction commit gate.

    Kernels assemble scratch carriers through the density policy
    already, but a committed matrix is the long-lived artifact iterated
    by every later forcing — so the *commit* is where the format choice
    is authoritative.  Applies :func:`~...internals.containers.
    choose_mat_format` (the calibrated density threshold behind the
    ``FORMAT_AUTO`` knob) to the carrier's final shape, repacking when
    the kernel's choice disagrees.  Deterministic in (nrows, nnz), so
    journal replay re-derives bit-identical formats.  Every repack
    emits a ``cost:format`` instant; every doubly-compressed commit
    bumps ``format_dcsr_commits``.
    """
    if not isinstance(carrier, (MatData, DcsrData)):
        return carrier
    current = mat_format(carrier)
    target = choose_mat_format(carrier.nrows, carrier.nvals)
    if target == current:
        if current == "dcsr":
            STATS.bump("format_dcsr_commits")
        return carrier
    if target == "dcsr":
        out = dcsr_from_csr(carrier)
        STATS.bump("format_dcsr_commits")
    else:
        out = carrier.to_csr()
    STATS.instant(
        f"cost:format:{label}", "planner",
        {
            "label": label,
            "nrows": carrier.nrows,
            "nvals": carrier.nvals,
            "from": current,
            "to": target,
        },
    )
    return out


#: A delta is patched only while it is at most this fraction of the
#: base's nnz; past it a rebuild is declared cheaper (cold fallback).
_DELTA_PATCH_RATIO = 0.25


def should_delta_patch(kind: str, delta_nnz: int, base_nnz: int) -> bool:
    """Patch-vs-rebuild arbitration for the memo's delta tier.

    Patching a block costs O(delta) array work under the memo lock;
    rebuilding costs a full kernel pass over the base.  The crossover
    is linear in the size ratio, so the rule is a single threshold
    (:data:`_DELTA_PATCH_RATIO`) with an absolute floor of 16 edges —
    tiny deltas always patch, even into tiny graphs.  Every decision
    emits a ``cost:delta-patch`` instant.
    """
    if not config.ENGINE_DELTA:
        return False
    patch = float(delta_nnz) <= max(
        16.0, _DELTA_PATCH_RATIO * float(base_nnz))
    STATS.instant(
        "cost:delta-patch", "planner",
        {"kind": kind, "delta_nnz": int(delta_nnz),
         "base_nnz": int(base_nnz),
         "decision": "patch" if patch else "rebuild"},
    )
    return patch


def _conflict_pairs(ir: PlanIR):
    """(consumer, producer, mask_info) pairs both pushdown and fusion
    could claim — mirror of the two passes' legality preconditions."""
    from .fuse import _absorbable

    in_graph = {id(n) for n in ir.nodes}
    for y in ir.nodes:
        if y.state != PENDING or y.stages is None or id(y) in ir.locked:
            continue
        inf = ir.node_info(y)
        m = y.mask_info
        if inf is None or m is None or m.source is None:
            continue
        if inf.has_transpose:
            continue
        if m.source.node is not None and m.source.node.state == PENDING:
            continue
        x = y.inputs[y.pipe_input].node
        if (
            x is None
            or id(x) not in in_graph
            or id(x) in ir.locked
            or x.state != PENDING
            or not x.pushable
            or not x.pure
            or x.stages is not None
        ):
            continue
        if x.owner is not None and getattr(x.owner, "_tail", None) is x:
            continue
        if x.nrefs != y.refs_to(x):
            continue
        if y.prev.node is x and not m.replace:
            continue
        if not _absorbable(y, x):
            continue  # fusion can't take it: no conflict to arbitrate
        yield y, x, m


def run(ir: PlanIR) -> PlanIR:
    # The gate schedules this pass only when both contenders can fire
    # (so both are enabled): arbitration is all it does.
    if not config.ENGINE_COSTMODEL:
        return ir
    decisions = dict(ir.decisions)
    for y, x, m in _conflict_pairs(ir):
        products = estimate_products(x)
        out_nnz = _node_nnz(x)
        kill = _mask_kill_fraction(m.source, m.complement)
        product_ms, stage_ms = calibrated_rates()
        push_gain = products * kill * product_ms
        fuse_gain = out_nnz * stage_ms
        winner = "pushdown" if push_gain >= fuse_gain else "fuse"
        decisions[id(x)] = winner
        _record_estimates(products, out_nnz)
        STATS.bump("cost_decisions")
        STATS.instant(
            f"cost:{x.label}", "planner",
            {
                "producer": x.label, "consumer": y.label,
                "est_products": round(products, 1),
                "est_out_nnz": round(out_nnz, 1),
                "mask_kill_fraction": round(kill, 4),
                "push_gain_ms": round(push_gain, 6),
                "fuse_gain_ms": round(fuse_gain, 6),
                "decision": winner,
            },
        )
    if len(decisions) == len(ir.decisions):
        return ir
    return ir.replace(decisions=decisions)
